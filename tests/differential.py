"""Seeded randomized differential harness for the parallel surface.

One seed deterministically derives a complete partitioning scenario — a
random graph (R-MAT, hub-heavy R-MAT, or Chung-Lu power-law), ``k``,
``alpha``, chunk size, sync interval, worker count, scoring mode,
clustering passes and whether Phase 1 is sharded — and the harness runs it
through the full runner/backend matrix, asserting the equivalence
contract stated in the :mod:`repro.core.runners` module docstring on the
**full final state** (per-edge assignments, replica matrix, partition
sizes, machine-neutral cost counters and the schedule-derived extras).
On top of that contract it checks:

- the classic-HDRF baseline agrees across every backend;
- the **serving round-trip** (:func:`assert_store_round_trip`): the
  sequential reference persisted as a
  :class:`~repro.serving.store.PartitionStore` and reopened
  memory-mapped serves every vertex and edge lookup bit-equal to the
  in-memory :class:`PartitionResult` — replica rows, degrees, sizes,
  routing, and per-edge ownership including duplicate-edge
  (first-stream-occurrence) semantics;
- no shared-memory segment, wire connection or worker process survives
  any runner session.

The backend dimension is :func:`repro.kernels.available_backends`, so the
sweep is the ``python`` reference everywhere and gains the compiled ``c``
backend automatically on hosts where a C compiler builds it —
registration is the only wiring a new backend needs.

Every failure message carries the generating seed, so any red run is
reproducible with::

    PYTHONPATH=src python tests/differential.py --seed <seed>

``tests/test_differential.py`` drives a fixed seed matrix through this
module in CI; bump ``EXTRA_RANDOM_SEEDS`` locally for a longer soak.

The **huge-shape out-of-core tier** (:func:`check_out_of_core_seed`) runs
the identical bit-exactness contract on down-scaled shapes drawn to
stress the out-of-core machinery: ``k`` values above 8 and off byte
boundaries (packed-row tail bits), the graph round-tripped through a
binary edge file, and every storage variant — packed vs dense state,
prefetching vs synchronous file streams, file vs in-memory ingestion —
must land on the byte-identical final state within every runner/backend
cell.  Its ``host:port`` leg runs the file variants on the process
runner's ``host:port`` workers, one
:func:`~repro.core.distributed.serve_worker` thread per shard: that
session's coordinator keeps a replica plane of its own and collects
every shard, a path no loopback session takes.  Reproduce with
``--out-of-core --seed <seed>``, plus ``--host-port`` for that leg.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import threading
from dataclasses import dataclass, replace

import numpy as np

from repro.baselines import HDRF
from repro.core import ParallelTwoPhase, TwoPhasePartitioner
from repro.core.distributed import (
    live_connections,
    live_worker_processes,
    serve_worker,
)
from repro.core.runners import ProcessRunner, live_shared_segments
from repro.graph.generators import chung_lu_graph, rmat_graph
from repro.kernels import available_backends
from repro.streaming import FileEdgeStream
from repro.streaming.writer import EdgeListWriter

#: The full runner matrix the harness sweeps.  ``process`` runs the
#: socket-protocol workers in loopback mode: same schedule, same merge
#: ops, but every delta to or from a worker process crosses a wire frame
#: (worker 0 runs in the coordinator) — the sweep pins it bit-exact
#: against the in-process runners.
RUNNERS = ("serial", "simulated", "process")

#: The out-of-core tier's leg on the process runner's ``host:port``
#: workers (see :func:`_run_out_of_core`).
HOST_PORT = "host:port"

#: Extras that must agree wherever the state agrees (schedule-derived).
_CHECKED_EXTRAS = (
    "prepartitioned_edges",
    "n_clusters",
    "syncs",
    "phase1_syncs",
)


@dataclass(frozen=True)
class DifferentialCase:
    """One fully-specified scenario, derived deterministically from a seed."""

    seed: int
    generator: str
    graph_args: tuple
    k: int
    alpha: float
    chunk_size: int
    sync_interval: int
    n_workers: int
    mode: str
    clustering_passes: int
    parallel_phase1: bool

    def build_graph(self):
        if self.generator == "chung-lu":
            n, m, gamma, gseed = self.graph_args
            return chung_lu_graph(n, m, gamma=gamma, seed=gseed)
        scale, edge_factor, a, b, c, gseed = self.graph_args
        return rmat_graph(scale, edge_factor=edge_factor, a=a, b=b, c=c,
                          seed=gseed)


def make_case(seed: int) -> DifferentialCase:
    """Derive a scenario from ``seed`` (pure function of the seed)."""
    rng = np.random.default_rng(seed)
    generator = ("rmat", "hub-heavy", "chung-lu")[int(rng.integers(3))]
    gseed = int(rng.integers(2**31 - 1))
    if generator == "rmat":
        graph_args = (int(rng.integers(5, 8)), int(rng.integers(2, 7)),
                      0.57, 0.19, 0.19, gseed)
    elif generator == "hub-heavy":
        # Skewed quadrant mass: a few hubs collect most endpoints, which
        # maximizes conflict pressure on the stateful kernels.
        graph_args = (int(rng.integers(5, 7)), int(rng.integers(3, 8)),
                      0.7, 0.12, 0.12, gseed)
    else:
        n = int(rng.integers(30, 120))
        graph_args = (n, int(rng.integers(n, 4 * n)),
                      float(rng.uniform(1.9, 2.6)), gseed)
    return DifferentialCase(
        seed=seed,
        generator=generator,
        graph_args=graph_args,
        k=int(rng.integers(2, 10)),
        alpha=(1.0, 1.05, 1.5)[int(rng.integers(3))],
        chunk_size=(1, 7, 61, 256, 5000)[int(rng.integers(5))],
        sync_interval=(7, 63, 509, 10**9)[int(rng.integers(4))],
        n_workers=int(rng.integers(1, 5)),
        mode=("linear", "hdrf")[int(rng.integers(2))],
        clustering_passes=int(rng.integers(1, 3)),
        # Bias toward the sharded Phase 1 — the surface under test.
        parallel_phase1=bool(rng.integers(4) > 0),
    )


def run_case(case: DifferentialCase, runner: str, backend: str):
    """One parallel run of the scenario (graph rebuilt deterministically)."""
    return ParallelTwoPhase(
        n_workers=case.n_workers,
        sync_interval=case.sync_interval,
        clustering_passes=case.clustering_passes,
        mode=case.mode,
        backend=backend,
        runner=runner,
        parallel_phase1=case.parallel_phase1,
    ).partition(
        case.build_graph(), case.k, alpha=case.alpha,
        chunk_size=case.chunk_size,
    )


def sequential_reference(case: DifferentialCase, backend: str):
    """The sequential pipeline on the same scenario."""
    return TwoPhasePartitioner(
        clustering_passes=case.clustering_passes,
        mode=case.mode,
        backend=backend,
    ).partition(
        case.build_graph(), case.k, alpha=case.alpha,
        chunk_size=case.chunk_size,
    )


def hdrf_baseline(case: DifferentialCase, backend: str):
    """The classic-HDRF baseline on the scenario's graph/k/alpha."""
    return HDRF(backend=backend).partition(
        case.build_graph(), case.k, alpha=case.alpha,
        chunk_size=case.chunk_size,
    )


def assert_full_state_equal(reference, other, label: str) -> None:
    """Byte-level equality of two runs' complete final state."""
    np.testing.assert_array_equal(
        reference.assignments, other.assignments, err_msg=label
    )
    np.testing.assert_array_equal(
        reference.state.replicas, other.state.replicas, err_msg=label
    )
    np.testing.assert_array_equal(
        reference.state.sizes, other.state.sizes, err_msg=label
    )
    assert reference.cost == other.cost, (
        f"{label}: cost counters diverged: {reference.cost} != {other.cost}"
    )
    for key in _CHECKED_EXTRAS:
        if key in reference.extras and key in other.extras:
            assert reference.extras[key] == other.extras[key], (
                f"{label}: extras[{key!r}] diverged: "
                f"{reference.extras[key]} != {other.extras[key]}"
            )


def assert_store_round_trip(result, edges, label: str) -> None:
    """Serving round-trip contract: write → mmap-reopen → every lookup
    bit-equal to the in-memory ``result``.

    Covers the full vertex sweep (replica rows, degrees, sizes, routing
    with and without a hint) and the full edge sweep (ownership of every
    stored edge, duplicate keys serving the first stream occurrence, a
    guaranteed-missing edge answering -1), plus scalar-vs-batched
    consistency on a sample and the CRC-32 sweep.
    """
    from repro.serving import LookupService, PartitionStore

    edges = np.asarray(edges)
    with tempfile.TemporaryDirectory(prefix="diff_store_") as tmp:
        store_dir = os.path.join(tmp, "store")
        PartitionStore.write(store_dir, result, edges)
        store = PartitionStore.open(store_dir)
        store.verify()
        svc = LookupService(store)

        dense = np.asarray(result.state.replicas, dtype=bool)
        sizes = np.asarray(result.state.sizes, dtype=np.int64)
        n = result.n_vertices
        ids = np.arange(n, dtype=np.int64)

        # Replica rows bit-equal through the mapped packed plane.
        np.testing.assert_array_equal(
            np.asarray(store.replicas), dense,
            err_msg=f"{label}: mapped replica matrix",
        )
        np.testing.assert_array_equal(
            store.sizes, sizes, err_msg=f"{label}: stored sizes"
        )
        np.testing.assert_array_equal(
            store.degrees,
            np.bincount(edges.reshape(-1), minlength=n),
            err_msg=f"{label}: stored degrees",
        )

        # Vertex routing: least-loaded replica (lowest id on ties), -1
        # for replica-free vertices; hint wins iff co-located.
        load = np.where(dense, sizes[np.newaxis, :], np.inf)
        expected = np.argmin(load, axis=1).astype(np.int64)
        expected[~dense.any(axis=1)] = -1
        routed = svc.vertex_partitions(ids)
        np.testing.assert_array_equal(
            routed, expected, err_msg=f"{label}: vertex routing"
        )
        hint = result.k - 1
        hinted = svc.vertex_partitions(ids, hint=hint)
        np.testing.assert_array_equal(
            hinted, np.where(dense[:, hint], hint, expected),
            err_msg=f"{label}: hinted vertex routing",
        )
        for v in ids[:: max(1, n // 17)]:
            assert svc.vertex_partitions(int(v)) == routed[v], (
                f"{label}: scalar vs batched routing at vertex {v}"
            )
            np.testing.assert_array_equal(
                svc.replica_set(int(v)), np.flatnonzero(dense[v]),
                err_msg=f"{label}: replica_set({v})",
            )

        # Edge ownership: the full sweep; duplicate (u, v) keys serve
        # the first stream occurrence's partition.
        keys = (edges[:, 0].astype(np.uint64) << np.uint64(32)) | (
            edges[:, 1].astype(np.uint64)
        )
        order = np.argsort(keys, kind="stable")
        first_pos = np.searchsorted(keys[order], keys, side="left")
        expected_edge = np.asarray(result.assignments)[order[first_pos]]
        got_edge = svc.edge_partition(edges[:, 0], edges[:, 1])
        np.testing.assert_array_equal(
            got_edge, expected_edge, err_msg=f"{label}: edge ownership"
        )
        u, v = int(edges[0, 0]), int(edges[0, 1])
        assert svc.edge_partition(u, v) == int(expected_edge[0]), (
            f"{label}: scalar vs batched edge lookup"
        )
        assert svc.edge_partition(n + 1, n + 2) == -1, (
            f"{label}: missing edge must answer -1"
        )


def _active_runners(runners, include_process):
    return tuple(r for r in runners if include_process or r != "process")


def _assert_nothing_leaked() -> None:
    """Shared-memory, socket and worker-process hygiene after a sweep."""
    leaked = sorted(live_shared_segments())
    assert not leaked, f"leaked shared-memory segments: {leaked}"
    conns = live_connections()
    assert not conns, f"leaked wire connections: {conns}"
    procs = live_worker_processes()
    assert not procs, f"leaked worker processes: {procs}"


def check_seed(
    seed: int,
    runners=RUNNERS,
    backends=None,
    include_process: bool = True,
) -> DifferentialCase:
    """Run the full differential matrix for one seed.

    Raises ``AssertionError`` carrying the reproducing seed on any
    divergence; returns the generated case on success.
    """
    case = make_case(seed)
    if backends is None:
        backends = available_backends()
    active_runners = _active_runners(runners, include_process)
    try:
        results = {
            (runner, backend): run_case(case, runner, backend)
            for runner in active_runners
            for backend in backends
        }
        # Contract 1+2: simulated == process, backends agree, per runner.
        sharded = [key for key in results if key[0] != "serial"]
        if sharded:
            ref_key = sharded[0]
            for key in sharded[1:]:
                assert_full_state_equal(
                    results[ref_key], results[key],
                    f"{ref_key} vs {key}",
                )
        # Contract 3: serial == the sequential pipeline, every backend.
        seq = sequential_reference(case, backends[0])
        for backend in backends:
            key = ("serial", backend)
            if key in results:
                assert_full_state_equal(
                    seq, results[key], f"sequential vs {key}"
                )
        # Contract 4: a single worker is never stale.
        if case.n_workers == 1 and sharded:
            assert_full_state_equal(
                seq, results[sharded[0]],
                f"sequential vs {sharded[0]} at n_workers=1",
            )
        # Contract 5: the HDRF baseline (kernel-registry dispatch)
        # agrees across backends.
        hdrf_ref = hdrf_baseline(case, backends[0])
        for backend in backends[1:]:
            assert_full_state_equal(
                hdrf_ref, hdrf_baseline(case, backend),
                f"HDRF baseline {backends[0]} vs {backend}",
            )
        # Contract 6: the serving round-trip — the sequential reference
        # persisted, mmap-reopened and queried is bit-equal throughout.
        assert_store_round_trip(
            seq, case.build_graph().edges, "store round-trip"
        )
        # Contract 7: nothing leaked — segments, sockets or workers.
        _assert_nothing_leaked()
    except AssertionError as exc:
        raise AssertionError(
            f"differential seed {seed} failed ({case!r}); reproduce with: "
            f"PYTHONPATH=src python tests/differential.py --seed {seed}\n{exc}"
        ) from exc
    return case


#: k values of the out-of-core tier: above 8 so a packed row spans more
#: than one byte, and mostly off byte boundaries so the tail bits of the
#: last byte are exercised (16 pins the exact-boundary case).
_HUGE_K = (9, 11, 13, 16, 17, 23, 31, 33)

#: Storage variants of the out-of-core tier, in sweep order.  The first
#: entry is the per-cell baseline every other variant must match.
_OOC_VARIANT_ORDER = (
    "dense/in-memory",
    "packed/in-memory",
    "packed/file-sync",
    "packed/file-prefetch",
    "dense/file-prefetch",
)

#: The variants each leg runs, where not all of them.  The process
#: runner only runs the endpoints of the sweep (its baseline plus the
#: fully out-of-core configuration): worker spawns dominate the tier's
#: cost, and the intermediate variants are already pinned against the
#: same baseline by the in-process runners.  The ``host:port`` leg runs
#: every file variant: its worker servers stream their own shards of the
#: file, and an in-memory stream cannot reach them.
_OOC_LEG_VARIANTS = {
    "process": ("dense/in-memory", "packed/file-prefetch"),
    HOST_PORT: tuple(name for name in _OOC_VARIANT_ORDER if "/file" in name),
}


def make_huge_case(seed: int) -> DifferentialCase:
    """Derive an out-of-core scenario from ``seed`` (pure function).

    Reuses :func:`make_case` for the graph/schedule dimensions, then
    redraws ``k`` from the packing-tail-stressing set and clamps the
    chunk size away from the degenerate per-edge sizes (a per-edge file
    stream is a different test than an out-of-core one).
    """
    base = make_case(seed)
    rng = np.random.default_rng(seed + 0x00C)
    return replace(
        base,
        k=_HUGE_K[int(rng.integers(len(_HUGE_K)))],
        chunk_size=(64, 181, 4096)[int(rng.integers(3))],
    )


def serve_one_session(version=None):
    """Start a one-session :func:`serve_worker` on a thread; returns its
    ``host:port`` address and the thread.  ``version`` overrides the wire
    version it advertises.  A handler's ``SystemExit`` ends the thread
    as it would end a server's process: its sockets closed."""
    bound = threading.Event()
    address = []

    def ready(host, port):
        address.append(f"{host}:{port}")
        bound.set()

    def serve():
        try:
            serve_worker(max_sessions=1, version=version, ready=ready)
        except SystemExit:
            pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert bound.wait(timeout=10), "a worker server never bound its port"
    return address[0], thread


@contextlib.contextmanager
def host_port_runner(n_workers, **runner_kw):
    """A :class:`ProcessRunner` on ``n_workers`` worker servers of
    :func:`serve_one_session`, one per shard.  Every server is joined on
    exit, so none is alive when a later process session forks."""
    servers = [serve_one_session() for _ in range(n_workers)]
    try:
        yield ProcessRunner(
            workers=[address for address, _ in servers], **runner_kw
        )
    finally:
        for _, thread in servers:
            thread.join(timeout=10)
        alive = [address for address, thread in servers if thread.is_alive()]
        assert not alive, f"worker servers outlived their session: {alive}"


def _run_out_of_core(case, runner, backend, packed, stream):
    """One run of the scenario over an explicit stream/state variant.

    Runner :data:`HOST_PORT` is the process runner on
    :func:`host_port_runner`'s worker servers."""
    with contextlib.ExitStack() as stack:
        if runner == HOST_PORT:
            runner = stack.enter_context(host_port_runner(case.n_workers))
        return ParallelTwoPhase(
            n_workers=case.n_workers,
            sync_interval=case.sync_interval,
            clustering_passes=case.clustering_passes,
            mode=case.mode,
            backend=backend,
            runner=runner,
            parallel_phase1=case.parallel_phase1,
            packed_state=packed,
        ).partition(
            stream, case.k, alpha=case.alpha, chunk_size=case.chunk_size
        )


def check_out_of_core_seed(
    seed: int,
    runners=RUNNERS,
    backends=None,
    include_process: bool = True,
    include_host_port: bool = True,
) -> DifferentialCase:
    """Run the huge-shape out-of-core differential tier for one seed.

    Within every runner/backend cell, all storage variants
    (``_OOC_VARIANT_ORDER``, or the leg's ``_OOC_LEG_VARIANTS``) must
    produce the byte-identical final state; across cells the base
    contract applies (backends agree, simulated == process == the
    ``host:port`` leg, which ``include_host_port`` adds, sequential
    packed-over-prefetch-file == sequential dense-in-memory).  Raises
    ``AssertionError`` carrying the reproducing seed on any divergence.
    """
    case = make_huge_case(seed)
    if backends is None:
        backends = available_backends()
    active_runners = _active_runners(runners, include_process)
    if include_host_port:
        active_runners += (HOST_PORT,)
    graph = case.build_graph()
    try:
        with tempfile.TemporaryDirectory(prefix="diff_ooc_") as tmp:
            path = os.path.join(tmp, "edges.bin")
            with EdgeListWriter(path) as writer:
                # Chunked, like an external-memory generator would write.
                for lo in range(0, graph.n_edges, 512):
                    writer.write_chunk(graph.edges[lo:lo + 512])

            def make_stream(storage: str):
                if storage == "in-memory":
                    return graph
                return FileEdgeStream(
                    path,
                    n_vertices=graph.n_vertices,
                    prefetch=(storage == "file-prefetch"),
                )

            baselines = {}
            for runner in active_runners:
                names = _OOC_LEG_VARIANTS.get(runner, _OOC_VARIANT_ORDER)
                for backend in backends:
                    baseline = None
                    for name in names:
                        state_kind, storage = name.split("/")
                        result = _run_out_of_core(
                            case, runner, backend,
                            state_kind == "packed", make_stream(storage),
                        )
                        if baseline is None:
                            baseline = result
                        else:
                            assert_full_state_equal(
                                baseline, result,
                                f"{runner}/{backend}: "
                                f"{names[0]} vs {name}",
                            )
                    baselines[(runner, backend)] = baseline
            # Cross-cell contracts on the baselines: backends agree
            # within each runner; simulated == process == host:port.
            sharded = [key for key in baselines if key[0] != "serial"]
            for key in sharded[1:]:
                assert_full_state_equal(
                    baselines[sharded[0]], baselines[key],
                    f"{sharded[0]} vs {key}",
                )
            serial = [key for key in baselines if key[0] == "serial"]
            for key in serial[1:]:
                assert_full_state_equal(
                    baselines[serial[0]], baselines[key],
                    f"{serial[0]} vs {key}",
                )
            # Sequential surface: packed state fed by the prefetching
            # file stream == dense state fed by the in-memory graph.
            seq_dense = TwoPhasePartitioner(
                clustering_passes=case.clustering_passes,
                mode=case.mode,
                backend=backends[0],
            ).partition(
                graph, case.k, alpha=case.alpha,
                chunk_size=case.chunk_size,
            )
            seq_packed = TwoPhasePartitioner(
                clustering_passes=case.clustering_passes,
                mode=case.mode,
                backend=backends[0],
                packed_state=True,
            ).partition(
                make_stream("file-prefetch"), case.k, alpha=case.alpha,
                chunk_size=case.chunk_size,
            )
            assert_full_state_equal(
                seq_dense, seq_packed,
                "sequential dense/in-memory vs "
                "sequential packed/file-prefetch",
            )
            # Serving round-trip at the huge-shape k (mostly off byte
            # boundaries): the packed-state result exercises the
            # verbatim-plane store path, the dense result the packbits
            # path, and both must serve bit-equal lookups.
            assert_store_round_trip(
                seq_packed, graph.edges, "store round-trip (packed state)"
            )
            assert_store_round_trip(
                seq_dense, graph.edges, "store round-trip (dense state)"
            )
            _assert_nothing_leaked()
    except AssertionError as exc:
        flag = " --host-port" if HOST_PORT in active_runners else ""
        raise AssertionError(
            f"out-of-core differential seed {seed} failed ({case!r}); "
            f"reproduce with: PYTHONPATH=src python tests/differential.py "
            f"--out-of-core --seed {seed}{flag}\n{exc}"
        ) from exc
    return case


def main(argv=None) -> int:  # pragma: no cover - manual reproduction tool
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--no-process", action="store_true",
        help="skip the multiprocessing runner (faster triage)",
    )
    parser.add_argument(
        "--out-of-core", action="store_true",
        help="run the huge-shape out-of-core tier instead of the base "
        "matrix (packed state, file streams, prefetching)",
    )
    parser.add_argument(
        "--host-port", action="store_true",
        help="with --out-of-core, add the leg on the process runner's "
        "host:port workers (worker servers on threads of this process); "
        "CI always sweeps it, the manual tool defaults it off for faster "
        "triage",
    )
    args = parser.parse_args(argv)
    if args.host_port and not args.out_of_core:
        parser.error("--host-port applies to --out-of-core")
    if args.out_of_core:
        case = check_out_of_core_seed(
            args.seed,
            include_process=not args.no_process,
            include_host_port=args.host_port,
        )
    else:
        case = check_seed(args.seed, include_process=not args.no_process)
    print(f"seed {args.seed} OK: {case}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
