"""Kernel-backend + parallel-runner benchmarks -> BENCH_kernels.json
and BENCH_parallel.json.

Runs three kernel-routed pipelines with every registered backend on a
synthetic R-MAT graph (Graph500 generator, >= 1M edges at the default
scale), verifies the backends produce bit-identical partitionings, and
records per-phase wall times and edges/sec so the perf trajectory of the
kernel layer is tracked from PR to PR:

- ``2psl``     — sequential 2PS-L (``TwoPhasePartitioner``)
- ``2pshdrf``  — sequential 2PS-HDRF (``mode="hdrf"``)
- ``parallel`` — sharded ``ParallelTwoPhase`` (kernel-dispatched windows)

It then runs the **parallel wall-clock** section: the sharded path with
``runner="process"`` (true ``multiprocessing`` workers over shared-memory
``PartitionState`` views) against the sequential numpy Phase-2 time, into
``BENCH_parallel.json``.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [--scale 16] [--k 32] \
        [--out BENCH_kernels.json] [--smoke]

Exit status is non-zero unless every gate passes:

- speedup gates (the ``numpy`` backend, the fallback on hosts without a
  C compiler, vs the ``python`` reference):
  ``2psl`` degree and prepartition passes >= 5x, the 2PS-L remaining
  pass (``partitioning`` phase) >= 1.8x — the gate of its cell-level
  conflict batching — and the 2PS-HDRF remaining pass >= 5x — the
  acceptance gate of the HDRF scalar engine;
- correctness gates: all backends bit-identical per pipeline,
  ``ParallelTwoPhase(n_workers=1)`` bit-exact with sequential 2PS-L, the
  process runner bit-identical with the simulated runner under the same
  sync schedule (assignments, replicas, sizes, cost counters), and no
  shared-memory segment leaks after the process-runner runs;
- parallel wall-clock gate: *measured* Phase-2 speedup of the process
  runner at ``--n-workers`` (default 4) >= 1.8x sequential numpy.  The
  speedup gate is enforced only when the machine exposes at least
  ``n_workers`` usable CPUs — a 4-way wall-clock speedup cannot exist on
  fewer cores, so constrained hosts record the measurement with the gate
  marked ``skipped`` (the correctness gates above always apply).  This
  and the other wall-clock sections below gate the ``numpy`` backend,
  the configuration their gates were defined on, and record the same
  ratios for ``c`` ungated (its sequential side is an order of magnitude
  faster);
- phase-1 wall-clock gate (``phase1_wallclock`` section): *measured*
  Phase-1 (degree + clustering) speedup of the sharded Phase 1
  (``parallel_phase1=True``) through the process runner >= 1.5x at
  ``--n-workers``, with the same CPU-count skip rule, plus the
  bit-exactness gates (``n_workers=1`` == sequential, process ==
  simulated under the same schedule);
- barrier-bytes gate (always enforced): the dirty-row delta barriers
  must broadcast strictly fewer replica-matrix cells than the full
  re-broadcast they replaced (``barrier_bytes`` section);
- distributed-runner gates (``distributed`` section of
  ``BENCH_parallel.json``): the socket-protocol runner over loopback
  workers must stay bit-identical with the simulated runner at
  ``--n-workers`` and with sequential 2PS-L at one worker, ship
  strictly fewer replica-plane bytes per barrier than a full-state
  re-broadcast, and leak no socket, worker process, or shared-memory
  segment (all always enforced); its measured Phase-2 wall-clock vs
  sequential numpy is enforced only on hosts with >= 2 usable CPUs
  and recorded-but-skipped elsewhere;
- out-of-core gates (``BENCH_storage.json``): the graph is generated
  straight to disk (:func:`repro.graph.generators.rmat_edge_file`, never
  holding the edge array in RAM) and partitioned from the file.  The
  bit-packed replica state must shrink peak state bytes >= 6x vs the
  dense bool matrix at the default ``k=32`` (always enforced), packed
  and dense — and prefetching and synchronous file streams, and the
  process runner over both — must stay bit-identical (always enforced),
  the packed run's ``partitioning`` phase may take at most 1.3x the
  dense run's (2.0x at smoke scale; always enforced — same host, back
  to back), and the double-buffered prefetching stream must beat the
  synchronous stream's wall-clock.  The prefetch-overlap gate needs a
  second CPU for the reader thread to overlap with compute, so
  single-CPU hosts record-but-skip it, like the parallel wall-clock
  gates;
- c gates (``c`` section of ``BENCH_kernels.json``): the compiled ``c``
  backend against ``numpy``, from the rows the pipeline loop already
  ran — 2PS-L total, 2PS-L clustering, the 2PS-L cluster mapping, the
  2PS-L remaining pass and the 2PS-HDRF remaining pass — plus the 2PS-L
  remaining pass over hub-heavy R-MAT (>= 2x), the stream the per-edge
  loops exist for, and the Phase-2 delta barrier op on dense and packed
  state (``2**scale`` rows, two views, 41% of rows dirty, the traffic of
  a two-worker run), bit-identical with numpy.  The gate
  **records-but-skips** when ``c`` is unavailable (no working C
  compiler), so compiler-free environments keep an authoritative BENCH
  file without a red gate;
- HDRF-baseline gate (``hdrf_baseline`` section of
  ``BENCH_kernels.json``): the kernel-routed HDRF baseline's ``numpy``
  backend must reach >= 3x the per-edge ``python`` reference on the
  partitioning pass of the >= 1M-edge R-MAT, bit-identical with it.
  Its ``c_leg`` must reach >= 15x ``numpy``
  (3x at smoke scale), bit-identical too, and records-but-skips when
  ``c`` is unavailable — same rule as the c section;
- serving gates (``BENCH_serving.json``): the main run is persisted as a
  :class:`~repro.serving.store.PartitionStore`, reopened memory-mapped,
  and a seeded closed-loop load generator drives the
  :class:`~repro.serving.service.LookupService` (hot-set-skewed vertex
  routing, edge lookups with misses).  Every sampled lookup must be
  bit-exact with the in-memory result and the CRC-32 sweep must pass
  (always enforced); the batched-numpy path must reach >= 10x the
  scalar path's lookups/s (always enforced — a same-host ratio); and
  absolute lookups/s floors on both paths are enforced only on hosts
  with >= 2 usable CPUs, recorded-but-skipped elsewhere, like the
  parallel wall-clock gates.

``--smoke`` runs the same gates at a reduced scale (65k edges) with
proportionally relaxed speedup thresholds, so CI can check the kernel
layer in seconds without the full 1M-edge run.  ``--record-only``
(the nightly trend-tracking mode) records every gate outcome in the
BENCH payloads but only correctness failures affect the exit status.
The ``BENCH_*.json`` / ``BENCH_*_smoke.json`` files at the repo root
are **committed artifacts** — the authoritative per-PR snapshots of
these payloads.  After touching the kernel or runner layers, regenerate
them (full tier plus ``--smoke``) and commit the diff alongside the
code change so the trend line stays truthful.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import time

import numpy as np

from repro.core import ParallelTwoPhase, TwoPhasePartitioner
from repro.core.runners import live_shared_segments
from repro.graph.generators import rmat_edge_file, rmat_graph
from repro.kernels import DEFAULT_BACKEND, available_backends, get_backend
from repro.partitioning.state import PartitionState, _replica_storage
from repro.streaming import FileEdgeStream, InMemoryEdgeStream

#: Speedup gates per pipeline: {config: {phase: threshold}}.  The smoke
#: thresholds are lower because vectorization amortizes less at 65k edges.
#: The 2PS-L ``partitioning`` phase is the remaining pass; its thresholds
#: sit at about 80% of the measured ratio (2.3-2.5x at scale 16,
#: 1.3-1.6x at scale 12, on a 2-vCPU Xeon host).
FULL_GATES = {
    "2psl": {"degree": 5.0, "prepartition": 5.0, "partitioning": 1.8},
    "2pshdrf": {"partitioning": 5.0},
}
SMOKE_GATES = {
    "2psl": {"degree": 3.0, "prepartition": 3.0, "partitioning": 1.2},
    "2pshdrf": {"partitioning": 2.0},
}

#: Measured Phase-2 speedup the process runner must reach at --n-workers
#: (ISSUE 3 acceptance gate).  The smoke threshold only asserts the
#: machinery is not pathologically slow: at 65k edges the per-window
#: compute is too small to amortize pool dispatch.
PARALLEL_GATE = 1.8
PARALLEL_SMOKE_GATE = 0.2

#: Measured Phase-1 (degree + clustering) speedup of the sharded Phase 1
#: through the process runner (ISSUE 4 acceptance gate; enforced only on
#: hosts with >= --n-workers usable CPUs, like the Phase-2 gate).
PHASE1_GATE = 1.5
PHASE1_SMOKE_GATE = 0.15

#: Measured Phase-2 speedup of the distributed (socket-protocol) runner
#: over loopback workers vs sequential numpy (ISSUE 10 acceptance gate;
#: enforced only on hosts with >= 2 usable CPUs — below that the wire
#: round-trips have no spare core to overlap with).  The bar is modest:
#: the section's point is that the wire protocol does not erase the
#: sharded speedup, not that sockets beat shared memory.  The smoke
#: threshold only asserts the machinery is not pathologically slow.
DISTRIBUTED_GATE = 1.05
DISTRIBUTED_SMOKE_GATE = 0.02

#: c-vs-numpy speedups of the compiled backend, read from the pipeline
#: rows ({config: {phase: threshold}}; ``total`` is the whole run).  The
#: full thresholds sit at about 80% of the lowest full-scale reading on
#: a 2-vCPU Xeon host (12.9x total, 38x clustering, 12.3x and 16x on the
#: 2PS-L and 2PS-HDRF remaining passes at k=32, of two readings; 3.75x
#: on the cluster mapping, of readings of 7.44x, 4.20x and 3.75x: the
#: numpy sort both backends share takes a good part of c's 0.002-0.003 s),
#: and no lower than 10x (total and clustering), 5x (2PS-L remaining)
#: and 3x (2PS-HDRF remaining).  The smoke thresholds are relaxed: at
#: 65k edges a c pass lasts a few milliseconds, and the mapping of
#: about a thousand clusters well under one, where timer noise weighs
#: more.
C_GATES = {
    "2psl": {
        "total": 10.0, "clustering": 30.0, "mapping": 3.0,
        "partitioning": 9.5,
    },
    "2pshdrf": {"partitioning": 13.0},
}
C_SMOKE_GATES = {
    "2psl": {
        "total": 5.0, "clustering": 10.0, "mapping": 1.5,
        "partitioning": 5.0,
    },
    "2pshdrf": {"partitioning": 5.0},
}

#: c-vs-numpy speedups of the Phase-2 delta barrier op
#: (``merge_phase2_deltas``) per replica layout, on ``2**scale`` rows at
#: k=32 with two views, best of several barriers on fresh fixtures.  The
#: full thresholds sit at about 80% of the lowest of three full-scale
#: readings (dense 4.30x, 2.95x and 4.55x; packed 5.83x, 7.13x and
#: 5.15x); the smoke ones at about half of two smoke readings
#: (2.6-3.2x), since a 4,096-row barrier lasts well under a millisecond.
C_BARRIER_GATES = {"dense": 2.3, "packed": 4.2}
C_BARRIER_SMOKE_GATES = {"dense": 1.5, "packed": 1.5}

#: Union share of rows the barrier row's two views mark dirty: a traced
#: two-worker run (``sharded-2w``, seed 1) merged 40.8% of its rows per
#: barrier.
BARRIER_DIRTY_SHARE = 0.41

#: c-vs-numpy speedup of the 2PS-L remaining pass on hub-heavy R-MAT,
#: where numpy's conflict batching degrades toward its serial loop (it
#: read 28x at full scale).
C_HUB_GATE = 2.0
C_HUB_SMOKE_GATE = 2.0

#: numpy-vs-python speedup of the HDRF baseline pass: the scalar engine
#: must carry the per-edge reference baseline too.  The smoke threshold
#: is relaxed for the shorter, noisier 65k-edge run.
HDRF_BASELINE_GATE = 3.0
HDRF_BASELINE_SMOKE_GATE = 1.5

#: c-vs-numpy speedup of the HDRF baseline pass (its ``c_leg``): about
#: 80% of the lower of two full-scale readings (19x and 27x), and 3x at
#: smoke scale.
C_HDRF_BASELINE_GATE = 15.0
C_HDRF_BASELINE_SMOKE_GATE = 3.0

#: Peak-state-bytes reduction the bit-packed replica matrix must reach
#: against the dense bool matrix at the default k=32 (ISSUE 7 acceptance
#: gate; always enforced — the ratio is a storage-layout fact, not a
#: wall-clock measurement, so host throughput cannot hide a regression).
STORAGE_REDUCTION_GATE = 6.0

#: Ceiling on the packed/dense ``partitioning`` phase-seconds ratio of the
#: file-stream runs: the serial per-edge loops address the raw storage
#: plane in both layouts, so bit-packing may not slow the remaining pass
#: down (ROADMAP 2(a) gate; always enforced — both runs share the host,
#: back to back).  Smoke scale is looser: its pass lasts a few tens of
#: milliseconds, where timer noise weighs more.
PACKED_PHASE_GATE = 1.3
PACKED_PHASE_SMOKE_GATE = 2.0

#: Wall-clock gain the double-buffered prefetching file stream must show
#: over the synchronous stream (reader thread overlaps decode + I/O with
#: kernel compute).  Needs a second CPU to overlap anything, so the gate
#: records-but-skips on single-CPU hosts.  The smoke threshold only
#: asserts prefetching is not pathologically slow: at 65k edges the
#: per-chunk compute is too small to hide behind.
PREFETCH_GATE = 1.02
PREFETCH_SMOKE_GATE = 0.3

#: Batched-over-scalar throughput ratio the lookup service must reach
#: (ISSUE 9 acceptance gate; always enforced — both paths run on the
#: same host back to back, so the ratio is host-independent).  The
#: vectorized row-gather path beats the per-call python loop by ~two
#: orders of magnitude; 10x leaves generous headroom.
SERVING_BATCH_GATE = 10.0
SERVING_BATCH_SMOKE_GATE = 10.0

#: Absolute lookup-throughput floors (lookups/s) of the closed-loop load
#: generator.  Wall-clock floors are host-dependent, so — like the
#: parallel wall-clock gates — they are enforced only on hosts with
#: >= 2 usable CPUs and record-but-skip elsewhere.  Floors sit ~4x
#: below the measured container numbers, so they catch an
#: order-of-magnitude serving regression without flaking on slow CI.
SERVING_SCALAR_QPS_GATE = 20_000.0
SERVING_SCALAR_QPS_SMOKE_GATE = 10_000.0
SERVING_BATCHED_QPS_GATE = 1_000_000.0
SERVING_BATCHED_QPS_SMOKE_GATE = 400_000.0

SMOKE_SCALE = 12


def usable_cpus() -> int:
    """CPUs this process may schedule on (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_config(partitioner_factory, stream, k, alpha, repeats) -> dict:
    """Best of ``repeats`` full pipeline runs (wall-clock noise on shared
    machines easily exceeds the phase deltas being measured); returns the
    fastest run's timings plus its result for the cross-backend equality
    check."""
    best = None
    for _ in range(repeats):
        partitioner = partitioner_factory()
        start = time.perf_counter()
        result = partitioner.partition(stream, k, alpha=alpha)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[0]:
            best = (elapsed, result)
    total, result = best
    m = result.n_edges
    return {
        "result": result,
        "row": {
            "total_seconds": round(total, 4),
            "total_edges_per_s": round(m / total),
            "phase_seconds": {
                name: round(seconds, 6)
                for name, seconds in result.timer.totals.items()
            },
            "phase_edges_per_s": {
                name: round(m / seconds) if seconds > 0 else None
                for name, seconds in result.timer.totals.items()
            },
            "replication_factor": round(result.replication_factor, 4),
            "measured_alpha": round(result.measured_alpha, 4),
        },
    }


def assert_bit_exact(reference, other, label: str) -> None:
    if not (
        np.array_equal(reference.assignments, other.assignments)
        and np.array_equal(reference.state.replicas, other.state.replicas)
        and np.array_equal(reference.state.sizes, other.state.sizes)
        and reference.cost == other.cost
    ):
        raise SystemExit(f"equality gate failed: {label}")


def phase2_seconds(result) -> float:
    """Wall seconds of the two Phase-2 streaming passes of a run."""
    return result.timer.totals.get("prepartition", 0.0) + (
        result.timer.totals.get("partitioning", 0.0)
    )


def phase1_seconds(result) -> float:
    """Wall seconds of the Phase-1 streaming passes (degree + clustering)."""
    return result.timer.totals.get("degree", 0.0) + (
        result.timer.totals.get("clustering", 0.0)
    )


def measure_speedup_gate(
    label, seconds_fn, threshold, make_parallel, stream, args,
    sequential_result, repeats, cpus,
):
    """Shared gate machinery of the measured wall-clock sections.

    Runs the correctness pins (``ProcessRunner(n_workers=1)`` bit-exact
    with the sequential pipeline, ``ProcessRunner`` bit-identical with
    ``SimulatedRunner`` at the same schedule, zero leaked segments — all
    always enforced), keeps the best of ``repeats`` process runs by
    ``seconds_fn``, and applies the speedup threshold under the CPU-count
    skip rule.  Returns ``(best_result, gate_dict, seq_s, par_s)``.
    """
    simulated = make_parallel(args.n_workers, "simulated").partition(
        stream, args.k, alpha=args.alpha
    )
    single = make_parallel(1, "process").partition(
        stream, args.k, alpha=args.alpha
    )
    assert_bit_exact(
        sequential_result,
        single,
        f"{label}: ProcessRunner(n_workers=1) vs sequential 2PS-L",
    )
    best = None
    for _ in range(repeats):
        result = make_parallel(args.n_workers, "process").partition(
            stream, args.k, alpha=args.alpha
        )
        assert_bit_exact(
            simulated,
            result,
            f"{label}: ProcessRunner vs SimulatedRunner at "
            f"{args.n_workers} workers",
        )
        if best is None or seconds_fn(result) < seconds_fn(best):
            best = result
    leaked = sorted(live_shared_segments())
    if leaked:
        raise SystemExit(f"leaked shared-memory segments: {leaked}")
    seq_s = seconds_fn(sequential_result)
    par_s = seconds_fn(best)
    speedup = seq_s / par_s if par_s > 0 else 0.0
    enforced = cpus >= args.n_workers
    passed = speedup >= threshold if enforced else None
    gate = {
        "threshold": threshold,
        "speedup": round(speedup, 3),
        "enforced": enforced,
        "pass": passed,
        "skipped_reason": (
            None
            if enforced
            else f"{cpus} usable CPU(s) < n_workers={args.n_workers}: "
            "a wall-clock speedup gate is unmeasurable on this host"
        ),
    }
    state = "pass" if passed else ("SKIPPED" if passed is None else "FAIL")
    print(
        f"  {label}: {seq_s:.3f}s sequential -> {par_s:.3f}s at "
        f"{args.n_workers} workers ({speedup:.2f}x, gate {threshold}x: "
        f"{state}, {cpus} cpus)"
    )
    return best, gate, seq_s, par_s


def c_ratio(label, seconds_fn, make_c, stream, args, c_sequential, reference,
            repeats):
    """The ungated ``c`` twin of a wall-clock gate.

    Best of ``repeats`` runs of ``make_c()``, each bit-identical with
    ``reference`` (the gated numpy run of the same configuration), timed
    against the sequential ``c`` run.  Returns the section's record.
    """
    best = None
    for _ in range(repeats):
        result = make_c().partition(stream, args.k, alpha=args.alpha)
        assert_bit_exact(reference, result, f"{label}: c vs numpy")
        if best is None or seconds_fn(result) < seconds_fn(best):
            best = result
    seq_s = seconds_fn(c_sequential)
    par_s = seconds_fn(best)
    speedup = seq_s / par_s if par_s > 0 else 0.0
    print(
        f"  {label}, c (recorded, ungated): {seq_s:.3f}s sequential -> "
        f"{par_s:.3f}s ({speedup:.2f}x)"
    )
    return {
        "available": True,
        "sequential_seconds": round(seq_s, 4),
        "parallel_seconds": round(par_s, 4),
        "speedup": round(speedup, 3),
        "bit_exact_with_numpy": True,
    }


def c_unavailable() -> str | None:
    """Why the ``c`` backend is unavailable here (``None`` when it is)."""
    from repro.kernels import missing_backends

    if "c" in available_backends():
        return None
    return missing_backends().get("c", "c is not registered")


def skipped_gate(threshold, reason: str) -> dict:
    return {
        "threshold": threshold,
        "speedup": None,
        "enforced": False,
        "pass": None,
        "skipped_reason": f"c unavailable on this host: {reason}",
    }


def barrier_fixture(n: int, k: int, packed: bool, seed: int):
    """The global state and two worker views of one Phase-2 barrier,
    built afresh from ``seed`` on every call.

    All three start from the same random replica bits and sizes; each
    view then writes one replica bit into, and marks dirty, a random
    share of the rows chosen so that :data:`BARRIER_DIRTY_SHARE` of them
    are dirty in some view.  View sizes run ahead of the global ones, as
    after a window.
    """
    rng = np.random.default_rng(seed)
    rows, cols = np.nonzero(rng.random((n, k)) < 0.05)
    sizes = rng.integers(0, 16 * n // k, size=k)
    share = 1.0 - (1.0 - BARRIER_DIRTY_SHARE) ** 0.5
    states = []
    for view in (False, True, True):
        st = PartitionState(n, k, 16 * n, packed=packed, track_dirty=view)
        st.replicas[rows, cols] = True
        st.sizes[:] = sizes
        if view:
            dirty = np.flatnonzero(rng.random(n) < share)
            st.replicas[dirty, rng.integers(0, k, size=dirty.size)] = True
            st.dirty[dirty] = True
            st.sizes += rng.integers(0, 2 * dirty.size // k + 1, size=k)
        states.append(st)
    return states[0], states[1:]


def state_bytes(states) -> list[bytes]:
    """Replica plane, sizes and dirty bitmap of each state, as bytes."""
    return [
        part
        for st in states
        for part in (
            _replica_storage(st.replicas).tobytes(),
            st.sizes.tobytes(),
            b"" if st.dirty is None else st.dirty.tobytes(),
        )
    ]


def time_barrier(backend: str, fixture, repeats: int):
    """Best of ``repeats`` barriers, each on a fresh
    ``barrier_fixture(*fixture)``; returns ``(seconds, rows, state,
    views)`` of the fastest."""
    kernels = get_backend(backend)
    best = None
    for _ in range(repeats):
        state, views = barrier_fixture(*fixture)
        start = time.perf_counter()
        rows = kernels.merge_phase2_deltas(state, views)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[0]:
            best = (elapsed, rows, state, views)
    return best


def run_barrier_rows(args, scale: int, smoke: bool) -> tuple[dict, dict, bool]:
    """The Phase-2 barrier op, c against numpy, dense and packed.

    Both backends merge fresh builds of one fixture (see
    :func:`barrier_fixture`); their results must be byte-identical.
    Returns ``(record, gates, ok)``.
    """
    thresholds = C_BARRIER_SMOKE_GATES if smoke else C_BARRIER_GATES
    n = 1 << scale
    repeats = 3 if smoke else 7
    record = {
        "n_rows": n, "k": args.k, "views": 2,
        "dirty_share": BARRIER_DIRTY_SHARE, "repeats": repeats,
    }
    gates = {}
    ok = True
    for layout, threshold in thresholds.items():
        fixture = (n, args.k, layout == "packed", args.seed)
        runs = {b: time_barrier(b, fixture, repeats) for b in ("numpy", "c")}
        numpy_run, c_run = runs["numpy"], runs["c"]
        if numpy_run[1] != c_run[1] or state_bytes(
            [numpy_run[2], *numpy_run[3]]
        ) != state_bytes([c_run[2], *c_run[3]]):
            raise SystemExit(
                f"equality gate failed: {layout} barrier, c vs numpy"
            )
        speedup = numpy_run[0] / c_run[0] if c_run[0] > 0 else 0.0
        passed = speedup >= threshold
        ok = ok and passed
        record[layout] = {
            "rows_merged": int(c_run[1]),
            "numpy_seconds": round(numpy_run[0], 6),
            "c_seconds": round(c_run[0], 6),
        }
        gates[f"phase2_barrier.{layout}"] = {
            "threshold": threshold,
            "speedup": round(speedup, 2),
            "enforced": True,
            "pass": passed,
            "skipped_reason": None,
        }
        print(
            f"  c phase-2 barrier ({layout}, {int(c_run[1]):,} of {n:,} "
            f"rows): {numpy_run[0] * 1e3:.3f} ms numpy -> "
            f"{c_run[0] * 1e3:.3f} ms c ({speedup:.1f}x, gate "
            f"{threshold}x: {'pass' if passed else 'FAIL'})"
        )
    return record, gates, ok


def run_c_section(args, scale: int, smoke: bool, configs: dict) -> tuple[dict, bool]:
    """The gated ``c`` section of ``BENCH_kernels.json``.

    Reads the c-vs-numpy ratios of the pipeline rows in ``configs`` (the
    ``payload_configs`` of the main loop) against ``C_GATES``, then times
    the 2PS-L remaining pass over hub-heavy R-MAT (skewed quadrant mass:
    hubs collide in nearly every block, so numpy's conflict batching
    degrades toward its serial loop) for both backends, best of
    ``repeats``, bit-identical, and the Phase-2 barrier op
    (:func:`run_barrier_rows`).  When ``c`` is unavailable the section
    records the reason and every gate is marked skipped (``pass: null``),
    like the CPU-count rule of the wall-clock gates.  Returns
    ``(section, ok)``.
    """
    gates = C_SMOKE_GATES if smoke else C_GATES
    hub_threshold = C_HUB_SMOKE_GATE if smoke else C_HUB_GATE
    section = {
        "benchmark": "compiled c kernels vs numpy (pipeline rows, plus "
        "the 2PS-L remaining pass on hub-heavy R-MAT)",
        "hub_heavy_graph": {
            "generator": "rmat-hub-heavy",
            "scale": scale,
            "edge_factor": args.edge_factor,
            "a": 0.7, "b": 0.12, "c": 0.12,
            "seed": args.seed,
        },
        "k": args.k,
        "alpha": args.alpha,
    }
    reason = c_unavailable()
    if reason is not None:
        # Checked before the graph exists: no point generating a
        # million-edge R-MAT just to record a skipped gate.
        section["available"] = False
        section["reason"] = reason
        section["gates"] = {
            f"{name}.{phase}": skipped_gate(threshold, reason)
            for name, phases in gates.items()
            for phase, threshold in phases.items()
        }
        section["gates"]["hub_heavy.partitioning"] = skipped_gate(
            hub_threshold, reason
        )
        barrier_gates = C_BARRIER_SMOKE_GATES if smoke else C_BARRIER_GATES
        for layout, threshold in barrier_gates.items():
            section["gates"][f"phase2_barrier.{layout}"] = skipped_gate(
                threshold, reason
            )
        print(f"  c section: SKIPPED (recorded; {reason})")
        return section, True

    def seconds(row, phase):
        return row["total_seconds"] if phase == "total" else (
            row["phase_seconds"][phase]
        )

    section["available"] = True
    section["gates"] = {}
    ok = True
    for name, phases in gates.items():
        rows = configs[name]["backends"]
        for phase, threshold in phases.items():
            numpy_s = seconds(rows["numpy"], phase)
            c_s = seconds(rows["c"], phase)
            speedup = numpy_s / c_s if c_s > 0 else 0.0
            passed = speedup >= threshold
            ok = ok and passed
            section["gates"][f"{name}.{phase}"] = {
                "threshold": threshold,
                "speedup": round(speedup, 2),
                "enforced": True,
                "pass": passed,
                "skipped_reason": None,
            }
            print(
                f"  c {name}.{phase}: {numpy_s:.3f}s numpy -> {c_s:.3f}s c "
                f"({speedup:.1f}x, gate {threshold}x: "
                f"{'pass' if passed else 'FAIL'})"
            )
    graph = rmat_graph(
        scale, edge_factor=args.edge_factor, a=0.7, b=0.12, c=0.12,
        seed=args.seed,
    )
    section["hub_heavy_graph"]["n_vertices"] = graph.n_vertices
    section["hub_heavy_graph"]["n_edges"] = graph.n_edges
    repeats = 1 if smoke else args.repeats
    stream = InMemoryEdgeStream(graph)
    runs = {
        backend: run_config(
            lambda backend=backend: TwoPhasePartitioner(backend=backend),
            stream, args.k, args.alpha, repeats,
        )
        for backend in ("numpy", "c")
    }
    assert_bit_exact(
        runs["numpy"]["result"], runs["c"]["result"],
        "c section: c vs numpy on hub-heavy R-MAT",
    )
    numpy_s = runs["numpy"]["row"]["phase_seconds"]["partitioning"]
    c_s = runs["c"]["row"]["phase_seconds"]["partitioning"]
    speedup = numpy_s / c_s if c_s > 0 else 0.0
    passed = speedup >= hub_threshold
    section["hub_heavy_backends"] = {b: run["row"] for b, run in runs.items()}
    section["bit_exact_with_numpy"] = True
    section["gates"]["hub_heavy.partitioning"] = {
        "threshold": hub_threshold,
        "speedup": round(speedup, 2),
        "enforced": True,
        "pass": passed,
        "skipped_reason": None,
    }
    print(
        f"  c remaining pass (hub-heavy): {numpy_s:.3f}s numpy -> "
        f"{c_s:.3f}s c ({speedup:.1f}x, gate {hub_threshold}x: "
        f"{'pass' if passed else 'FAIL'})"
    )
    section["phase2_barrier"], barrier_gates, barrier_ok = run_barrier_rows(
        args, scale, smoke
    )
    section["gates"].update(barrier_gates)
    return section, ok and passed and barrier_ok


def run_hdrf_baseline_section(
    args, graph, stream, smoke: bool
) -> tuple[dict, bool]:
    """The gated ``hdrf_baseline`` section of ``BENCH_kernels.json``.

    Runs the kernel-routed HDRF baseline (``repro.baselines.HDRF``) on
    the main R-MAT stream with the ``python`` per-edge reference and the
    ``numpy`` backend's scalar engine, requires bit-identical results
    (including the simulated cost counters) and >= ``HDRF_BASELINE_GATE``x
    on the partitioning pass.  The ``c_leg`` must be bit-identical too
    and reach >= ``C_HDRF_BASELINE_GATE``x ``numpy``; it records-but-skips
    when ``c`` is unavailable, like the c section.  Returns
    ``(section, ok)``.
    """
    from repro.baselines import HDRF

    threshold = HDRF_BASELINE_SMOKE_GATE if smoke else HDRF_BASELINE_GATE
    c_threshold = C_HDRF_BASELINE_SMOKE_GATE if smoke else C_HDRF_BASELINE_GATE
    repeats = 1 if smoke else args.repeats
    reason = c_unavailable()
    legs = ["python", "numpy"] + (["c"] if reason is None else [])
    runs = {
        backend: run_config(
            lambda backend=backend: HDRF(backend=backend),
            stream, args.k, args.alpha, repeats,
        )
        for backend in legs
    }
    for backend in legs[1:]:
        assert_bit_exact(
            runs["python"]["result"], runs[backend]["result"],
            f"hdrf_baseline: backend {backend!r} vs python reference",
        )
    seconds = {
        b: runs[b]["row"]["phase_seconds"]["partitioning"] for b in legs
    }
    python_s, numpy_s = seconds["python"], seconds["numpy"]
    speedup = python_s / numpy_s if numpy_s > 0 else 0.0
    passed = speedup >= threshold
    section = {
        "benchmark": "HDRF baseline vs per-edge reference "
        "(kernel-routed, scalar engine)",
        "k": args.k,
        "alpha": args.alpha,
        "backends": {b: run["row"] for b, run in runs.items()},
        "partitioning_pass_seconds": {b: round(t, 6) for b, t in seconds.items()},
        "bit_exact_with_python": True,
        "gate": {
            "threshold": threshold,
            "speedup": round(speedup, 2),
            "enforced": True,
            "pass": passed,
            "skipped_reason": None,
        },
    }
    if reason is None:
        c_s = seconds["c"]
        c_speedup = numpy_s / c_s if c_s > 0 else 0.0
        c_passed = c_speedup >= c_threshold
        section["c_leg"] = {
            "available": True,
            "speedup_vs_python": round(python_s / c_s if c_s > 0 else 0.0, 2),
            "bit_exact_with_python": True,
            "gate": {
                "threshold": c_threshold,
                "speedup": round(c_speedup, 2),
                "enforced": True,
                "pass": c_passed,
                "skipped_reason": None,
            },
        }
        c_note = f"c {c_s:.3f}s ({c_speedup:.1f}x numpy, gate {c_threshold}x: "
        c_note += "pass)" if c_passed else "FAIL)"
    else:
        c_passed = True
        section["c_leg"] = {
            "available": False,
            "gate": skipped_gate(c_threshold, reason),
        }
        c_note = "c leg skipped"
    print(
        f"  hdrf baseline pass: {python_s:.3f}s python -> {numpy_s:.3f}s "
        f"numpy ({speedup:.2f}x, gate {threshold}x: "
        f"{'pass' if passed else 'FAIL'}); {c_note}"
    )
    return section, passed and c_passed


def run_distributed_section(
    stream, args, sequential_result, make_parallel, smoke: bool,
    cpus: int, repeats: int,
) -> tuple[dict, bool]:
    """The gated ``distributed`` section of ``BENCH_parallel.json``.

    Runs the socket-protocol runner (loopback workers, the same
    sync-window schedule) and checks, always enforced:

    - ``DistributedRunner(n_workers=1)`` bit-exact with the sequential
      pipeline and ``DistributedRunner`` bit-identical with
      ``SimulatedRunner`` at ``--n-workers`` under the same schedule;
    - the delta barrier ships strictly fewer replica-plane bytes than a
      full-state re-broadcast would (``barrier_plane_bytes`` vs
      ``barrier_full_bytes`` — the plane component is compared, because
      at small ``k`` the 8-byte row *indices* of the delta encoding can
      outweigh the rows themselves; the recorded ``barrier_delta_bytes``
      is the honest total including indices and sizes);
    - no leaked socket, worker process, or shared-memory segment.

    The measured Phase-2 speedup vs sequential numpy is enforced only on
    hosts with >= 2 usable CPUs and recorded-but-skipped elsewhere, like
    the other wall-clock gates.  Returns ``(section, ok, best)``, the
    last being the fastest distributed result.
    """
    from repro.core.distributed import (
        live_connections,
        live_worker_processes,
    )

    threshold = DISTRIBUTED_SMOKE_GATE if smoke else DISTRIBUTED_GATE
    simulated = make_parallel(args.n_workers, "simulated").partition(
        stream, args.k, alpha=args.alpha
    )
    single = make_parallel(1, "distributed").partition(
        stream, args.k, alpha=args.alpha
    )
    assert_bit_exact(
        sequential_result,
        single,
        "distributed: DistributedRunner(n_workers=1) vs sequential 2PS-L",
    )
    best = None
    for _ in range(repeats):
        result = make_parallel(args.n_workers, "distributed").partition(
            stream, args.k, alpha=args.alpha
        )
        assert_bit_exact(
            simulated,
            result,
            f"distributed: DistributedRunner vs SimulatedRunner at "
            f"{args.n_workers} workers",
        )
        if best is None or phase2_seconds(result) < phase2_seconds(best):
            best = result
    leaked = sorted(live_shared_segments())
    if leaked:
        raise SystemExit(f"leaked shared-memory segments: {leaked}")
    if live_connections() or live_worker_processes():
        raise SystemExit(
            "distributed: leaked wire connections or worker processes"
        )

    wire_stats = best.extras["wire"]
    plane = wire_stats["barrier_plane_bytes"]
    full = wire_stats["barrier_full_bytes"]
    wire_ok = 0 < plane < full
    print(
        f"  distributed barriers: {wire_stats['barrier_delta_bytes']:,} "
        f"delta bytes on the wire (plane component {plane:,}) vs "
        f"{full:,} full re-broadcast "
        + (
            f"({full / plane:.1f}x plane reduction)"
            if wire_ok
            else "(gate FAILED)"
        )
    )

    seq_s = phase2_seconds(sequential_result)
    par_s = phase2_seconds(best)
    speedup = seq_s / par_s if par_s > 0 else 0.0
    enforced = cpus >= 2
    passed = speedup >= threshold if enforced else None
    gate = {
        "threshold": threshold,
        "speedup": round(speedup, 3),
        "enforced": enforced,
        "pass": passed,
        "skipped_reason": (
            None
            if enforced
            else f"{cpus} usable CPU(s): loopback socket workers have "
            "no spare core to run on"
        ),
    }
    state = "pass" if passed else ("SKIPPED" if passed is None else "FAIL")
    print(
        f"  distributed wall-clock (phase 2): {seq_s:.3f}s sequential -> "
        f"{par_s:.3f}s at {args.n_workers} socket workers "
        f"({speedup:.2f}x, gate {threshold}x: {state}, {cpus} cpus)"
    )
    section = {
        "benchmark": "distributed runner (sync-window/delta-barrier "
        "protocol over loopback sockets)",
        "n_workers": args.n_workers,
        "sequential_phase2_seconds": round(seq_s, 4),
        "distributed_phase2_seconds": round(par_s, 4),
        "measured_phase2_speedup": gate["speedup"],
        "syncs": best.extras["syncs"],
        "wire": {
            "bytes_sent": wire_stats["bytes_sent"],
            "bytes_received": wire_stats["bytes_received"],
            "barrier_delta_bytes": wire_stats["barrier_delta_bytes"],
            "barrier_plane_bytes": plane,
            "barrier_full_bytes": full,
            "plane_reduction_factor": (
                round(full / plane, 2) if plane else None
            ),
            "gate": {"delta_below_full": wire_ok, "pass": wire_ok},
        },
        "gate": gate,
        "distributed_matches_simulated": True,
        "single_worker_matches_sequential": True,
        "leaked_segments": 0,
        "leaked_connections": 0,
        "leaked_worker_processes": 0,
    }
    return section, wire_ok and passed is not False, best


def run_parallel_wallclock(
    stream, graph, args, sequential_runs, smoke: bool, out: str
) -> bool:
    """Measured process-runner wall-clock sections -> BENCH_parallel.json.

    Returns True when every applicable gate passes.  Correctness gates
    (see :func:`measure_speedup_gate`) and the barrier-bytes gate are
    always enforced; the speedup gates are enforced only on hosts with
    at least ``n_workers`` usable CPUs.  The gates measure ``numpy``
    against sequential ``numpy`` (``sequential_runs`` holds the 2PS-L
    pipeline runs by backend); each section records the same ratio for
    ``c``, ungated.
    """
    cpus = usable_cpus()
    repeats = 1 if smoke else args.repeats
    sequential_result = sequential_runs["numpy"]["result"]
    c_reason = c_unavailable()

    def parallel_factory(parallel_phase1, backend="numpy"):
        def make(n_workers, runner):
            return ParallelTwoPhase(
                n_workers=n_workers,
                sync_interval=args.sync_interval,
                backend=backend,
                runner=runner,
                parallel_phase1=parallel_phase1,
            )
        return make

    def c_record(label, seconds_fn, parallel_phase1, runner, reference):
        if c_reason is not None:
            return {"available": False, "reason": c_reason}
        make = parallel_factory(parallel_phase1, "c")
        return c_ratio(
            label, seconds_fn, lambda: make(args.n_workers, runner), stream,
            args, sequential_runs["c"]["result"], reference, repeats,
        )

    best, phase2_gate, seq_phase2, par_phase2 = measure_speedup_gate(
        "parallel wall-clock (phase 2)",
        phase2_seconds,
        PARALLEL_SMOKE_GATE if smoke else PARALLEL_GATE,
        parallel_factory(False),
        stream, args, sequential_result, repeats, cpus,
    )
    print(
        "  process runner is bit-exact with the simulated runner "
        "(and with sequential 2PS-L at 1 worker); no segment leaks"
    )
    phase2_c = c_record(
        "parallel wall-clock (phase 2)", phase2_seconds, False, "process", best
    )

    # Barrier-bytes gate (always enforced): the dirty-row delta barriers
    # must broadcast strictly less than a full replica-matrix
    # re-broadcast.  Recorded in the payload either way so a failing run
    # still leaves an authoritative BENCH file.
    barrier_bytes = best.extras["barrier_bytes"]
    barrier_bytes_full = best.extras["barrier_bytes_full"]
    barrier_ok = 0 < barrier_bytes < barrier_bytes_full
    print(
        f"  delta barriers: {barrier_bytes:,} replica cells merged vs "
        f"{barrier_bytes_full:,} full re-broadcast "
        + (
            f"({barrier_bytes_full / barrier_bytes:.1f}x reduction)"
            if barrier_ok
            else "(gate FAILED)"
        )
    )

    # Phase-1 wall-clock section: the sharded degree + clustering passes
    # through the process runner, against the sequential Phase-1 time.
    best_phase1, phase1_gate, seq_phase1, par_phase1 = measure_speedup_gate(
        "phase-1 wall-clock",
        phase1_seconds,
        PHASE1_SMOKE_GATE if smoke else PHASE1_GATE,
        parallel_factory(True),
        stream, args, sequential_result, repeats, cpus,
    )

    phase1_c = c_record(
        "phase-1 wall-clock", phase1_seconds, True, "process", best_phase1
    )

    distributed_section, distributed_ok, distributed_best = (
        run_distributed_section(
            stream, args, sequential_result, parallel_factory(False),
            smoke, cpus, repeats,
        )
    )
    distributed_section["c"] = c_record(
        "distributed wall-clock (phase 2)", phase2_seconds, False,
        "distributed", distributed_best,
    )

    payload = {
        "benchmark": "measured parallel Phase-2 wall-clock (process runner)",
        "graph": {
            "generator": "rmat",
            "n_vertices": graph.n_vertices,
            "n_edges": graph.n_edges,
        },
        "k": args.k,
        "alpha": args.alpha,
        "smoke": smoke,
        "repeats": repeats,
        "n_workers": args.n_workers,
        "sync_interval": args.sync_interval,
        "usable_cpus": cpus,
        "backend": "numpy",
        "sequential_phase2_seconds": round(seq_phase2, 4),
        "parallel_phase2_seconds": round(par_phase2, 4),
        "parallel_total_seconds": round(best.wall_seconds, 4),
        "measured_phase2_speedup": phase2_gate["speedup"],
        "syncs": best.extras["syncs"],
        "replication_factor": round(best.replication_factor, 4),
        "measured_alpha": round(best.measured_alpha, 4),
        "gate": phase2_gate,
        "c": phase2_c,
        "barrier_bytes": {
            "delta": barrier_bytes,
            "full_rebroadcast": barrier_bytes_full,
            "reduction_factor": (
                round(barrier_bytes_full / barrier_bytes, 2)
                if barrier_bytes
                else None
            ),
            "gate": {"delta_below_full": barrier_ok, "pass": barrier_ok},
        },
        "phase1_wallclock": {
            "benchmark": "measured parallel Phase-1 wall-clock "
            "(degree + clustering, process runner)",
            "sequential_phase1_seconds": round(seq_phase1, 4),
            "parallel_phase1_seconds": round(par_phase1, 4),
            "measured_phase1_speedup": phase1_gate["speedup"],
            "phase1_syncs": best_phase1.extras["phase1_syncs"],
            "n_clusters": best_phase1.extras["n_clusters"],
            "replication_factor": round(
                best_phase1.replication_factor, 4
            ),
            "gate": phase1_gate,
            "c": phase1_c,
            "process_matches_simulated": True,
            "single_worker_matches_sequential": True,
        },
        "distributed": distributed_section,
        "process_matches_simulated": True,
        "single_worker_matches_sequential": True,
        "leaked_segments": 0,
    }
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(f"  wrote {out}")
    return (
        phase2_gate["pass"] is not False
        and phase1_gate["pass"] is not False
        and barrier_ok
        and distributed_ok
    )


def run_out_of_core_section(args, scale: int, smoke: bool, out: str) -> bool:
    """The out-of-core tier -> ``BENCH_storage.json``.

    Generates the R-MAT graph straight to a binary edge file in bounded
    memory (``rmat_edge_file`` — the edge array never exists in RAM),
    then partitions from the file:

    - packed-state gate (always enforced): bit-packed replica state
      >= ``STORAGE_REDUCTION_GATE``x smaller than the dense bool state,
      and bit-identical with it;
    - packed-phase gate (always enforced): the packed run's
      ``partitioning`` phase at most ``PACKED_PHASE_GATE``x the dense
      run's;
    - prefetch-overlap gate (skipped below 2 CPUs): the double-buffered
      prefetching stream beats the synchronous stream's wall-clock, and
      stays bit-identical with it;
    - process-runner pins (always enforced): packed state + prefetching
      stream through the process runner matches sequential dense at one
      worker and the simulated runner at ``--n-workers``, with zero
      leaked shared-memory segments.

    The gates measure ``numpy``; the packed/dense and prefetch ratios of
    ``c`` are recorded ungated (``c`` key), bit-identical with numpy.

    Returns True when every applicable gate passes.
    """
    cpus = usable_cpus()
    repeats = 1 if smoke else args.repeats
    reduction_gate = STORAGE_REDUCTION_GATE
    phase_gate = PACKED_PHASE_SMOKE_GATE if smoke else PACKED_PHASE_GATE
    prefetch_gate = PREFETCH_SMOKE_GATE if smoke else PREFETCH_GATE

    with tempfile.TemporaryDirectory(prefix="bench_ooc_") as tmp:
        path = os.path.join(tmp, "rmat_external.bin")
        n, m = rmat_edge_file(
            path, scale, edge_factor=args.edge_factor, seed=args.seed
        )
        file_bytes = os.path.getsize(path)
        print(
            f"  external R-MAT scale {scale}: |V|={n:,} |E|={m:,} "
            f"({file_bytes:,} bytes on disk, never materialized)"
        )
        sync_stream = FileEdgeStream(path, n_vertices=n)
        prefetch_stream = FileEdgeStream(path, n_vertices=n, prefetch=True)

        dense = run_config(
            lambda: TwoPhasePartitioner(backend="numpy"),
            sync_stream, args.k, args.alpha, repeats,
        )
        packed = run_config(
            lambda: TwoPhasePartitioner(
                backend="numpy", packed_state=True
            ),
            sync_stream, args.k, args.alpha, repeats,
        )
        assert_bit_exact(
            dense["result"], packed["result"],
            "out-of-core: packed state vs dense state (file stream)",
        )
        dense_bytes = dense["result"].state.nbytes()
        packed_bytes = packed["result"].state.nbytes()
        reduction = dense_bytes / packed_bytes if packed_bytes else 0.0
        reduction_ok = reduction >= reduction_gate
        print(
            f"  packed replica state: {dense_bytes:,} dense bytes -> "
            f"{packed_bytes:,} packed bytes ({reduction:.2f}x, gate "
            f"{reduction_gate}x: {'pass' if reduction_ok else 'FAIL'})"
        )
        dense_phase_s = dense["row"]["phase_seconds"]["partitioning"]
        packed_phase_s = packed["row"]["phase_seconds"]["partitioning"]
        phase_ratio = packed_phase_s / dense_phase_s
        phase_ok = phase_ratio <= phase_gate
        print(
            f"  partitioning phase: {dense_phase_s:.3f}s dense -> "
            f"{packed_phase_s:.3f}s packed ({phase_ratio:.2f}x, gate "
            f"<= {phase_gate}x: {'pass' if phase_ok else 'FAIL'})"
        )

        prefetched = run_config(
            lambda: TwoPhasePartitioner(
                backend="numpy", packed_state=True
            ),
            prefetch_stream, args.k, args.alpha, repeats,
        )
        assert_bit_exact(
            packed["result"], prefetched["result"],
            "out-of-core: prefetching stream vs synchronous stream",
        )
        sync_s = packed["row"]["total_seconds"]
        prefetch_s = prefetched["row"]["total_seconds"]
        overlap = sync_s / prefetch_s if prefetch_s > 0 else 0.0
        prefetch_enforced = cpus >= 2
        prefetch_ok = overlap >= prefetch_gate if prefetch_enforced else None
        state = (
            "pass" if prefetch_ok
            else ("SKIPPED" if prefetch_ok is None else "FAIL")
        )
        print(
            f"  prefetching stream: {sync_s:.3f}s sync -> {prefetch_s:.3f}s "
            f"prefetch ({overlap:.2f}x, gate {prefetch_gate}x: {state}, "
            f"{cpus} cpus)"
        )

        def make_parallel(n_workers, runner):
            return ParallelTwoPhase(
                n_workers=n_workers,
                sync_interval=args.sync_interval,
                backend="numpy",
                runner=runner,
                packed_state=True,
            )

        single = make_parallel(1, "process").partition(
            prefetch_stream, args.k, alpha=args.alpha
        )
        assert_bit_exact(
            dense["result"], single,
            "out-of-core: ProcessRunner(n_workers=1, packed, prefetch) "
            "vs sequential dense",
        )
        simulated = make_parallel(args.n_workers, "simulated").partition(
            sync_stream, args.k, alpha=args.alpha
        )
        process = make_parallel(args.n_workers, "process").partition(
            prefetch_stream, args.k, alpha=args.alpha
        )
        assert_bit_exact(
            simulated, process,
            f"out-of-core: ProcessRunner vs SimulatedRunner at "
            f"{args.n_workers} workers (packed, prefetch)",
        )
        leaked = sorted(live_shared_segments())
        if leaked:
            raise SystemExit(f"leaked shared-memory segments: {leaked}")
        print(
            "  packed state + prefetching stream through the process "
            "runner is bit-exact with sequential dense and with the "
            "simulated runner; no segment leaks"
        )
        c_reason = c_unavailable()
        if c_reason is None:
            c_runs = {
                label: run_config(
                    lambda packed_state=packed_state: TwoPhasePartitioner(
                        backend="c", packed_state=packed_state
                    ),
                    run_stream, args.k, args.alpha, repeats,
                )
                for label, packed_state, run_stream in (
                    ("dense", False, sync_stream),
                    ("packed", True, sync_stream),
                    ("prefetch", True, prefetch_stream),
                )
            }
            for run in c_runs.values():
                assert_bit_exact(
                    dense["result"], run["result"],
                    "out-of-core: c vs numpy (file stream)",
                )
            c_dense_s = c_runs["dense"]["row"]["phase_seconds"]["partitioning"]
            c_packed_s = c_runs["packed"]["row"]["phase_seconds"]["partitioning"]
            c_sync_s = c_runs["packed"]["row"]["total_seconds"]
            c_prefetch_s = c_runs["prefetch"]["row"]["total_seconds"]
            c_record = {
                "available": True,
                "dense_seconds": round(c_dense_s, 4),
                "packed_seconds": round(c_packed_s, 4),
                "packed_over_dense": round(c_packed_s / c_dense_s, 3),
                "sync_seconds": round(c_sync_s, 4),
                "prefetch_seconds": round(c_prefetch_s, 4),
                "overlap_gain": round(c_sync_s / c_prefetch_s, 3),
                "bit_exact_with_numpy": True,
            }
            print(
                f"  c (recorded, ungated): packed/dense partitioning "
                f"{c_record['packed_over_dense']:.2f}x, prefetch "
                f"{c_sync_s:.3f}s sync -> {c_prefetch_s:.3f}s "
                f"({c_record['overlap_gain']:.2f}x)"
            )
        else:
            c_record = {"available": False, "reason": c_reason}

    payload = {
        "benchmark": "out-of-core tier (packed replica state, "
        "external-memory R-MAT, prefetching file streams)",
        "graph": {
            "generator": "rmat-external",
            "scale": scale,
            "edge_factor": args.edge_factor,
            "seed": args.seed,
            "n_vertices": n,
            "n_edges": m,
            "file_bytes": file_bytes,
        },
        "k": args.k,
        "alpha": args.alpha,
        "smoke": smoke,
        "repeats": repeats,
        "n_workers": args.n_workers,
        "sync_interval": args.sync_interval,
        "usable_cpus": cpus,
        "backend": "numpy",
        "state_bytes": {
            "dense": dense_bytes,
            "packed": packed_bytes,
            "reduction_factor": round(reduction, 2),
            "gate": {
                "threshold": reduction_gate,
                "reduction": round(reduction, 2),
                "enforced": True,
                "pass": reduction_ok,
                "skipped_reason": None,
            },
        },
        "partitioning_phase": {
            "dense_seconds": round(dense_phase_s, 4),
            "packed_seconds": round(packed_phase_s, 4),
            "packed_over_dense": round(phase_ratio, 3),
            "gate": {
                "threshold": phase_gate,
                "ratio": round(phase_ratio, 3),
                "enforced": True,
                "pass": phase_ok,
                "skipped_reason": None,
            },
        },
        "prefetch": {
            "sync_seconds": round(sync_s, 4),
            "prefetch_seconds": round(prefetch_s, 4),
            "overlap_gain": round(overlap, 3),
            "gate": {
                "threshold": prefetch_gate,
                "speedup": round(overlap, 3),
                "enforced": prefetch_enforced,
                "pass": prefetch_ok,
                "skipped_reason": (
                    None
                    if prefetch_enforced
                    else f"{cpus} usable CPU(s): the reader thread has "
                    "nothing to overlap with on a single-CPU host"
                ),
            },
        },
        "c": c_record,
        "bit_exact": {
            "packed_vs_dense": True,
            "prefetch_vs_sync": True,
            "process_single_vs_sequential_dense": True,
            "process_vs_simulated": True,
        },
        "leaked_segments": 0,
    }
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(f"  wrote {out}")
    return reduction_ok and phase_ok and prefetch_ok is not False


def run_serving_section(
    args, graph, sequential_result, smoke: bool, out: str
) -> bool:
    """The partition-serving tier -> ``BENCH_serving.json``.

    Persists the main R-MAT run as a :class:`PartitionStore`, reopens it
    memory-mapped, and drives a :class:`LookupService` with a **seeded
    closed-loop load generator** (next query issued when the previous
    answer lands): 90% of vertex queries hit a hot set — the skew the
    LRU cache exists for — and 20% of edge queries miss.  Records
    lookups/s plus p50/p99 latency for the scalar path and lookups/s for
    the batched-numpy path.

    Gates:

    - bit-exactness (always enforced): every sampled lookup served off
      the mmap-reopened store equals the answer derived directly from
      the in-memory :class:`PartitionResult` (replica rows, routing,
      edge ownership including misses), and the store's CRC-32 sweep
      passes;
    - batched >= ``SERVING_BATCH_GATE``x scalar lookups/s (always
      enforced: a same-host ratio);
    - absolute QPS floors on both paths, enforced only on hosts with
      >= 2 usable CPUs (recorded-but-skipped elsewhere, like the
      parallel wall-clock gates).

    Returns True when every applicable gate passes.
    """
    from repro.serving import LookupService, PartitionStore

    cpus = usable_cpus()
    batch_gate = SERVING_BATCH_SMOKE_GATE if smoke else SERVING_BATCH_GATE
    scalar_floor = (
        SERVING_SCALAR_QPS_SMOKE_GATE if smoke else SERVING_SCALAR_QPS_GATE
    )
    batched_floor = (
        SERVING_BATCHED_QPS_SMOKE_GATE if smoke else SERVING_BATCHED_QPS_GATE
    )
    n_scalar = 5_000 if smoke else 50_000
    n_batched = 100_000 if smoke else 1_000_000
    batch_size = 4096
    rng = np.random.default_rng(args.seed)

    with tempfile.TemporaryDirectory(prefix="bench_serving_") as tmp:
        path = os.path.join(tmp, "store")
        t0 = time.perf_counter()
        PartitionStore.write(path, sequential_result, graph.edges)
        write_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        store = PartitionStore.open(path)
        open_s = time.perf_counter() - t0
        store.verify()
        svc = LookupService(store, cache_size=4096)

        # -- seeded closed-loop load ----------------------------------
        n = graph.n_vertices
        hot = rng.integers(0, n, size=min(1024, n))
        hot_mask = rng.random(n_scalar) < 0.9
        vertex_queries = np.where(
            hot_mask,
            hot[rng.integers(0, hot.size, size=n_scalar)],
            rng.integers(0, n, size=n_scalar),
        ).astype(np.int64)
        edge_idx = rng.integers(0, graph.n_edges, size=n_scalar)
        edge_queries = graph.edges[edge_idx].astype(np.int64)
        # 20% misses: vertex ids above |V| never carry an edge.
        miss = rng.random(n_scalar) < 0.2
        edge_queries[miss, 0] = n + rng.integers(1, 1000, size=int(miss.sum()))

        latencies = np.empty(n_scalar, dtype=np.float64)
        for i, vid in enumerate(vertex_queries.tolist()):
            t = time.perf_counter_ns()
            svc.vertex_partitions(vid)
            latencies[i] = time.perf_counter_ns() - t
        scalar_s = float(latencies.sum()) * 1e-9
        scalar_qps = n_scalar / scalar_s if scalar_s > 0 else 0.0
        p50_us = float(np.percentile(latencies, 50)) / 1e3
        p99_us = float(np.percentile(latencies, 99)) / 1e3
        cache = svc.cache_info()

        t0 = time.perf_counter()
        for i, (u, v) in enumerate(edge_queries.tolist()):
            svc.edge_partition(u, v)
        edge_scalar_s = time.perf_counter() - t0
        edge_scalar_qps = (
            n_scalar / edge_scalar_s if edge_scalar_s > 0 else 0.0
        )

        # Batched path: same closed loop, one vectorized call per batch.
        batched_ids = np.where(
            rng.random(n_batched) < 0.9,
            hot[rng.integers(0, hot.size, size=n_batched)],
            rng.integers(0, n, size=n_batched),
        ).astype(np.int64)
        t0 = time.perf_counter()
        for start in range(0, n_batched, batch_size):
            svc.vertex_partitions(batched_ids[start : start + batch_size])
        batched_s = time.perf_counter() - t0
        batched_qps = n_batched / batched_s if batched_s > 0 else 0.0

        # -- bit-exactness against the in-memory result ---------------
        dense = np.asarray(sequential_result.state.replicas, dtype=bool)
        sizes = np.asarray(sequential_result.state.sizes, dtype=np.int64)
        sample = vertex_queries[:2048]
        rows = dense[sample]
        load = np.where(rows, sizes[np.newaxis, :], np.inf)
        expect = np.argmin(load, axis=1).astype(np.int64)
        expect[~rows.any(axis=1)] = -1
        got = svc.vertex_partitions(sample)
        got_scalar = np.array(
            [svc.vertex_partitions(int(v)) for v in sample[:256]]
        )
        keys = (
            graph.edges[:, 0].astype(np.uint64) << np.uint64(32)
        ) | graph.edges[:, 1].astype(np.uint64)
        order = np.argsort(keys, kind="stable")
        qk = (
            edge_queries[:, 0].astype(np.uint64) << np.uint64(32)
        ) | edge_queries[:, 1].astype(np.uint64)
        pos = np.searchsorted(keys[order], qk, side="left")
        pos_c = np.minimum(pos, graph.n_edges - 1)
        found = (pos < graph.n_edges) & (keys[order][pos_c] == qk)
        expect_edge = np.full(n_scalar, -1, dtype=np.int64)
        expect_edge[found] = sequential_result.assignments[
            order[pos[found]]
        ]
        got_edge = svc.edge_partition(edge_queries[:, 0], edge_queries[:, 1])
        if not (
            np.array_equal(got, expect)
            and np.array_equal(got_scalar, expect[:256])
            and np.array_equal(got_edge, expect_edge)
        ):
            raise SystemExit(
                "serving: mmap-reopened store diverges from the "
                "in-memory PartitionResult"
            )
        print(
            "  serving store is bit-exact with the in-memory result "
            "(vertex routing scalar+batched, edge ownership incl. "
            "misses); checksums OK"
        )

    batch_speedup = batched_qps / scalar_qps if scalar_qps > 0 else 0.0
    batch_ok = batch_speedup >= batch_gate
    qps_enforced = cpus >= 2
    scalar_ok = scalar_qps >= scalar_floor if qps_enforced else None
    batched_ok = batched_qps >= batched_floor if qps_enforced else None
    skip_reason = (
        None
        if qps_enforced
        else f"{cpus} usable CPU(s): absolute lookup-throughput floors "
        "measure scheduler contention on this host"
    )

    section = {
        "benchmark": "partition-serving lookups (mmap store + "
        "LookupService, seeded closed-loop load)",
        "graph": {
            "generator": "rmat",
            "n_vertices": graph.n_vertices,
            "n_edges": graph.n_edges,
        },
        "k": args.k,
        "alpha": args.alpha,
        "smoke": smoke,
        "seed": args.seed,
        "usable_cpus": cpus,
        "store": {
            "bytes": store.nbytes(),
            "write_seconds": round(write_s, 4),
            "open_seconds": round(open_s, 6),
            "checksums_ok": True,
        },
        "load": {
            "scalar_queries": n_scalar,
            "batched_queries": n_batched,
            "batch_size": batch_size,
            "hot_set": int(hot.size),
            "hot_fraction": 0.9,
            "edge_miss_fraction": 0.2,
        },
        "scalar": {
            "lookups_per_s": round(scalar_qps),
            "p50_us": round(p50_us, 2),
            "p99_us": round(p99_us, 2),
            "cache": cache,
        },
        "edge_scalar": {"lookups_per_s": round(edge_scalar_qps)},
        "batched": {"lookups_per_s": round(batched_qps)},
        "bit_exact_with_result": True,
        "gates": {
            "batched_vs_scalar": {
                "threshold": batch_gate,
                "speedup": round(batch_speedup, 1),
                "enforced": True,
                "pass": batch_ok,
                "skipped_reason": None,
            },
            "scalar_qps_floor": {
                "threshold": scalar_floor,
                "speedup": round(scalar_qps),
                "enforced": qps_enforced,
                "pass": scalar_ok,
                "skipped_reason": skip_reason,
            },
            "batched_qps_floor": {
                "threshold": batched_floor,
                "speedup": round(batched_qps),
                "enforced": qps_enforced,
                "pass": batched_ok,
                "skipped_reason": skip_reason,
            },
        },
    }
    state = "pass" if batch_ok else "FAIL"
    print(
        f"  serving: {scalar_qps:,.0f} scalar lookups/s "
        f"(p50 {p50_us:.1f}us, p99 {p99_us:.1f}us, "
        f"{cache['hits']}/{cache['hits'] + cache['misses']} cache hits) -> "
        f"{batched_qps:,.0f} batched ({batch_speedup:.0f}x, gate "
        f"{batch_gate}x: {state}); edge {edge_scalar_qps:,.0f}/s; "
        f"QPS floors {'enforced' if qps_enforced else 'SKIPPED'} "
        f"({cpus} cpus)"
    )
    payload = {"serving": section}
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(f"  wrote {out}")
    return (
        batch_ok and scalar_ok is not False and batched_ok is not False
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", type=int, default=16, help="R-MAT scale (2**scale vertices)"
    )
    parser.add_argument(
        "--edge-factor", type=int, default=16, help="edges per vertex"
    )
    parser.add_argument("--k", type=int, default=32)
    parser.add_argument("--alpha", type=float, default=1.05)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--repeats", type=int, default=3, help="runs per backend (best kept)"
    )
    parser.add_argument("--n-workers", type=int, default=4)
    parser.add_argument("--sync-interval", type=int, default=65536)
    parser.add_argument("--out", default=None)
    parser.add_argument(
        "--parallel-out",
        default=None,
        help="output path of the parallel wall-clock section "
        "(default BENCH_parallel.json, or BENCH_parallel_smoke.json "
        "with --smoke)",
    )
    parser.add_argument(
        "--storage-out",
        default=None,
        help="output path of the out-of-core section "
        "(default BENCH_storage.json, or BENCH_storage_smoke.json "
        "with --smoke)",
    )
    parser.add_argument(
        "--serving-out",
        default=None,
        help="output path of the partition-serving section "
        "(default BENCH_serving.json, or BENCH_serving_smoke.json "
        "with --smoke)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"small-scale gate check (scale {SMOKE_SCALE}, 1 repeat, "
        "relaxed speedup thresholds)",
    )
    parser.add_argument(
        "--record-only",
        action="store_true",
        help="record every gate outcome in the BENCH files but exit 0 "
        "even when a *speedup threshold* misses (correctness gates — "
        "cross-backend bit-exactness, runner equality, segment leaks — "
        "still fail hard).  For trend-tracking runs (the nightly "
        "workflow) on hosts whose throughput is not under our control.  "
        "The BENCH_*.json snapshots at the repo root are committed "
        "artifacts: regenerate and commit them after kernel/runner "
        "changes so the recorded trend stays authoritative.",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        scale = min(args.scale, SMOKE_SCALE)
        repeats = 1
        gates = SMOKE_GATES
        out = args.out or "BENCH_kernels_smoke.json"
        parallel_out = args.parallel_out or "BENCH_parallel_smoke.json"
        storage_out = args.storage_out or "BENCH_storage_smoke.json"
        serving_out = args.serving_out or "BENCH_serving_smoke.json"
    else:
        scale = args.scale
        repeats = args.repeats
        gates = FULL_GATES
        out = args.out or "BENCH_kernels.json"
        parallel_out = args.parallel_out or "BENCH_parallel.json"
        storage_out = args.storage_out or "BENCH_storage.json"
        serving_out = args.serving_out or "BENCH_serving.json"

    graph = rmat_graph(scale, edge_factor=args.edge_factor, seed=args.seed)
    stream = InMemoryEdgeStream(graph)
    print(
        f"R-MAT scale {scale}: |V|={graph.n_vertices:,} "
        f"|E|={graph.n_edges:,}, k={args.k}, alpha={args.alpha}"
        + (" [smoke]" if args.smoke else "")
    )

    configs = {
        "2psl": lambda backend: TwoPhasePartitioner(backend=backend),
        "2pshdrf": lambda backend: TwoPhasePartitioner(
            mode="hdrf", backend=backend
        ),
        "parallel": lambda backend: ParallelTwoPhase(
            n_workers=args.n_workers,
            sync_interval=args.sync_interval,
            backend=backend,
        ),
    }

    payload_configs = {}
    results = {}
    for name, factory in configs.items():
        runs = {}
        for backend in available_backends():
            runs[backend] = run_config(
                lambda backend=backend: factory(backend),
                stream,
                args.k,
                args.alpha,
                repeats,
            )
            row = runs[backend]["row"]
            print(
                f"  {name:>9}/{backend:<7}: {row['total_seconds']:.2f}s total "
                f"({row['total_edges_per_s']:,} edges/s), phases: "
                + ", ".join(
                    f"{k}={v:.3f}s" for k, v in row["phase_seconds"].items()
                )
            )
        # Cross-backend equality: the kernel contract, enforced per run.
        reference = runs["python"]["result"]
        for backend, run in runs.items():
            assert_bit_exact(
                reference, run["result"], f"{name}: backend {backend!r}"
            )
        ref_phases = runs["python"]["row"]["phase_seconds"]
        speedups = {}
        for backend in available_backends():
            if backend == "python":
                continue
            rows = runs[backend]["row"]["phase_seconds"]
            speedups[backend] = {
                phase: round(ref_phases[phase] / rows[phase], 2)
                if rows[phase] > 0
                else None
                for phase in ref_phases
            }
            speedups[backend]["total"] = round(
                runs["python"]["row"]["total_seconds"]
                / runs[backend]["row"]["total_seconds"],
                2,
            )
        results[name] = runs
        payload_configs[name] = {
            "backends": {b: run["row"] for b, run in runs.items()},
            "speedup_vs_python": speedups,
        }
    print("  all pipelines produced bit-identical results across backends")

    # Differential gate: the kernel-routed parallel path with one worker
    # must be bit-exact with the sequential pipeline (any sync interval).
    single = ParallelTwoPhase(
        n_workers=1,
        sync_interval=args.sync_interval,
        backend=DEFAULT_BACKEND,
    ).partition(stream, args.k, alpha=args.alpha)
    assert_bit_exact(
        results["2psl"][DEFAULT_BACKEND]["result"],
        single,
        "ParallelTwoPhase(n_workers=1) vs sequential 2PS-L",
    )
    print("  parallel(n_workers=1) is bit-exact with sequential 2PS-L")

    gate_rows = {}
    meets = True
    for name, phases in gates.items():
        config_speedups = payload_configs[name]["speedup_vs_python"]["numpy"]
        for phase, threshold in phases.items():
            speedup = config_speedups.get(phase) or 0.0
            passed = speedup >= threshold
            meets = meets and passed
            gate_rows[f"{name}.{phase}"] = {
                "threshold": threshold,
                "speedup": speedup,
                "pass": passed,
            }

    c_section, c_ok = run_c_section(args, scale, args.smoke, payload_configs)
    hdrf_section, hdrf_ok = run_hdrf_baseline_section(
        args, graph, stream, args.smoke
    )

    payload = {
        "benchmark": "kernel-backend throughput (2PS-L / 2PS-HDRF / parallel)",
        "graph": {
            "generator": "rmat",
            "scale": scale,
            "edge_factor": args.edge_factor,
            "seed": args.seed,
            "n_vertices": graph.n_vertices,
            "n_edges": graph.n_edges,
        },
        "k": args.k,
        "alpha": args.alpha,
        "repeats": repeats,
        "smoke": args.smoke,
        "n_workers": args.n_workers,
        "sync_interval": args.sync_interval,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "default_backend": DEFAULT_BACKEND,
        "configs": payload_configs,
        "gates": gate_rows,
        "c": c_section,
        "hdrf_baseline": hdrf_section,
        "identical_assignments": True,
        "parallel_matches_sequential": True,
        "meets_gates": meets and c_ok and hdrf_ok,
    }
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(f"  gates: {json.dumps(gate_rows)}")
    print(
        f"  wrote {out} "
        f"(meets_gates={meets and c_ok and hdrf_ok})"
    )

    parallel_ok = run_parallel_wallclock(
        stream, graph, args, results["2psl"], args.smoke, parallel_out
    )
    storage_ok = run_out_of_core_section(args, scale, args.smoke, storage_out)
    serving_ok = run_serving_section(
        args,
        graph,
        results["2psl"]["numpy"]["result"],
        args.smoke,
        serving_out,
    )
    if args.record_only:
        # Correctness failures raised SystemExit long before this point;
        # anything left is a speedup-threshold miss, recorded in the
        # BENCH payloads for the trend line.
        return 0
    return (
        0
        if meets and c_ok and hdrf_ok
        and parallel_ok and storage_ok and serving_ok
        else 1
    )


if __name__ == "__main__":
    raise SystemExit(main())
