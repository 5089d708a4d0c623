"""Command-line interface: generate datasets, partition files, inspect graphs.

Mirrors the paper's deployment model ("2PS-L is implemented as a separate
process that reads the graph data as a file from a given storage, partitions
the edges, and writes back the partitioned graph data"):

- ``repro-partition generate`` — materialize a dataset stand-in as a binary
  edge list, or stream an external-memory R-MAT straight to disk
  (``--rmat-scale``, bounded memory at any scale);
- ``repro-partition partition`` — out-of-core partition a binary edge list
  and write per-edge assignments;
- ``repro-partition info`` — basic statistics of an edge-list file;
- ``repro-partition serve-export`` — persist a partitioning as a
  memory-mappable :class:`~repro.serving.store.PartitionStore` (from a
  ``partition --out`` assignment file, or partitioning inline);
- ``repro-partition lookup`` — answer vertex/edge placement queries
  against an exported store;
- ``repro-partition experiment`` — run a table/figure reproduction
  (delegates to :mod:`repro.experiments.__main__`).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core import ParallelTwoPhase, TwoPhasePartitioner
from repro.core.distributed import DistributedRunner, serve_worker
from repro.core.runners import RUNNERS
from repro.errors import PartitioningError, ReproError
from repro.experiments.common import ALL_PARTITIONERS, make_partitioner
from repro.graph.datasets import DATASETS, load_dataset
from repro.graph.formats import write_binary_edge_list
from repro.graph.generators import rmat_edge_file
from repro import kernels
from repro.kernels import available_backends, missing_backends
from repro.storage import hdd_device, page_cache_device, ssd_device
from repro.streaming import FileEdgeStream, load_partitioned, write_partitioned

_DEVICES = {"page-cache": page_cache_device, "ssd": ssd_device, "hdd": hdd_device}


def _cmd_generate(args) -> int:
    if (args.dataset is None) == (args.rmat_scale is None):
        raise ReproError(
            "generate: pass exactly one of --dataset (materialized "
            "stand-in) or --rmat-scale (external-memory R-MAT)"
        )
    if args.rmat_scale is not None:
        # Streams batches straight to disk — never holds the edge array.
        n, m = rmat_edge_file(
            args.out,
            args.rmat_scale,
            edge_factor=args.edge_factor,
            seed=args.seed,
            batch_edges=args.batch_edges,
        )
        print(
            f"wrote external-memory R-MAT: |V|={n} |E|={m} "
            f"({m * 8} bytes) -> {args.out}"
        )
        return 0
    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    nbytes = write_binary_edge_list(graph, args.out)
    print(
        f"wrote {args.dataset} stand-in: |V|={graph.n_vertices} "
        f"|E|={graph.n_edges} ({nbytes} bytes) -> {args.out}"
    )
    return 0


#: Parallel modes per CLI algorithm name (only 2PS variants shard).
_PARALLEL_MODES = {"2PS-L": "linear", "2PS-HDRF": "hdrf"}


def _make_cli_partitioner(args):
    """Sequential partitioner by name, or its sharded parallel variant
    when any of ``--runner``/``--n-workers``/``--sync-interval``/
    ``--parallel-phase1`` asks for one (each flag alone activates the
    parallel path — none may be silently ignored)."""
    missing = missing_backends()
    if args.backend in missing:
        # An *explicit* request for an optional backend fails loudly;
        # only the library-level resolution degrades to the default
        # (see repro.kernels, "Optional backends").
        raise PartitioningError(
            f"kernel backend {args.backend!r} is unavailable on this "
            f"host: {missing[args.backend]}. Drop --backend to use the "
            f"default ({kernels.DEFAULT_BACKEND!r})."
        )
    workers = getattr(args, "workers", None)
    parallel_flags = (args.runner, args.n_workers, args.sync_interval, workers)
    if all(flag is None for flag in parallel_flags) and not args.parallel_phase1:
        if not args.packed_state:
            return make_partitioner(args.algorithm, backend=args.backend)
        mode = _PARALLEL_MODES.get(args.algorithm)
        if mode is None:
            raise ReproError(
                f"--packed-state applies only to "
                f"{sorted(_PARALLEL_MODES)}, not {args.algorithm!r}"
            )
        return TwoPhasePartitioner(
            mode=mode, backend=args.backend, packed_state=True
        )
    mode = _PARALLEL_MODES.get(args.algorithm)
    if mode is None:
        raise ReproError(
            f"--runner/--n-workers/--sync-interval/--parallel-phase1 apply "
            f"only to {sorted(_PARALLEL_MODES)}, not {args.algorithm!r}"
        )
    runner = args.runner
    n_workers = args.n_workers
    if workers is not None:
        # --workers host:port,... names pre-started socket workers: it
        # implies the distributed runner and fixes the worker count.
        if runner not in (None, "distributed"):
            raise ReproError(
                f"--workers applies to --runner distributed, not {runner!r}"
            )
        specs = [spec for spec in workers.split(",") if spec]
        if n_workers is not None and n_workers != len(specs):
            raise ReproError(
                f"--n-workers {n_workers} contradicts the "
                f"{len(specs)} --workers specs"
            )
        runner = DistributedRunner(workers=specs)
        n_workers = len(specs)
    return ParallelTwoPhase(
        n_workers=n_workers if n_workers is not None else 4,
        sync_interval=(
            args.sync_interval if args.sync_interval is not None else 65536
        ),
        mode=mode,
        backend=args.backend,
        runner=runner or "simulated",
        parallel_phase1=args.parallel_phase1,
        packed_state=args.packed_state,
    )


def _cmd_partition(args) -> int:
    device = _DEVICES[args.device]() if args.device else None
    stream = FileEdgeStream(
        args.input,
        n_vertices=args.n_vertices,
        device=device,
        prefetch=args.prefetch,
    )
    partitioner = _make_cli_partitioner(args)
    result = partitioner.partition(
        stream,
        args.k,
        alpha=args.alpha,
        chunk_size=args.chunk_size,
    )
    print(f"partitioner       : {result.partitioner}")
    if args.backend:
        print(f"kernel backend    : {args.backend}")
    if "runner" in result.extras:
        kind = "measured" if result.extras["measured_wallclock"] else "modeled"
        print(f"runner            : {result.extras['runner']}")
        print(
            f"workers / syncs   : {result.extras['n_workers']} / "
            f"{result.extras['syncs']}"
        )
        print(
            f"parallel phase-2  : {result.extras['parallel_wall_s']:.4f} s "
            f"({kind})"
        )
        if result.extras.get("parallel_phase1"):
            # The serial runner runs Phase 1 sequentially (0 syncs), so
            # the count itself tells the truth about the sharding.
            print(
                f"phase-1 syncs     : {result.extras['phase1_syncs']}"
            )
    print(f"k / alpha         : {result.k} / {result.alpha}")
    print(f"edges / vertices  : {result.n_edges} / {result.n_vertices}")
    print(f"replication factor: {result.replication_factor:.4f}")
    print(f"measured alpha    : {result.measured_alpha:.4f}")
    print(f"wall seconds      : {result.wall_seconds:.4f}")
    print(f"model seconds     : {result.model_seconds():.4f}")
    print(f"state bytes       : {result.state_bytes}")
    if device is not None:
        print(
            f"simulated I/O     : {stream.stats.simulated_read_seconds:.4f} s "
            f"on {args.device}"
        )
    if args.out:
        result.assignments.astype("<i4").tofile(args.out)
        print(f"assignments       : {result.assignments.shape[0]} ids -> {args.out}")
    if args.out_dir:
        edges = stream.materialize().edges
        manifest = write_partitioned(
            args.out_dir, edges, result.assignments, args.k, result.n_vertices
        )
        print(
            f"partitioned data  : {sum(manifest['edge_counts'])} edges in "
            f"{args.k} files -> {args.out_dir}"
        )
    return 0


def _cmd_worker(args) -> int:
    """Run a standalone distributed-partitioning socket worker."""

    def ready(host: str, port: int) -> None:
        # Machine-readable bound address, flushed before accepting, so
        # scripts can scrape the port a port-0 worker actually got.
        print(f"worker listening on {host}:{port}", flush=True)

    served = serve_worker(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        ready=ready,
    )
    print(f"worker served {served} session(s)")
    return 0


def _cmd_process(args) -> int:
    """Run a simulated distributed workload over partitioned output."""
    from repro.processing import (
        ConnectedComponents,
        GnnEpoch,
        PageRank,
        PartitionedGraph,
        PregelEngine,
    )

    graphs, manifest = load_partitioned(args.dir)
    k = manifest["k"]
    n = manifest.get("n_vertices")
    pieces = [g.edges for g in graphs if g.n_edges]
    edges = np.concatenate(pieces)
    assignments = np.concatenate(
        [
            np.full(g.n_edges, p, dtype=np.int32)
            for p, g in enumerate(graphs)
            if g.n_edges
        ]
    )
    if n is None:
        n = int(edges.max()) + 1
    pgraph = PartitionedGraph(edges, assignments, k, n)
    workloads = {
        "pagerank": lambda: PageRank(),
        "components": lambda: ConnectedComponents(),
        "gnn": lambda: GnnEpoch(),
    }
    workload = workloads[args.workload]()
    _, report = PregelEngine().run(
        pgraph, workload, max_supersteps=args.supersteps
    )
    print(f"workload          : {args.workload}")
    print(f"workers (k)       : {k}")
    print(f"replication factor: {pgraph.replication_factor():.4f}")
    print(f"supersteps        : {report.supersteps}")
    print(f"converged         : {report.converged}")
    print(f"messages          : {report.total_messages}")
    print(f"simulated seconds : {report.total_seconds:.3f}")
    return 0


def _cmd_serve_export(args) -> int:
    """Persist a partitioning as a memory-mappable lookup store."""
    from repro.serving import PartitionStore

    edges = np.fromfile(args.input, dtype="<u4").reshape(-1, 2)
    if args.assignments is not None:
        # Pipeline hand-off: consume the int32 vector `partition --out`
        # wrote, rebuilding replicas/sizes — no re-partitioning.
        assignments = np.fromfile(args.assignments, dtype="<i4")
        store = PartitionStore.from_assignments(
            args.store,
            edges,
            assignments,
            args.k,
            alpha=args.alpha,
            n_vertices=args.n_vertices,
            partitioner=args.algorithm,
        )
    else:
        stream = FileEdgeStream(args.input, n_vertices=args.n_vertices)
        partitioner = make_partitioner(args.algorithm)
        result = partitioner.partition(stream, args.k, alpha=args.alpha)
        store = PartitionStore.write(args.store, result, edges)
    print(f"store             : {store.directory}")
    print(f"k / vertices      : {store.k} / {store.n_vertices}")
    print(f"edges             : {store.n_edges}")
    print(f"store bytes       : {store.nbytes()}")
    return 0


def _cmd_lookup(args) -> int:
    """Serve placement queries from an exported partition store."""
    from repro.serving import LookupService, PartitionStore

    store = PartitionStore.open(args.store)
    if args.verify:
        store.verify()
        print("checksums         : OK")
    svc = LookupService(store)
    if args.vertex:
        ids = np.asarray(args.vertex, dtype=np.int64)
        routed = svc.vertex_partitions(ids, hint=args.hint)
        for v, p in zip(ids.tolist(), routed.tolist()):
            replicas = svc.replica_set(v).tolist()
            print(f"vertex {v} -> partition {p} (replicas {replicas})")
    if args.edge:
        u, v = args.edge
        print(f"edge ({u}, {v}) -> partition {svc.edge_partition(u, v)}")
    return 0


def _cmd_info(args) -> int:
    stream = FileEdgeStream(args.input)
    n_seen = -1
    m = 0
    for chunk in stream.chunks():
        m += chunk.shape[0]
        if chunk.size:
            n_seen = max(n_seen, int(chunk.max()))
    print(f"edges       : {m}")
    print(f"max vertex  : {n_seen}")
    print(f"bytes       : {m * 8}")
    return 0


def _cmd_experiment(args) -> int:
    """Delegate to the experiment dispatcher."""
    from repro.experiments.__main__ import main as experiments_main

    argv = [args.name]
    if args.scale is not None:
        argv += ["--scale", str(args.scale)]
    return experiments_main(argv)


def _cmd_list(args) -> int:
    print("datasets:")
    for spec in DATASETS.values():
        print(
            f"  {spec.name:4s} {spec.kind:6s} paper |E|={spec.paper_edges:>14,d} "
            f"stand-in |E|~{spec.standin_edges:>9,d}"
        )
    print("algorithms:")
    for name in ALL_PARTITIONERS:
        print(f"  {name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro-partition argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-partition",
        description="2PS-L out-of-core edge partitioning toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a dataset stand-in to disk")
    gen.add_argument("--dataset", default=None, choices=sorted(DATASETS))
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument(
        "--rmat-scale",
        type=int,
        default=None,
        help="generate an R-MAT graph of 2**SCALE vertices streamed "
        "straight to disk in bounded memory (instead of --dataset)",
    )
    gen.add_argument(
        "--edge-factor",
        type=int,
        default=16,
        help="edges per vertex for --rmat-scale (default 16)",
    )
    gen.add_argument(
        "--batch-edges",
        type=int,
        default=1 << 20,
        help="generation batch size for --rmat-scale; bounds peak memory",
    )
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    part = sub.add_parser("partition", help="partition a binary edge list")
    part.add_argument("--input", required=True)
    part.add_argument(
        "--algorithm", default="2PS-L", choices=sorted(ALL_PARTITIONERS)
    )
    part.add_argument("--k", type=int, required=True)
    part.add_argument("--alpha", type=float, default=1.05)
    part.add_argument("--n-vertices", type=int, default=None)
    part.add_argument(
        "--backend",
        # Known-but-unavailable optional backends (``c`` without a
        # working compiler) stay listed so the request reaches the clear
        # PartitioningError instead of an argparse usage error.
        choices=sorted(set(available_backends()) | set(missing_backends())),
        default=None,
        help="kernel backend for the streaming passes "
        f"(default: {kernels.DEFAULT_BACKEND}; backends are bit-exact)",
    )
    part.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="edges per stream chunk for every pass (perf knob only)",
    )
    part.add_argument(
        "--runner",
        choices=sorted(RUNNERS),
        default=None,
        help="execution runner for the sharded parallel path (2PS-L / "
        "2PS-HDRF only); 'process' runs real multiprocessing workers "
        "over loopback sockets, worker 0 in this process",
    )
    part.add_argument(
        "--n-workers",
        type=int,
        default=None,
        help="parallel partitioner instances (implies the parallel path; "
        "default 4 when --runner is given)",
    )
    part.add_argument(
        "--workers",
        default=None,
        metavar="HOST:PORT,...",
        help="comma-separated addresses of pre-started distributed "
        "workers (the 'worker' subcommand); implies --runner "
        "distributed with one shard per address and needs a "
        "file-backed --input (workers stream their own shards)",
    )
    part.add_argument(
        "--sync-interval",
        type=int,
        default=None,
        help="edges per worker between state synchronizations (implies "
        "the parallel path; default 65536 when it is active)",
    )
    part.add_argument(
        "--parallel-phase1",
        action="store_true",
        help="shard the Phase-1 degree and clustering passes through the "
        "runner too (implies the parallel path; bit-exact with the "
        "sequential Phase 1 at --n-workers 1)",
    )
    part.add_argument(
        "--packed-state",
        action="store_true",
        help="store the replica matrix bit-packed (ceil(k/8) bytes per "
        "vertex; 2PS-L / 2PS-HDRF only, bit-exact with dense)",
    )
    part.add_argument(
        "--prefetch",
        action="store_true",
        help="double-buffer file reads through a background thread "
        "(wall-clock knob only; chunks and I/O accounting are identical)",
    )
    part.add_argument("--device", choices=sorted(_DEVICES), default=None)
    part.add_argument("--out", default=None, help="write int32 assignments")
    part.add_argument(
        "--out-dir",
        default=None,
        help="write the partitioned graph (one edge file per partition + manifest)",
    )
    part.set_defaults(func=_cmd_partition)

    wrk = sub.add_parser(
        "worker",
        help="run a distributed-partitioning worker server "
        "(pair with partition --workers host:port,...)",
    )
    wrk.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default loopback; use 0.0.0.0 to "
        "accept coordinators from other hosts)",
    )
    wrk.add_argument(
        "--port",
        type=int,
        default=0,
        help="port to bind (default 0: the OS picks one, printed on stdout)",
    )
    wrk.add_argument(
        "--max-sessions",
        type=int,
        default=None,
        help="exit after serving this many coordinator sessions "
        "(default: serve until killed)",
    )
    wrk.set_defaults(func=_cmd_worker)

    proc = sub.add_parser(
        "process", help="run a simulated distributed workload on partitioned data"
    )
    proc.add_argument("--dir", required=True, help="partitioned output directory")
    proc.add_argument(
        "--workload",
        choices=("pagerank", "components", "gnn"),
        default="pagerank",
    )
    proc.add_argument("--supersteps", type=int, default=30)
    proc.set_defaults(func=_cmd_process)

    info = sub.add_parser("info", help="statistics of a binary edge list")
    info.add_argument("--input", required=True)
    info.set_defaults(func=_cmd_info)

    exp_store = sub.add_parser(
        "serve-export",
        help="persist a partitioning as a memory-mappable lookup store",
    )
    exp_store.add_argument("--input", required=True, help="binary edge list")
    exp_store.add_argument("--k", type=int, required=True)
    exp_store.add_argument("--alpha", type=float, default=1.05)
    exp_store.add_argument("--n-vertices", type=int, default=None)
    exp_store.add_argument(
        "--algorithm", default="2PS-L", choices=sorted(ALL_PARTITIONERS)
    )
    exp_store.add_argument(
        "--assignments",
        default=None,
        help="int32 assignment file from `partition --out`; when given, "
        "replicas and sizes are rebuilt from it instead of re-partitioning",
    )
    exp_store.add_argument("--store", required=True, help="store directory")
    exp_store.set_defaults(func=_cmd_serve_export)

    lkp = sub.add_parser(
        "lookup", help="query vertex/edge placement from an exported store"
    )
    lkp.add_argument("--store", required=True, help="store directory")
    lkp.add_argument(
        "--vertex",
        type=int,
        nargs="+",
        default=None,
        help="vertex id(s) to route (batched when several are given)",
    )
    lkp.add_argument(
        "--hint",
        type=int,
        default=None,
        help="caller partition: preferred when the vertex has a replica there",
    )
    lkp.add_argument(
        "--edge",
        type=int,
        nargs=2,
        metavar=("U", "V"),
        default=None,
        help="edge endpoints to look up",
    )
    lkp.add_argument(
        "--verify",
        action="store_true",
        help="recompute the store's CRC-32 checksums before serving",
    )
    lkp.set_defaults(func=_cmd_lookup)

    exp = sub.add_parser(
        "experiment", help="regenerate a paper table/figure (or 'all')"
    )
    exp.add_argument("name", help="experiment id, e.g. figure2, table4, all")
    exp.add_argument("--scale", type=float, default=None)
    exp.set_defaults(func=_cmd_experiment)

    lst = sub.add_parser("list", help="list datasets and algorithms")
    lst.set_defaults(func=_cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
