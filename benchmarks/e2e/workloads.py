"""The benchmark's four workloads: set-up, closed-loop timing, output
checks and the traced repetition.

Every workload is a closed loop with one client: it issues the next
operation only after the previous one returned.  Partition workloads
time whole ``partition()`` calls; ``serve`` times rounds of lookups.
Inputs come from the seed only; the program sees just the generated
graph and queries.
"""

from __future__ import annotations

import ctypes
import gc
import itertools
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from e2e import trace as tracing
from e2e.cpuspeed import Timed
from repro.core.parallel import ParallelTwoPhase
from repro.core.partitioner import TwoPhasePartitioner
from repro.graph.generators import rmat_edge_file, rmat_graph
from repro.kernels import get_backend
from repro.serving import LookupService, PartitionStore
from repro.streaming.stream import FileEdgeStream, InMemoryEdgeStream

K = 32
ALPHA = 1.05
EDGE_FACTOR = 16
#: Scale of the graph every set-up partitions once, so lazy first-use
#: work of a configuration lands in ``setup_s``.
WARMUP_SCALE = 10
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

# serve traffic, per round at scale 16 (scaled with |E| below that)
SCALAR_LOOKUPS = 40_000
BATCHED_LOOKUPS = 1 << 20
BATCH = 4096
HOT_SET = 1024
HOT_SHARE = 0.9
EDGE_MISS_SHARE = 0.2
CACHE_SIZE = 4096


@dataclass
class Checks:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def add(self, attempted: int, errors: list[str]) -> None:
        self.attempted += attempted
        if errors:
            self.failed += min(len(errors), attempted)
            self.reasons.extend(errors[: 5 - len(self.reasons)])

    def count(self, attempted: int, mismatches: int, what: str) -> None:
        self.attempted += attempted
        self.failed += mismatches
        if mismatches and len(self.reasons) < 5:
            self.reasons.append(f"{what}: {mismatches} wrong answers")


@dataclass
class RunContext:
    """What one benchmark run works with and accumulates."""

    work: Path
    scale: int
    seed: int
    seconds: float
    trace: int
    checks: Checks = field(default_factory=Checks)
    spans: list = field(default_factory=list)

    def setups(self, set_up):
        """Time ``set_up(i)`` :data:`SETUP_REPEATS` times; returns the
        last value and every set-up's :class:`Timed`."""
        value, timings = None, []
        for i in range(SETUP_REPEATS):
            value = None
            settle()
            with Timed() as t:
                value = set_up(i)
            timings.append(t)
        settle()
        return value, timings

    def closed_loop(self, min_reps: int, step, cycle: int = 1) -> list:
        """Call ``step()`` (returning ``(Timed, value)``) until at least
        ``min_reps`` calls and ``self.seconds`` measured seconds, in
        whole cycles of ``cycle`` calls; returns what it returned."""
        reps: list = []
        while (
            len(reps) < min_reps
            or sum(t.seconds for t, _ in reps) < self.seconds
            or len(reps) % cycle
        ):
            settle()
            reps.append(step())
        return reps


def settle() -> None:
    """Collect garbage and hand the allocator's free pages back to the
    system, so that every operation starts from the same heap.  Without
    the trim, how much freed memory the allocator keeps differs from
    run to run by tens of MB, and ``peak_rss_mb`` with it."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc


def at_reference(timings) -> float:
    """Median seconds at the reference CPU speed."""
    return statistics.median(t.at_reference for t in timings)


def samples(timings) -> list[tuple[float, float]]:
    """``(wall seconds, slowdown)`` of each timing, for the run record."""
    return [(t.seconds, t.slowdown) for t in timings]


def peak_rss_mb() -> float:
    """Own peak RSS plus the largest waited-for child's, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def graph_seed(seed: int, index: int):
    """Seed of a run's ``index``-th graph: the run's seed for the first,
    ``[seed, index]`` for the others."""
    return seed if index == 0 else [seed, index]


def _scaled(count: int, scale: int, floor: int) -> int:
    return max(floor, count >> max(16 - scale, 0))


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def check_partition(result, stream, sequential: bool) -> list[str]:
    """Assignments in range, sizes equal their bincount, replicas equal
    the matrix recomputed from the assignments, and (sequential runs)
    no partition above the hard cap."""
    a = np.asarray(result.assignments)
    if a.shape[0] != stream.n_edges:
        return [f"{a.shape[0]} assignments for {stream.n_edges} edges"]
    if a.size and (int(a.min()) < 0 or int(a.max()) >= K):
        return [f"partition ids outside [0, {K})"]
    errors = []
    sizes = np.asarray(result.state.sizes)
    if not np.array_equal(sizes, np.bincount(a, minlength=K)):
        errors.append("sizes != bincount(assignments)")
    expect = np.zeros((result.n_vertices, K), dtype=bool)
    pos = 0
    for chunk in stream.chunks():
        part = a[pos : pos + chunk.shape[0]]
        expect[chunk[:, 0], part] = True
        expect[chunk[:, 1], part] = True
        pos += chunk.shape[0]
    if not np.array_equal(np.asarray(result.state.replicas, dtype=bool), expect):
        errors.append("replica matrix != recomputed from assignments")
    if sequential and int(sizes.max()) > result.state.capacity:
        errors.append(f"max size {int(sizes.max())} above cap {result.state.capacity}")
    return errors


def same_partitioning(result, reference) -> bool:
    return (
        np.array_equal(result.assignments, reference.assignments)
        and np.array_equal(
            np.asarray(result.state.sizes), np.asarray(reference.state.sizes)
        )
        and np.array_equal(
            np.asarray(result.state.replicas, dtype=bool),
            np.asarray(reference.state.replicas, dtype=bool),
        )
    )


# ----------------------------------------------------------------------
# traced repetition -> per-layer metrics
# ----------------------------------------------------------------------
#: Span name -> per-layer metric its self time adds to.
SPAN_METRICS = {
    "degree_pass": "kernels.degree_s",
    "clustering_true_pass": "kernels.clustering_s",
    "clustering_partial_pass": "kernels.clustering_s",
    "prepartition_pass": "kernels.prepartition_s",
    "remaining_pass_linear": "kernels.remaining_s",
    "remaining_pass_hdrf": "kernels.remaining_s",
    "merge_phase1_degrees": "kernels.merge_s",
    "merge_phase1_clustering": "kernels.merge_s",
    "EdgeStream.chunks": "streaming.wait_s",
    "graham_schedule": "core.mapping_s",
    "partition": "core.driver_self_s",
    "run_phase1": "core.driver_self_s",
    "Runner.open": "runners.open_s",
    "RunnerSession.run_degree_pass": "runners.phase1_s",
    "RunnerSession.run_clustering": "runners.phase1_s",
    "RunnerSession.bind_phase2": "runners.bind_s",
    "RunnerSession.run_pass:prepartition": "runners.prepartition_s",
    "RunnerSession.run_pass:remaining_linear": "runners.remaining_s",
    "RunnerSession.run_pass:remaining_hdrf": "runners.remaining_s",
    "RunnerSession.finalize": "runners.close_s",
    "RunnerSession.close": "runners.close_s",
    "PartitionStore.write": "serving.write_s",
    "PartitionStore.open": "serving.open_s",
    "PartitionStore.verify": "serving.verify_s",
    "LookupService.vertex_partitions[batch]": "serving.batch_s",
}

def span_metrics(spans, worker_spans, slowdown: float) -> dict[str, float]:
    """Per-layer self seconds (at the reference CPU speed) from the
    parent's and the workers' spans, plus ``trace.reconcile_err``: how
    far the self times under the ``partition()`` root miss its duration
    (0 by construction)."""
    out: dict[str, float] = {}
    for name, row in tracing.summarize(spans + worker_spans).items():
        metric = SPAN_METRICS.get(name)
        if metric is not None:
            out[metric] = out.get(metric, 0.0) + row["self_s"] / slowdown
    roots = [s for s in spans if s.name == "partition" and s.parent is None]
    if roots:
        root = roots[0]
        below = {root.id}
        for s in sorted(spans, key=lambda s: s.start_ns):
            if s.parent in below:
                below.add(s.id)
        own = tracing.self_times(spans)
        total = sum(own[(root.pid, sid)] for sid in below)
        duration = root.end_ns - root.start_ns
        out["core.partition_s"] = duration / 1e9 / slowdown
        out["trace.reconcile_err"] = abs(total - duration) / duration
    return out


def result_counters(result) -> dict[str, float]:
    m = result.n_edges
    extras = result.extras
    out = {
        "kernels.remaining_edges": extras["remaining_edges"],
        "kernels.prepartition_ratio": extras["prepartitioned_edges"] / m,
        "kernels.score_evaluations": result.cost.score_evaluations,
        "kernels.hash_evaluations": result.cost.hash_evaluations,
        "core.clusters": extras["n_clusters"],
        "state.replica_bytes": result.state.replicas.nbytes,
    }
    if "syncs" in extras:
        out["runners.syncs"] = extras["syncs"]
        out["runners.phase1_syncs"] = extras["phase1_syncs"]
        out["runners.barrier_cells_ratio"] = (
            extras["barrier_bytes"] / extras["barrier_bytes_full"]
        )
    return out


def traced_call(work: Path, run_id: str, fn, *, backend, stream, partitioner):
    """Run ``fn()`` once with every seam wrapped; returns ``(value,
    Timed, spans, worker_spans)`` with the wrappers removed again."""
    spans_dir = work / "worker-spans"
    spans_dir.mkdir(exist_ok=True)
    tracer = tracing.Tracer(run_id, worker_dir=str(spans_dir))
    tracing.install(tracer, backend=backend, stream=stream, partitioner=partitioner)
    try:
        settle()
        with Timed() as timing:
            value = fn()
    finally:
        tracer.uninstall()
    return value, timing, tracer.spans, tracer.worker_spans()


# ----------------------------------------------------------------------
# partition workloads
# ----------------------------------------------------------------------
@dataclass
class PartitionWorkload:
    """One partitioner configuration on one kind of stream.

    The timed loop cycles through ``graphs`` graphs (see
    :func:`graph_seed`): the work per edge moves with the graph, so
    several of them make a run's throughput less seed-dependent.  The
    cross-implementation pin and the traced repetition use the first.
    """

    name: str
    min_reps: int
    file_stream: bool
    make: Callable[[], object]
    make_reference: Callable[[], object]
    sequential: bool
    graphs: int = 1

    def make_input(self, work: Path, scale: int, seed, tag: str):
        """The R-MAT graph, or the path and vertex count of its file."""
        if self.file_stream:
            path = work / f"{tag}.bin"
            n, _ = rmat_edge_file(path, scale, EDGE_FACTOR, seed=seed)
            return path, n
        return rmat_graph(scale, EDGE_FACTOR, seed=seed)

    def open_stream(self, source):
        if self.file_stream:
            path, n = source
            return FileEdgeStream(path, n_vertices=n, prefetch=True)
        return InMemoryEdgeStream(source)

    def run(self, ctx: RunContext):
        with Timed() as made:
            sources = [
                self.make_input(
                    ctx.work, ctx.scale, graph_seed(ctx.seed, g), f"graph{g}"
                )
                for g in range(self.graphs)
            ]

        def set_up(i):
            streams = [self.open_stream(source) for source in sources]
            warm = self.make_input(ctx.work, WARMUP_SCALE, ctx.seed, f"warmup{i}")
            partitioner = self.make()
            partitioner.partition(self.open_stream(warm), K, ALPHA)
            return streams, partitioner

        (streams, partitioner), setups = ctx.setups(set_up)
        stream = streams[0]
        order = itertools.cycle(range(self.graphs))
        last = None  # the latest result on the first graph

        def partition_once():
            nonlocal last
            g = next(order)
            if g == 0:
                last = None
            result = None
            with Timed() as t:
                result = partitioner.partition(streams[g], K, ALPHA)
            ctx.checks.add(1, check_partition(result, streams[g], self.sequential))
            if g == 0:
                last = result
            return t, (g, result.replication_factor, result.measured_alpha)

        reps = ctx.closed_loop(self.min_reps, partition_once, cycle=self.graphs)
        timings = [t for t, _ in reps]
        quality: dict[int, tuple] = {}
        drifted = []
        for _, (g, *q) in reps:
            first = quality.setdefault(g, tuple(q))
            if tuple(q) != first:
                drifted.append(f"graph {g}: quality {tuple(q)} != first rep's {first}")
        ctx.checks.add(len(reps) - len(quality), drifted)
        rss = peak_rss_mb()
        workers_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

        reference = self.make_reference().partition(stream, K, ALPHA)
        ctx.checks.add(
            1,
            []
            if same_partitioning(last, reference)
            else [f"{self.name}: result differs from its reference twin"],
        )
        last = reference = None

        # per graph, the median seconds of one partition() call
        seconds = [
            at_reference([t for t, (g, *_) in reps if g == i])
            for i in range(self.graphs)
        ]
        median = seconds[0]  # on the graph the traced repetition uses
        throughput = sum(s.n_edges for s in streams) / sum(seconds)
        metrics = {
            "edges_per_s": throughput,
            "ops_per_s": throughput,
            "replication_factor": statistics.fmean(q[0] for q in quality.values()),
            "balance_alpha": max(q[1] for q in quality.values()),
            "peak_rss_mb": rss,
            "setup_s": at_reference(setups),
            "graph.input_s": made.at_reference,
            "host.slowdown": statistics.median(t.slowdown for t in timings),
        }
        record = {"partition": samples(timings), "setup": samples(setups)}
        if not ctx.trace:
            return metrics, record

        edges_before = stream.stats.edges_read
        traced, timing, spans, worker_spans = traced_call(
            ctx.work,
            f"{self.name}-seed{ctx.seed}",
            lambda: partitioner.partition(stream, K, ALPHA),
            backend=get_backend(partitioner.backend),
            stream=stream,
            partitioner=partitioner,
        )
        streamed = stream.stats.edges_read - edges_before
        ctx.checks.add(1, check_partition(traced, stream, self.sequential))
        layer = span_metrics(spans, worker_spans, timing.slowdown)
        layer.update(result_counters(traced))
        layer["streaming.edges"] = streamed
        layer["trace.overhead_frac"] = timing.at_reference / median - 1.0
        if "runners.syncs" in layer:
            layer["runners.worker_peak_rss_mb"] = workers_rss
        metrics.update(layer)
        ctx.spans.extend(spans + worker_spans)
        return metrics, record


WORKLOADS: dict[str, object] = {}


def _register(workload) -> None:
    WORKLOADS[workload.name] = workload


_register(
    PartitionWorkload(
        name="mem-dense",
        min_reps=8,
        file_stream=False,
        make=lambda: TwoPhasePartitioner(),
        make_reference=lambda: TwoPhasePartitioner(backend="python"),
        sequential=True,
        graphs=4,
    )
)
_register(
    PartitionWorkload(
        name="file-packed",
        min_reps=3,
        file_stream=True,
        make=lambda: TwoPhasePartitioner(packed_state=True),
        make_reference=lambda: TwoPhasePartitioner(),
        sequential=True,
        graphs=3,
    )
)


def _sharded(runner: str) -> ParallelTwoPhase:
    return ParallelTwoPhase(
        n_workers=2,
        runner=runner,
        parallel_phase1=True,
        sync_interval=65536,
    )


_register(
    PartitionWorkload(
        name="sharded-2w",
        min_reps=7,
        file_stream=False,
        make=lambda: _sharded("process"),
        make_reference=lambda: _sharded("simulated"),
        sequential=False,
    )
)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def publish(directory: Path, result, edges) -> LookupService:
    """Write a result to a store, reopen it memory-mapped, verify it."""
    PartitionStore.write(directory, result, edges)
    store = PartitionStore.open(directory)
    store.verify()
    return LookupService(store, cache_size=CACHE_SIZE)


def edge_key(us, vs) -> np.ndarray:
    return (np.asarray(us, dtype=np.uint64) << np.uint64(32)) | np.asarray(
        vs, dtype=np.uint64
    )


@dataclass
class Expected:
    """Answers derived from the in-memory ``PartitionResult``."""

    route: np.ndarray  # vertex -> least-loaded replica partition, or -1
    keys: np.ndarray  # sorted distinct edge keys
    owner: np.ndarray  # partition of each key's first stream occurrence

    @classmethod
    def of(cls, result, edges) -> "Expected":
        replicas = np.asarray(result.state.replicas, dtype=bool)
        # partitions from least to most loaded, ties by lowest id
        order = np.lexsort((np.arange(result.k), result.state.sizes))
        by_load = replicas[:, order]
        route = order[by_load.argmax(axis=1)].astype(np.int32)
        route[~by_load.any(axis=1)] = -1
        keys, first = np.unique(edge_key(edges[:, 0], edges[:, 1]), return_index=True)
        return cls(route, keys, np.asarray(result.assignments)[first])

    def edges(self, us, vs) -> np.ndarray:
        keys = edge_key(us, vs)
        pos = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
        return np.where(self.keys[pos] == keys, self.owner[pos], -1)


@dataclass
class Queries:
    vertices: np.ndarray
    edge_us: np.ndarray
    edge_vs: np.ndarray
    batched: np.ndarray


@dataclass
class Round:
    vertex_answers: np.ndarray
    edge_answers: np.ndarray
    batched_answers: np.ndarray
    vertex_ns: np.ndarray
    edge_ns: np.ndarray
    seconds: float
    batched_seconds: float

    def summary(self, slowdown: float) -> dict[str, float]:
        """Per-round metrics at the reference CPU speed."""
        lookups = (
            self.vertex_answers.size
            + self.edge_answers.size
            + self.batched_answers.size
        )
        us = 1e3 * slowdown
        return {
            "ops_per_s": lookups * slowdown / self.seconds,
            "lookup_p50_us": float(np.median(self.vertex_ns)) / us,
            "lookup_p99_us": float(np.percentile(self.vertex_ns, 99)) / us,
            "edge_lookup_p50_us": float(np.median(self.edge_ns)) / us,
            "batched_lookups_per_s": (
                self.batched_answers.size * slowdown / self.batched_seconds
            ),
        }


def serve_round(service: LookupService, q: Queries) -> Round:
    """One client round: scalar vertex lookups, scalar edge lookups,
    then batched vertex lookups, each issued after the last returned."""
    clock = time.perf_counter_ns
    vertex_partitions = service.vertex_partitions
    edge_partition = service.edge_partition
    v_ns, v_ans, e_ns, e_ans = [], [], [], []
    start = clock()
    for v in q.vertices.tolist():
        t = clock()
        answer = vertex_partitions(v)
        v_ns.append(clock() - t)
        v_ans.append(answer)
    for u, v in zip(q.edge_us.tolist(), q.edge_vs.tolist()):
        t = clock()
        answer = edge_partition(u, v)
        e_ns.append(clock() - t)
        e_ans.append(answer)
    batched_start = clock()
    b_ans = np.empty(q.batched.shape[0], dtype=np.int32)
    for lo in range(0, q.batched.shape[0], BATCH):
        b_ans[lo : lo + BATCH] = vertex_partitions(q.batched[lo : lo + BATCH])
    end = clock()
    return Round(
        np.array(v_ans),
        np.array(e_ans),
        b_ans,
        np.array(v_ns),
        np.array(e_ns),
        (end - start) / 1e9,
        (end - batched_start) / 1e9,
    )


class ServeWorkload:
    """Partition once in set-up, publish a store, then serve lookups."""

    name = "serve"
    min_reps = 5

    @staticmethod
    def set_up(work: Path, result, edges, seed: int, tag: str) -> LookupService:
        """Publish the store, then warm the same path up on a scale-10
        graph's store."""
        service = publish(work / f"store-{tag}", result, edges)
        small = rmat_graph(WARMUP_SCALE, EDGE_FACTOR, seed=seed)
        small_result = TwoPhasePartitioner().partition(
            InMemoryEdgeStream(small), K, ALPHA
        )
        warm = publish(work / f"warmup-{tag}", small_result, small.edges)
        u, v = (int(x) for x in small.edges[0])
        warm.vertex_partitions(u)
        warm.edge_partition(u, v)
        warm.vertex_partitions(small.edges[:BATCH, 0])
        return service

    @staticmethod
    def queries(rng, graph, expected: Expected, hot, n_scalar, n_batched):
        n = graph.n_vertices
        from_hot = rng.random(n_scalar) < HOT_SHARE
        vertices = np.where(
            from_hot,
            hot[rng.integers(0, hot.size, n_scalar)],
            rng.integers(0, n, n_scalar),
        )
        picked = graph.edges[rng.integers(0, graph.n_edges, n_scalar)]
        us, vs = picked[:, 0].copy(), picked[:, 1].copy()
        miss = rng.random(n_scalar) < EDGE_MISS_SHARE
        n_miss = int(miss.sum())
        cand_u = rng.integers(0, n, 2 * n_miss + 64)
        cand_v = rng.integers(0, n, 2 * n_miss + 64)
        absent = expected.edges(cand_u, cand_v) < 0
        if int(absent.sum()) < n_miss:
            raise RuntimeError("not enough absent edges for the miss share")
        us[miss] = cand_u[absent][:n_miss]
        vs[miss] = cand_v[absent][:n_miss]
        # int32 keeps the client's own arrays small next to the service's
        batched = rng.integers(0, n, n_batched, dtype=np.int32)
        return Queries(vertices, us, vs, batched)

    @staticmethod
    def verify(r: Round, q: Queries, expected: Expected, checks: Checks):
        checks.count(
            r.vertex_answers.size,
            int((r.vertex_answers != expected.route[q.vertices]).sum()),
            "scalar vertex_partitions",
        )
        checks.count(
            r.edge_answers.size,
            int((r.edge_answers != expected.edges(q.edge_us, q.edge_vs)).sum()),
            "scalar edge_partition",
        )
        checks.count(
            r.batched_answers.size,
            int((r.batched_answers != expected.route[q.batched]).sum()),
            "batched vertex_partitions",
        )

    def run(self, ctx: RunContext):
        with Timed() as made:
            graph = rmat_graph(ctx.scale, EDGE_FACTOR, seed=ctx.seed)
            result = TwoPhasePartitioner().partition(
                InMemoryEdgeStream(graph), K, ALPHA
            )
        service, setups = ctx.setups(
            lambda i: self.set_up(ctx.work, result, graph.edges, ctx.seed, str(i))
        )
        expected = Expected.of(result, graph.edges)
        rng = np.random.default_rng(ctx.seed)
        n = graph.n_vertices
        hot = rng.choice(n, min(HOT_SET, n), replace=False)
        n_scalar = _scaled(SCALAR_LOOKUPS, ctx.scale, 2000)
        n_batched = _scaled(BATCHED_LOOKUPS, ctx.scale, 4 * BATCH)

        def next_queries() -> Queries:
            return self.queries(rng, graph, expected, hot, n_scalar, n_batched)

        def one_round():
            q = next_queries()
            with Timed() as t:
                r = serve_round(service, q)
            self.verify(r, q, expected, ctx.checks)
            return t, r.summary(t.slowdown)

        settle()
        one_round()  # untimed warm-up
        before = service.cache_info()
        reps = ctx.closed_loop(self.min_reps, one_round)
        timings = [t for t, _ in reps]
        rounds = [r for _, r in reps]
        after = service.cache_info()
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        rss = peak_rss_mb()

        store = service.store
        counts = np.asarray(store.replicas.sum(axis=1))
        served = (
            float(int(counts.sum())) / int((counts > 0).sum()),
            float(np.asarray(store.sizes).max()) * K / store.n_edges,
        )
        stored = (result.replication_factor, result.measured_alpha)
        ctx.checks.add(
            1, [] if served == stored else [f"served quality {served} != {stored}"]
        )

        def median_of(key: str) -> float:
            return statistics.median(r[key] for r in rounds)

        round_s = at_reference(timings)
        metrics = {
            "ops_per_s": median_of("ops_per_s"),
            "lookup_p50_us": median_of("lookup_p50_us"),
            "edge_lookup_p50_us": median_of("edge_lookup_p50_us"),
            "batched_lookups_per_s": median_of("batched_lookups_per_s"),
            "replication_factor": served[0],
            "balance_alpha": served[1],
            "peak_rss_mb": rss,
            "setup_s": at_reference(setups),
            "graph.input_s": made.at_reference,
            "host.slowdown": statistics.median(t.slowdown for t in timings),
            "serving.cache_hit_ratio": hits / max(hits + misses, 1),
            "serving.lookup_p99_us": median_of("lookup_p99_us"),
        }
        record = {"round": samples(timings), "setup": samples(setups)}
        if not ctx.trace:
            return metrics, record

        stream = InMemoryEdgeStream(graph)
        partitioner = TwoPhasePartitioner()
        q = next_queries()
        result = service = store = rounds = reps = None

        def traced_setup_and_round():
            res = partitioner.partition(stream, K, ALPHA)
            svc = publish(ctx.work / "store-traced", res, graph.edges)
            return res, serve_round(svc, q)

        (traced, r), timing, spans, worker_spans = traced_call(
            ctx.work,
            f"{self.name}-seed{ctx.seed}",
            traced_setup_and_round,
            backend=get_backend(partitioner.backend),
            stream=stream,
            partitioner=partitioner,
        )
        self.verify(r, q, Expected.of(traced, graph.edges), ctx.checks)
        layer = span_metrics(spans, worker_spans, timing.slowdown)
        layer.update(result_counters(traced))
        layer["streaming.edges"] = stream.stats.edges_read
        layer["trace.overhead_frac"] = r.seconds / timing.slowdown / round_s - 1.0
        metrics.update(layer)
        ctx.spans.extend(spans + worker_spans)
        return metrics, record


_register(ServeWorkload())
