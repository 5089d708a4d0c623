"""Execution runners: one sync-window driver over three transports.

Both 2PS-L front-ends — :class:`~repro.core.partitioner.TwoPhasePartitioner`
and :class:`~repro.core.parallel.ParallelTwoPhase` — stream every pass
of both phases through a :class:`RunnerSession`, the one driver of the
CuSP-style sync-window schedule.  The driver owns the *semantics*: stream
shards and their windows, the Phase-1 degree merge and the clustering
merge + compaction (see :mod:`repro.kernels` for the merge contract),
the Phase-2 sweep/barrier loop, cost folding, sync and barrier
accounting, and the typed error for a failed worker window.  A narrow
:class:`Transport` below it owns the *execution*: it runs one sweep of
window tasks, returning per-worker results in ascending worker order,
and publishes barrier refreshes.

- :class:`SerialRunner` — the in-process transport with one shard and one
  window per pass, which hands the stream itself to the kernels: the
  sequential pipeline, zero syncs, for any configured worker count.
- :class:`SimulatedRunner` — the in-process transport over ``n_workers``
  shards, each window run inline against its worker's stale heap view.
  Deterministic and dependency-free; parallel wall-clock is *modeled*.
- :class:`ProcessRunner` — the shared-memory pool transport: pool
  workers reopen the stream from a picklable
  :class:`~repro.streaming.stream.StreamSpec` (file streams stay
  out-of-core) and hold their state views in shared segments.  Parallel
  wall-clock is *measured*.
- :class:`~repro.core.distributed.DistributedRunner` — the socket
  transport: TCP workers (loopback, or ``host:port`` specs) speaking the
  versioned wire format of :mod:`repro.core.wire`; edge data never
  crosses the wire.  Registered lazily by :func:`make_runner`.

Equivalence contract
--------------------
Every runner executes the same deterministic schedule: worker ``w``
processes shard ``[bounds[w], bounds[w+1])`` in windows of at most
``sync_interval`` edges, and after every sweep a barrier merges worker
deltas into the global state and refreshes every stale view.  The
schedule, the merges and the accounting are the driver's code, shared by
all transports, and the kernel contract makes chunk and window
boundaries semantics-free (see :mod:`repro.kernels`).  This pins down
every output bit:

- ``process`` and ``distributed`` are **bit-identical** to ``simulated``
  under the same schedule — Phase-1 degrees and clustering, per-edge
  assignments, replica matrix, partition sizes *and* cost counters (cost
  fields are sums of per-window counts, so merge order cannot matter).
  Each transport is a value-preserving recoding of the same arithmetic:
  every transport runs a Phase-2 window through the one body
  :func:`run_phase2_window`, which reads it through ``_SubStream`` over
  the job's stream (pool and socket workers reopen it from its spec), so
  chunk boundaries agree; socket barriers ship each worker's *dirty*
  replica rows only, which is exact because a row clean in worker ``w``
  equals the pre-merge global row (packed planes cross as raw bytes and
  merge by byte-OR, dense rows as bool blocks); and socket assignment
  slices merge where ``>= 0``, the two Phase-2 passes writing disjoint
  positions.  ``simulated`` thereby doubles as the in-CI deterministic
  twin of a multi-host run.
- With ``n_workers=1`` every runner is bit-exact with the sequential
  pipeline: a lone worker's view is never stale, so it keeps one live
  clustering state (no reload, no merge) and window boundaries are
  ordinary chunk boundaries.  ``serial`` *is* the sequential pipeline for
  any worker count.
- Kernel backends stay bit-exact with each other through every runner.

``tests/test_parallel_kernels.py``, ``tests/test_distributed.py`` and the
randomized differential harness (``tests/differential.py``) enforce all of
this.

Failures
--------
An exception inside a worker's window surfaces from every sharded runner
as one :class:`~repro.errors.PartitioningError` naming the phase, the
worker, the step and the cause; the serial runner re-raises the kernel's
own exception, like the sequential partitioner.  Transport failures (a
pool task past its timeout, a dead or stalled socket worker) are typed
errors too, and ``close()`` releases everything a session holds on both
success and error paths.

Barrier cost
------------
Phase-2 barriers use **dirty-row delta bitmaps**
(:func:`repro.partitioning.state.merge_replica_deltas`): each worker view
marks the endpoint rows of the windows it streams, and the barrier ORs
and re-broadcasts only the union of dirty rows instead of the full
``|V| x k`` replica matrix.  Sessions account the merged versus the
hypothetical full row counts (``barrier_rows`` / ``barrier_full_rows``)
so the saving is measurable end to end (``BENCH_parallel.json``).

Shared-memory lifecycle
-----------------------
A process session owns every segment it creates (worker state views, the
Phase-1 clustering scratch, the read-only Phase-1 arrays, the assignment
array, and — for non-file streams — the edge array).  Session *open* ships
only a picklable stream spec and scalars to the pool, so it is O(1) in
``|V|``; the Phase-1 arrays travel through one shared segment that workers
attach lazily on first use.  Segments are unlinked in ``close()``;
``close()`` is idempotent and runs on both success and error paths, so a
crashed or timed-out worker cannot leak segments past the session
(verified by the cleanup tests; :func:`live_shared_segments` exposes the
owned set).  Workers only ever *attach* and never unlink.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import astuple, dataclass, fields

import numpy as np

from repro.errors import ConfigurationError, PartitioningError
from repro.kernels import TwoPhaseContext, get_backend
from repro.metrics.runtime import CostCounter
from repro.partitioning.state import (
    PartitionState,
    _BufferArena,
    merge_replica_deltas,
)
from repro.streaming.stream import make_stream_spec

#: Pass names a runner can execute -> kernel-backend method names.
PASS_METHODS = {
    "prepartition": "prepartition_pass",
    "remaining_linear": "remaining_pass_linear",
    "remaining_hdrf": "remaining_pass_hdrf",
}

#: Sweep steps of Phase 1; every other step is a Phase-2 pass name.
_PHASE1_STEPS = ("degree", "clustering")

_COST_FIELDS = tuple(f.name for f in fields(CostCounter))


def _merge_cost(cost: CostCounter, delta: tuple) -> None:
    """Accumulate a worker's per-window cost tuple into ``cost``."""
    for name, value in zip(_COST_FIELDS, delta):
        setattr(cost, name, getattr(cost, name) + int(value))


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class WorkerFailed(PartitioningError):
    """A worker reported an exception instead of a result.

    Transports raise it with the worker index and the cause; inside a
    sweep the driver turns it into the run's one typed error (see the
    module docstring), elsewhere it surfaces as is.
    """

    def __init__(self, worker: int, step: str, cause: str) -> None:
        super().__init__(f"worker {worker} failed during {step}: {cause}")
        self.worker = worker
        self.cause = cause


def cluster_id_capacity(n_edges: int, n_vertices: int) -> int:
    """Upper bound on live cluster ids any Phase-1 export can carry.

    Every barrier compacts the merged clustering
    (:func:`compact_clustering`), so a worker's next export is the
    compacted base plus its own window's fresh clusters.  Both terms are
    counted by *assigned vertices*: a live cluster has at least one
    assigned member (clusters only exist through members, and parallel
    clustering always folds true degrees, so a member contributes
    positive volume), and each fresh cluster assigns one
    snapshot-unassigned vertex — hence exports stay within ``|V|``.
    Assigned vertices are also endpoint first-encounters of processed
    edges, disjoint across shards, giving the ``2 * |E|`` bound.  The
    no-merge single-worker path opens at most one cluster per vertex,
    satisfying the same bound.  The worker count does not enter it.
    """
    return min(2 * int(n_edges), int(n_vertices)) + 1


def compact_clustering(
    v2c: np.ndarray, volumes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Drop zero-volume clusters, relabeling ids order-preservingly.

    Merging per-worker clustering exports leaves behind clusters whose
    members all migrated away (volume 0).  Compacting at every barrier
    keeps the id space — and with it the fixed per-worker scratch of the
    process runner (:func:`cluster_id_capacity`) — bounded by *live*
    clusters instead of cumulative allocations.

    Semantics-free by construction: assigned vertices always point at
    live clusters (a member contributes positive volume), and the relabel
    is monotone, so the volume ordering — all downstream consumers
    (Graham scheduling, cluster-to-partition lookups) are order- or
    id-composition-based — is preserved bit-exactly.
    """
    live = np.flatnonzero(volumes > 0)
    if live.shape[0] == volumes.shape[0]:
        return v2c, volumes
    remap = np.full(volumes.shape[0], -1, dtype=np.int64)
    remap[live] = np.arange(live.shape[0], dtype=np.int64)
    assigned = v2c >= 0
    out = v2c.copy()
    out[assigned] = remap[v2c[assigned]]
    return out, volumes[live]


@dataclass
class ShardedJob:
    """Everything one run shares across its passes.

    Built by the 2PS-L pipeline before Phase 1 and handed to
    ``Runner.open``; the sharded front-end sets ``n_workers`` and
    ``sync_interval`` (the sequential one keeps a single shard).  The
    Phase-1 product fields (``v2c`` .. ``degrees``) and the Phase-2
    outputs (``state``, ``assignments``) are filled in before
    :meth:`RunnerSession.bind_phase2`.  ``cost`` accumulates over the
    whole run.

    ``backend`` carries the *resolved* kernel-backend name: the parent
    resolves optional-backend fallback (``c`` without a compiler -> the
    default backend, one warning) once before opening
    the session, so every worker's ``get_backend(job.backend)`` hits a
    concrete registered backend — process-pool workers never re-detect
    optional dependencies or repeat fallback warnings.
    """

    stream: object
    backend: str | None
    k: int
    alpha: float
    hash_seed: int
    hdrf_lambda: float
    cost: CostCounter
    n_workers: int = 1
    sync_interval: int | None = None
    v2c: np.ndarray | None = None
    c2p: np.ndarray | None = None
    volumes: np.ndarray | None = None
    degrees: np.ndarray | None = None
    state: PartitionState | None = None
    assignments: np.ndarray | None = None


class _SubStream:
    """A ``[start, stop)`` stream window, consumable by kernels.

    Lazy: chunks come straight from the underlying stream's window
    iterator, so a worker holds at most one chunk of its current window
    in memory.
    """

    __slots__ = ("_stream", "_start", "_stop", "n_edges")

    n_vertices = None

    def __init__(self, stream, start: int, stop: int) -> None:
        self._stream = stream
        self._start = start
        self._stop = stop
        self.n_edges = stop - start

    def chunks(self, chunk_size=None):
        return self._stream.window(self._start, self._stop, chunk_size)


class _DirtyMarkingStream:
    """Stream wrapper that marks every chunk's endpoint rows as dirty.

    Wrapping the sync-window stream (instead of instrumenting every
    replica write inside the kernels) is exact because each Phase-2 pass
    only ever writes the replica rows of its window-edge endpoints — a
    superset mark is always safe for the delta barrier.
    """

    __slots__ = ("_inner", "_state", "n_edges")

    n_vertices = None

    def __init__(self, inner, state: PartitionState) -> None:
        self._inner = inner
        self._state = state
        self.n_edges = inner.n_edges

    def chunks(self, chunk_size=None):
        for chunk in self._inner.chunks(chunk_size):
            if chunk.size:
                self._state.mark_dirty(chunk.ravel())
            yield chunk


def _window_stream(stream, start: int, stop: int):
    """The ``[start, stop)`` window of ``stream``; a window covering the
    whole stream is the stream itself, so it streams as a full pass."""
    if stop - start == stream.n_edges:
        return stream
    return _SubStream(stream, start, stop)


def run_phase2_window(
    kernels,
    step: str,
    stream,
    start: int,
    stop: int,
    view: PartitionState,
    phase1: tuple,
    assignments: np.ndarray,
    *,
    k: int,
    hash_seed: int,
    hdrf_lambda: float,
) -> tuple[int, tuple]:
    """One Phase-2 sync window, the body every transport shares.

    Runs pass ``step`` of ``kernels`` over ``stream``'s ``[start, stop)``
    window against the state ``view``, marking the window's endpoint rows
    dirty when the view tracks dirt.  ``phase1`` is the read-only
    ``(v2c, c2p, volumes, degrees)`` tuple; ``assignments`` is the
    window's slice.  Returns the pass total and the window's cost-counter
    delta.
    """
    window = _window_stream(stream, start, stop)
    if view.dirty is not None:
        window = _DirtyMarkingStream(window, view)
    v2c, c2p, volumes, degrees = phase1
    cost = CostCounter()
    ctx = TwoPhaseContext(
        k=k,
        v2c=v2c,
        c2p=c2p,
        volumes=volumes,
        degrees=degrees,
        state=view,
        assignments=assignments,
        hash_seed=hash_seed,
        cost=cost,
        hdrf_lambda=hdrf_lambda,
    )
    out = getattr(kernels, PASS_METHODS[step])(window, ctx)
    return (0 if out is None else int(out)), astuple(cost)


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
class Transport(ABC):
    """Executes window tasks for a :class:`RunnerSession`.

    ``run`` takes one sweep of ``(worker, start, stop)`` windows for a
    step (``"degree"``, ``"clustering"`` or a Phase-2 pass name) and
    returns a ``(value, cost_delta)`` pair per task, in task order: a
    partial degree vector, a ``(v2c, volumes)`` export (``None`` for a
    lone worker) or the pass kernel's total; a raising window is reported
    as :class:`WorkerFailed`.  ``lone`` marks a single-shard run, whose
    one view is never stale.
    """

    @abstractmethod
    def run(self, step: str, tasks: list) -> list:
        """Execute one sweep; per-task ``(value, cost_delta)`` pairs."""

    def open_clustering(self, degrees, cap: float, lone: bool) -> None:
        """Prepare Phase-1 clustering windows over ``degrees``."""

    def publish_clustering(self, v2c, volumes) -> None:
        """Clustering barrier refresh: the snapshot the next windows load."""

    def close_clustering(self, lone: bool):
        """End Phase 1; returns the lone worker's ``(v2c, volumes)``."""

    def bind_phase2(self, lone: bool) -> None:
        """Allocate Phase-2 views once the job carries its arrays."""

    @abstractmethod
    def barrier(self, step: str) -> int | None:
        """Phase-2 barrier: merge worker deltas into the global state and
        refresh every view; returns the rows merged, ``None`` when the
        lone view *is* the global state."""

    def finalize(self) -> None:
        """Copy transport-held results back into the job (success path)."""

    def close(self) -> None:
        """Release every resource; idempotent, safe on error paths."""

    def extra_state_bytes(self) -> int:
        """Bytes held by per-worker state views beyond the global state."""
        return 0

    def wire_stats(self) -> dict | None:
        """Wire-traffic accounting (socket transport only)."""
        return None


class RunnerSession:
    """The sync-window driver of one run over a :class:`Transport`.

    ``sharded=False`` collapses the schedule to one shard and one window
    per pass (the serial runner): no syncs are reported, and a failing
    window re-raises the kernel's own exception.
    """

    def __init__(self, job: ShardedJob, transport: Transport,
                 sharded: bool = True) -> None:
        self.job = job
        self.transport = transport
        self.sharded = sharded
        m = int(job.stream.n_edges)
        n_shards = job.n_workers if sharded else 1
        self.bounds = np.linspace(0, m, n_shards + 1).astype(np.int64)
        self.window = int(job.sync_interval) if sharded else max(m, 1)
        #: A lone shard's views are never stale (see the module docstring).
        self.lone = n_shards == 1
        #: Rows merged by Phase-2 delta barriers / rows a full
        #: re-broadcast would have merged.
        self.barrier_rows = 0
        self.barrier_full_rows = 0

    # ------------------------------------------------------------------
    def _sweeps(self, window: int | None = None):
        """The schedule of one pass: per sweep, the ``(worker, start,
        stop)`` window of every worker whose shard is not exhausted."""
        window = self.window if window is None else window
        position = self.bounds[:-1].tolist()
        stops = self.bounds[1:].tolist()
        while True:
            tasks = []
            for w, (start, stop) in enumerate(zip(position, stops)):
                if start < stop:
                    end = min(start + window, stop)
                    tasks.append((w, start, end))
                    position[w] = end
            if not tasks:
                return
            yield tasks

    def _sweep(self, step: str, tasks) -> list:
        """Run one sweep, fold its cost deltas, return the values."""
        try:
            results = self.transport.run(step, tasks)
        except WorkerFailed as failed:
            if not self.sharded:
                raise failed.__cause__ from None
            phase = "phase-1" if step in _PHASE1_STEPS else "phase-2"
            raise PartitioningError(
                f"{phase} worker {failed.worker} failed during the {step} "
                f"pass: {failed.cause}"
            ) from failed.__cause__
        for _, delta in results:
            _merge_cost(self.job.cost, delta)
        return [value for value, _ in results]

    # ------------------------------------------------------------------
    # Phase 1
    # ------------------------------------------------------------------
    def run_degree_pass(self, n_hint: int | None = None) -> np.ndarray:
        """Per-shard partial degree vectors, merged by summation."""
        whole_shards = self._sweeps(int(self.bounds[-1]))
        partials = self._sweep("degree", next(whole_shards, []))
        return get_backend(self.job.backend).merge_phase1_degrees(
            partials, n_hint
        )

    def run_clustering(
        self, degrees: np.ndarray, cap: float, n_passes: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Sharded Phase-1 clustering; returns ``(v2c, volumes, syncs)``."""
        degrees = np.asarray(degrees, dtype=np.int64)
        self.transport.open_clustering(degrees, float(cap), self.lone)
        v2c, volumes, syncs = self._cluster(degrees, int(n_passes))
        lone_state = self.transport.close_clustering(self.lone)
        if self.lone:
            v2c, volumes = lone_state
        return v2c, volumes, (syncs if self.sharded else 0)

    def _cluster(self, degrees, n_passes):
        """The clustering sweep/merge loop.  Exports may be views into
        transport memory, so they live only in this frame."""
        kernels = get_backend(self.job.backend)
        v2c = np.full(degrees.shape[0], -1, dtype=np.int64)
        volumes = np.zeros(0, dtype=np.int64)
        self.transport.publish_clustering(v2c, volumes)
        syncs = 0
        for _ in range(n_passes):
            for tasks in self._sweeps():
                exports = self._sweep("clustering", tasks)
                syncs += 1
                if self.lone:
                    continue  # the lone worker's live state stays put
                merged = kernels.merge_phase1_clustering(v2c, volumes, exports, degrees)
                v2c, volumes = compact_clustering(*merged)
                self.transport.publish_clustering(v2c, volumes)
        return v2c, volumes, syncs

    # ------------------------------------------------------------------
    # Phase 2
    # ------------------------------------------------------------------
    def bind_phase2(self) -> None:
        """Allocate Phase-2 execution state once the job carries the
        Phase-1 arrays, the global state and the assignment array."""
        self.transport.bind_phase2(self.lone)

    def run_pass(self, pass_name: str) -> tuple[int, int]:
        """Execute one Phase-2 pass; returns ``(total, syncs)``."""
        if pass_name not in PASS_METHODS:
            raise ConfigurationError(f"unknown pass {pass_name!r}")
        n = int(self.job.state.n_vertices)
        total = 0
        syncs = 0
        for tasks in self._sweeps():
            total += sum(self._sweep(pass_name, tasks))
            syncs += 1
            rows = self.transport.barrier(pass_name)
            if rows is not None:
                self.barrier_rows += rows
                self.barrier_full_rows += n
        return total, (syncs if self.sharded else 0)

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Copy shared results back into the job arrays (success path)."""
        self.transport.finalize()

    def close(self) -> None:
        """Release every resource; idempotent, safe on error paths."""
        self.transport.close()


class Runner(ABC):
    """Scheduling strategy for the passes of ``ParallelTwoPhase``."""

    #: Registry name; subclasses override.
    kind: str = "abstract"

    #: True when wall-clock measured around ``run_pass`` is real parallel
    #: time (processes actually ran concurrently), False when it is
    #: single-process compute that a model must convert.
    measures_wallclock: bool = False

    @abstractmethod
    def open(self, job: ShardedJob) -> RunnerSession:
        """Start a session for one run (allocate views, pools, segments)."""

    def parallel_wall_seconds(
        self, phase2_seconds: float, n_workers: int, syncs: int,
        sync_latency: float,
    ) -> float:
        """Parallel Phase-2 wall-clock estimate for the result extras."""
        return phase2_seconds  # measured runners: the timer already is it

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} kind={self.kind!r}>"


# ----------------------------------------------------------------------
# in-process transport: serial and simulated
# ----------------------------------------------------------------------
class _InlineTransport(Transport):
    """Windows execute inline, in worker order, against heap views."""

    def __init__(self, job: ShardedJob) -> None:
        self.job = job
        self.kernels = get_backend(job.backend)
        self.views: list[PartitionState] = []
        self._degrees = None
        self._cap = None
        self._live = None
        self._snapshot = None

    def run(self, step, tasks):
        results = []
        for w, start, stop in tasks:
            try:
                results.append(self._window(step, w, start, stop))
            except Exception as exc:
                raise WorkerFailed(w, step, _describe(exc)) from exc
        return results

    def _window(self, step, w, start, stop):
        job = self.job
        kernels = self.kernels
        if step not in _PHASE1_STEPS:
            return run_phase2_window(
                kernels,
                step,
                job.stream,
                start,
                stop,
                self.views[w],
                (job.v2c, job.c2p, job.volumes, job.degrees),
                job.assignments[start:stop],
                k=job.k,
                hash_seed=job.hash_seed,
                hdrf_lambda=job.hdrf_lambda,
            )
        window = _window_stream(job.stream, start, stop)
        if step == "degree":
            return kernels.degree_pass(window), ()
        cost = CostCounter()
        st = self._live
        if st is None:
            st = kernels.clustering_load(*self._snapshot, self._degrees)
        kernels.clustering_true_pass(window, st, self._cap, cost)
        export = None if st is self._live else kernels.clustering_export(st)[:2]
        return export, astuple(cost)

    def open_clustering(self, degrees, cap, lone):
        self._degrees = degrees
        self._cap = cap
        self._live = self.kernels.clustering_init(degrees) if lone else None

    def publish_clustering(self, v2c, volumes):
        self._snapshot = (v2c, volumes)

    def close_clustering(self, lone):
        live, self._live = self._live, None
        self._snapshot = None
        if lone:
            return self.kernels.clustering_export(live)[:2]
        return None

    def bind_phase2(self, lone):
        job = self.job
        if lone:
            # A lone view is never stale, so it shares the global state
            # outright: no merge work, bit-exact with the sequential pass.
            self.views = [job.state]
            return
        self.views = [
            PartitionState(
                job.state.n_vertices, job.k, job.state.n_edges, job.alpha,
                track_dirty=True, packed=job.state.packed,
            )
            for _ in range(job.n_workers)
        ]

    def barrier(self, step):
        if self.views[0] is self.job.state:
            return None
        return merge_replica_deltas(self.job.state, self.views)

    def extra_state_bytes(self) -> int:
        return sum(
            view.nbytes() for view in self.views if view is not self.job.state
        )


class SerialRunner(Runner):
    """Sequential reference execution: one window, the whole stream.

    Ignores ``n_workers``/``sync_interval`` — each pass (Phase 1 and
    Phase 2 alike) dispatches the kernel once over the stream itself
    against the global state, which is exactly the sequential pipeline
    (bit-exact with ``TwoPhasePartitioner`` by construction).  Reports
    zero syncs.
    """

    kind = "serial"

    def open(self, job: ShardedJob) -> RunnerSession:
        return RunnerSession(job, _InlineTransport(job), sharded=False)


class SimulatedRunner(Runner):
    """Single-process round-robin execution of the sharded schedule.

    Workers take turns in quanta so the interleaving (and therefore the
    staleness pattern) matches a real parallel run with barrier syncs;
    parallel wall-clock is *modeled* as
    ``sequential_phase2 / n_workers + syncs * sync_latency``.
    """

    kind = "simulated"

    def open(self, job: ShardedJob) -> RunnerSession:
        return RunnerSession(job, _InlineTransport(job))

    def parallel_wall_seconds(
        self, phase2_seconds, n_workers, syncs, sync_latency
    ) -> float:
        return phase2_seconds / n_workers + syncs * sync_latency


# ----------------------------------------------------------------------
# shared-memory pool transport (true multiprocessing)
# ----------------------------------------------------------------------
#: Names of shared segments currently owned by live process sessions.
#: Test/debug hook: must be empty whenever no session is open.
_LIVE_SEGMENTS: set[str] = set()


def live_shared_segments() -> frozenset[str]:
    """Segment names owned by open process sessions (leak-check hook)."""
    return frozenset(_LIVE_SEGMENTS)


def _stream_spec(stream):
    """The stream's picklable spec and its owned edge segment, if any."""
    spec, shm = make_stream_spec(stream)
    if shm is not None:
        _LIVE_SEGMENTS.add(shm.name)
    return spec, shm


def _release_segment(shm) -> None:
    """Unlink one owned segment (idempotent against cleanup races)."""
    _LIVE_SEGMENTS.discard(shm.name)
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - cleanup race
        pass


def default_start_method() -> str:
    """``fork`` where available (cheap, inherits the backend registry),
    else ``spawn``."""
    import multiprocessing as mp

    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def check_start_method(start_method: str | None) -> None:
    """Reject a ``multiprocessing`` start method this host lacks."""
    import multiprocessing as mp

    if start_method not in (None, *mp.get_all_start_methods()):
        raise ConfigurationError(
            f"start_method {start_method!r} not available; "
            f"choose from {mp.get_all_start_methods()}"
        )


@dataclass
class _WorkerPayload:
    """Once-per-process initialization shipped to every pool worker.

    Deliberately tiny — a stream spec plus scalars — so opening a session
    is O(1) in ``|V|``; the Phase-1 arrays and every state view are
    attached lazily from shared segments named in the task tuples.
    """

    spec: object
    n_edges: int
    k: int
    alpha: float
    backend: str | None
    hash_seed: int
    hdrf_lambda: float


_WORKER = None  # per-process context, set by _process_worker_init


def _process_worker_init(payload: _WorkerPayload) -> None:
    """Pool initializer: open the stream, resolve the kernel backend.

    Never raises: an exception escaping a pool initializer makes the
    worker exit and the pool respawn it in a tight crash loop, with the
    parent none the wiser until a task timeout.  Instead the failure is
    recorded and re-raised by the first task, so the parent gets the
    true cause immediately through the normal result path.
    """
    global _WORKER
    try:
        stream = payload.spec.open()
        _WORKER = {
            "payload": payload,
            "stream": stream,
            "kernels": get_backend(payload.backend),
        }
    except BaseException as exc:  # noqa: BLE001 - see docstring
        _WORKER = {"init_error": f"{type(exc).__name__}: {exc}"}


def _attach_cluster(ref) -> dict:
    """Map the Phase-1 clustering scratch segment (memoized per ref)."""
    cached = _WORKER.get("cluster")
    if cached is not None and cached["ref"] == ref:
        return cached
    from multiprocessing import shared_memory

    name, n, cap_ids, n_workers = ref
    shm = shared_memory.SharedMemory(name=name, create=False)
    arena = _BufferArena(shm.buf)
    degrees = arena(n, np.int64)
    slots = []
    for _ in range(n_workers):
        header = arena(1, np.int64)
        v2c = arena(n, np.int64)
        vol = arena(cap_ids, np.int64)
        slots.append((header, v2c, vol))
    cached = {"ref": ref, "shm": shm, "degrees": degrees, "slots": slots}
    _WORKER["cluster"] = cached
    return cached


def _attach_phase2(ref) -> dict:
    """Map the Phase-2 segments (assignments, views, Phase-1 arrays)."""
    cached = _WORKER.get("phase2")
    if cached is not None and cached["ref"] == ref:
        return cached
    from multiprocessing import shared_memory

    payload = _WORKER["payload"]
    assign_name, state_names, phase1_name, n, n_clusters, packed = ref
    assign_shm = shared_memory.SharedMemory(name=assign_name, create=False)
    assignments = np.ndarray(
        payload.n_edges, dtype=np.int32, buffer=assign_shm.buf
    )
    views = [
        PartitionState.attach(
            name, n, payload.k, payload.n_edges, payload.alpha,
            track_dirty=True, packed=packed,
        )
        for name in state_names
    ]
    p1_shm = shared_memory.SharedMemory(name=phase1_name, create=False)
    arena = _BufferArena(p1_shm.buf)
    cached = {
        "ref": ref,
        "assign_shm": assign_shm,
        "assignments": assignments,
        "views": views,
        "p1_shm": p1_shm,
        "v2c": arena(n, np.int64),
        "c2p": arena(n_clusters, np.int64),
        "volumes": arena(n_clusters, np.int64),
        "degrees": arena(n, np.int64),
    }
    _WORKER["phase2"] = cached
    return cached


def _process_worker_task(task):
    """One task in a pool worker, dispatched on the task kind.

    Any pool process may execute any shard worker's window (every process
    can map every segment); within a sweep the windows of distinct shard
    workers touch disjoint views and disjoint assignment slices, so there
    are no cross-process races by construction.
    """
    ctx_globals = _WORKER
    if "init_error" in ctx_globals:
        raise PartitioningError(
            "process worker initialization failed: "
            + ctx_globals["init_error"]
        )
    kind = task[0]
    if kind == "degree":
        _, start, stop = task
        return ctx_globals["kernels"].degree_pass(
            _SubStream(ctx_globals["stream"], start, stop)
        )
    if kind == "cluster":
        return _worker_cluster_window(task)
    return _worker_phase2_window(task)


def _worker_cluster_window(task):
    """One Phase-1 clustering sync window against the shared scratch."""
    _, worker_index, start, stop, ref, cap = task
    ctx_globals = _WORKER
    cluster = _attach_cluster(ref)
    header, v2c_view, vol_view = cluster["slots"][worker_index]
    kernels = ctx_globals["kernels"]
    n_ids = int(header[0])
    st = kernels.clustering_load(
        v2c_view, vol_view[:n_ids], cluster["degrees"]
    )
    cost = CostCounter()
    window = _SubStream(ctx_globals["stream"], start, stop)
    kernels.clustering_true_pass(window, st, cap, cost)
    v2c_out, vol_out, _ = kernels.clustering_export(st)
    if vol_out.shape[0] > vol_view.shape[0]:  # pragma: no cover - bound proof
        raise PartitioningError(
            f"phase-1 cluster-id capacity exceeded: {vol_out.shape[0]} ids "
            f"for a scratch of {vol_view.shape[0]}"
        )
    v2c_view[:] = v2c_out
    vol_view[: vol_out.shape[0]] = vol_out
    header[0] = vol_out.shape[0]
    return astuple(cost)


def _worker_phase2_window(task):
    """One Phase-2 sync window; returns the kernel total and this
    window's cost-counter delta for the parent to merge."""
    worker_index, pass_name, start, stop, ref = task
    payload = _WORKER["payload"]
    phase2 = _attach_phase2(ref)
    return run_phase2_window(
        _WORKER["kernels"],
        pass_name,
        _WORKER["stream"],
        start,
        stop,
        phase2["views"][worker_index],
        tuple(phase2[name] for name in ("v2c", "c2p", "volumes", "degrees")),
        phase2["assignments"][start:stop],
        k=payload.k,
        hash_seed=payload.hash_seed,
        hdrf_lambda=payload.hdrf_lambda,
    )


class ProcessRunner(Runner):
    """True multi-process execution over shared-memory state views.

    Parameters
    ----------
    start_method:
        ``multiprocessing`` start method (``None`` picks
        :func:`default_start_method`).  ``fork`` inherits dynamically
        registered kernel backends; ``spawn`` re-imports them.
    task_timeout:
        Seconds to wait for any single sync-window task.  A worker that
        died abruptly (OOM-kill, segfault) leaves its task result pending
        forever in a ``multiprocessing.Pool``; the timeout converts that
        hang into a :class:`~repro.errors.PartitioningError` and the
        session teardown terminates the pool and unlinks every segment.
    """

    kind = "process"
    measures_wallclock = True

    def __init__(
        self,
        start_method: str | None = None,
        task_timeout: float = 600.0,
    ) -> None:
        check_start_method(start_method)
        if task_timeout <= 0:
            raise ConfigurationError(
                f"task_timeout must be positive, got {task_timeout}"
            )
        self.start_method = start_method
        self.task_timeout = float(task_timeout)

    def open(self, job: ShardedJob) -> RunnerSession:
        return RunnerSession(job, _PoolTransport(self, job))


class _PoolTransport(Transport):
    """Window tasks on a ``multiprocessing`` pool over shared segments."""

    def __init__(self, runner: ProcessRunner, job: ShardedJob) -> None:
        self.job = job
        self._timeout = runner.task_timeout
        self._pool = None
        self._stream_shm = None
        self._assign_shm = None
        self._assign_view = None
        self._cluster_shm = None
        self._cluster_ref = None
        self._slots = None
        self._cap = None
        self._phase1_shm = None
        self._phase2_ref = None
        self.views: list[PartitionState] = []
        self._closed = False
        try:
            self._setup(runner)
        except BaseException:
            self.close()
            raise

    def _setup(self, runner: ProcessRunner) -> None:
        import multiprocessing as mp
        from multiprocessing import resource_tracker

        # Start the parent's resource tracker BEFORE the pool exists, so
        # every worker inherits it and all segment registrations land in
        # one tracker that the parent's unlink can clear.  Session open no
        # longer creates a segment up front (workers attach lazily), so
        # without this a forked worker would lazily spawn its *own*
        # tracker, whose attach registrations nobody unregisters —
        # spurious "leaked shared_memory objects" warnings at shutdown.
        resource_tracker.ensure_running()

        job = self.job
        spec, self._stream_shm = _stream_spec(job.stream)
        payload = _WorkerPayload(
            spec=spec,
            n_edges=int(job.stream.n_edges),
            k=job.k,
            alpha=job.alpha,
            backend=job.backend,
            hash_seed=job.hash_seed,
            hdrf_lambda=job.hdrf_lambda,
        )
        ctx = mp.get_context(runner.start_method or default_start_method())
        self._pool = ctx.Pool(
            processes=job.n_workers,
            initializer=_process_worker_init,
            initargs=(payload,),
        )

    def _create_segment(self, nbytes: int):
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=max(nbytes, 1))
        _LIVE_SEGMENTS.add(shm.name)
        np.frombuffer(shm.buf, dtype=np.uint8)[:] = 0
        return shm

    def _task(self, step, w, start, stop):
        if step == "degree":
            return ("degree", start, stop)
        if step == "clustering":
            return ("cluster", w, start, stop, self._cluster_ref, self._cap)
        return (w, step, start, stop, self._phase2_ref)

    def run(self, step, tasks):
        import multiprocessing as mp

        handles = [
            self._pool.apply_async(
                _process_worker_task, (self._task(step, w, start, stop),)
            )
            for w, start, stop in tasks
        ]
        results = []
        for (w, _, _), handle in zip(tasks, handles):
            try:
                results.append(handle.get(timeout=self._timeout))
            except mp.TimeoutError as exc:
                raise PartitioningError(
                    f"process runner: a {step} window exceeded the "
                    f"{self._timeout:.0f}s task timeout (worker died or "
                    "deadlocked)"
                ) from exc
            except Exception as exc:
                raise WorkerFailed(w, step, _describe(exc)) from exc
        if step == "degree":
            return [(partial, ()) for partial in results]
        if step == "clustering":
            exports = []
            for (w, _, _), delta in zip(tasks, results):
                header, v2c_view, vol_view = self._slots[w]
                exports.append(((v2c_view, vol_view[: int(header[0])]), delta))
            return exports
        return results

    # -- Phase 1 -------------------------------------------------------
    def open_clustering(self, degrees, cap, lone):
        job = self.job
        n = int(degrees.shape[0])
        cap_ids = cluster_id_capacity(job.stream.n_edges, n)
        self._cluster_shm = self._create_segment(
            8 * (n + job.n_workers * (1 + n + cap_ids))
        )
        arena = _BufferArena(self._cluster_shm.buf)
        arena(n, np.int64)[:] = degrees
        self._slots = [
            (arena(1, np.int64), arena(n, np.int64), arena(cap_ids, np.int64))
            for _ in range(job.n_workers)
        ]
        self._cluster_ref = (self._cluster_shm.name, n, cap_ids, job.n_workers)
        self._cap = cap

    def publish_clustering(self, v2c, volumes):
        for header, v2c_view, vol_view in self._slots:
            v2c_view[:] = v2c
            vol_view[: volumes.shape[0]] = volumes
            header[0] = volumes.shape[0]

    def close_clustering(self, lone):
        # The lone worker's slot holds its live clustering; copy it out.
        # Phase 2 never reads the scratch, so it is released now instead
        # of at close() — workers keep their memoized mapping until the
        # pool dies, and unlinking under live mappings is safe on POSIX.
        final = None
        if lone:
            header, v2c_view, vol_view = self._slots[0]
            final = (
                np.array(v2c_view, dtype=np.int64, copy=True),
                np.array(vol_view[: int(header[0])], dtype=np.int64, copy=True),
            )
        self._slots = None
        scratch, self._cluster_shm = self._cluster_shm, None
        _release_segment(scratch)
        return final

    # -- Phase 2 -------------------------------------------------------
    def bind_phase2(self, lone):
        job = self.job
        m = int(job.assignments.shape[0])
        self._assign_shm = self._create_segment(job.assignments.nbytes)
        self._assign_view = np.ndarray(
            m, dtype=np.int32, buffer=self._assign_shm.buf
        )
        self._assign_view[:] = job.assignments
        for _ in range(job.n_workers):
            view = PartitionState.from_shared(
                job.state.n_vertices, job.k, job.state.n_edges, job.alpha,
                track_dirty=True, packed=job.state.packed,
            )
            self.views.append(view)
            _LIVE_SEGMENTS.add(view.shm_name)
        # The read-only Phase-1 arrays travel through ONE shared segment
        # (the SharedArrayStreamSpec pattern): workers attach it lazily,
        # so nothing O(|V|) is ever pickled per worker or per task.
        n = int(job.state.n_vertices)
        n_clusters = int(job.c2p.shape[0])
        self._phase1_shm = self._create_segment(8 * (2 * n + 2 * n_clusters))
        arena = _BufferArena(self._phase1_shm.buf)
        arena(n, np.int64)[:] = job.v2c
        arena(n_clusters, np.int64)[:] = job.c2p
        arena(n_clusters, np.int64)[:] = job.volumes
        arena(n, np.int64)[:] = job.degrees
        self._phase2_ref = (
            self._assign_shm.name,
            tuple(view.shm_name for view in self.views),
            self._phase1_shm.name,
            n,
            n_clusters,
            bool(job.state.packed),
        )

    def barrier(self, step):
        return merge_replica_deltas(self.job.state, self.views)

    def finalize(self) -> None:
        # The barrier already synchronized the global state after the
        # last sweep; only the assignments live solely in shared memory.
        self.job.assignments[:] = self._assign_view

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            pool, self._pool = self._pool, None
            self._shutdown_pool(pool)
        self._assign_view = None
        self._slots = None
        for shm in (
            self._assign_shm,
            self._stream_shm,
            self._cluster_shm,
            self._phase1_shm,
        ):
            if shm is not None:
                _release_segment(shm)
        self._assign_shm = None
        self._stream_shm = None
        self._cluster_shm = None
        self._phase1_shm = None
        views, self.views = self.views, []
        for view in views:
            _LIVE_SEGMENTS.discard(view.shm_name)
            view.close()
            view.unlink()

    @staticmethod
    def _shutdown_pool(pool) -> None:
        """Tear the pool down in bounded time, even mid-task.

        ``Pool.terminate()`` can deadlock when a worker dies while its
        queues are busy (long-standing CPython race, hit exactly when a
        task hung or crashed — our error paths).  The graceful shutdown
        therefore runs under a watchdog: if it does not finish promptly,
        the workers are SIGKILLed and, as a last resort, the join is
        abandoned to a daemon thread so ``close()`` always returns and
        the shared segments below always get unlinked.
        """
        import threading

        joiner = threading.Thread(
            target=lambda: (pool.terminate(), pool.join()), daemon=True
        )
        joiner.start()
        joiner.join(timeout=10.0)
        if joiner.is_alive():  # pragma: no cover - needs the mp race
            for proc in getattr(pool, "_pool", None) or []:
                try:
                    proc.kill()
                except Exception:  # noqa: BLE001 - best-effort kill
                    pass
            joiner.join(timeout=5.0)

    def extra_state_bytes(self) -> int:
        return sum(view.nbytes() for view in self.views)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
RUNNERS: dict[str, type[Runner]] = {
    "serial": SerialRunner,
    "simulated": SimulatedRunner,
    "process": ProcessRunner,
}


def make_runner(
    spec,
    *,
    start_method: str | None = None,
    task_timeout: float = 600.0,
    workers=None,
    connect_timeout: float = 10.0,
) -> Runner:
    """Resolve a runner name or pass an instance through.

    ``start_method``/``task_timeout`` configure the process and
    distributed runners (for the latter ``task_timeout`` becomes the
    per-reply ``recv_timeout``); ``workers``/``connect_timeout``
    configure the distributed runner only.  All are ignored by runners
    without execution knobs.

    The distributed runner lives in :mod:`repro.core.distributed`
    (imported lazily here to keep this module import-cycle-free); naming
    it registers it.

    Raises
    ------
    ConfigurationError
        For unknown names (message lists the registry).
    """
    if isinstance(spec, Runner):
        return spec
    if spec == "distributed" and spec not in RUNNERS:
        import repro.core.distributed  # noqa: F401 - registers itself
    if spec not in RUNNERS:
        raise ConfigurationError(
            f"unknown runner {spec!r}; available: "
            f"{sorted(set(RUNNERS) | {'distributed'})}"
        )
    cls = RUNNERS[spec]
    if cls is ProcessRunner:
        return ProcessRunner(
            start_method=start_method, task_timeout=task_timeout
        )
    if cls.kind == "distributed":
        return cls(
            workers=workers,
            connect_timeout=connect_timeout,
            recv_timeout=task_timeout,
            start_method=start_method,
        )
    return cls()
