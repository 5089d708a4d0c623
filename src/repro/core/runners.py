"""Execution runners: one sync-window driver over two transports.

Both 2PS-L front-ends — :class:`~repro.core.partitioner.TwoPhasePartitioner`
and :class:`~repro.core.parallel.ParallelTwoPhase` — stream every pass
of both phases through a :class:`RunnerSession`, the one driver of the
CuSP-style sync-window schedule.  The driver owns the *semantics*: stream
shards and their windows, the Phase-1 degree merge, the clustering merge,
each worker's refresh and the one compaction (see :mod:`repro.kernels`
for the merge contract), the Phase-2 sweep/barrier loop, cost folding,
sync and barrier accounting, and the typed error for a failed worker
window.  A narrow :class:`Transport` below it owns the *execution*: it
runs one sweep of window tasks, returning per-worker results in
ascending worker order, and carries each clustering window's refresh to
its worker.

- :class:`SerialRunner` — the in-process transport with one shard and one
  window per pass, which hands the stream itself to the kernels: the
  sequential pipeline, zero syncs, for any configured worker count.
- :class:`SimulatedRunner` — the in-process transport over ``n_workers``
  shards, each window run inline against its worker's stale heap view.
  Deterministic and dependency-free; parallel wall-clock is *modeled*.
- :class:`ProcessRunner` — local worker processes: the socket transport
  of the next item on loopback, one process per shard.  Workers reopen
  the stream from a picklable :class:`~repro.streaming.stream.StreamSpec`
  (file streams stay out-of-core).  Parallel wall-clock is *measured*.
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
  the job's stream (socket workers reopen it from its spec), so chunk
  boundaries agree; every transport's Phase-2 barrier sets the
  bits of every worker's set-bit log with the one kernel op
  ``apply_replica_log`` and merges sizes with :func:`merge_sizes`; and
  socket assignment slices merge where ``>= 0``, the two Phase-2 passes
  writing disjoint positions.  ``simulated`` thereby doubles as the
  in-CI deterministic twin of a multi-host run.
- With ``n_workers=1`` every runner is bit-exact with the sequential
  pipeline: a lone worker's view is never stale, so its one clustering
  state needs no log, merge or refresh, and window boundaries are
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
socket worker that died, or stalled past its timeout) are typed errors
too, and ``close()`` releases everything a session holds on both
success and error paths.

Barrier cost
------------
Phase-1 clustering barriers cost O(moves), not O(``|V|``): every worker
keeps one clustering state (:class:`ClusteringWorker`) for all of Phase
1, and its clustering loop logs each ``v2c`` write to a
:class:`~repro.kernels.base.MoveLog`, so a window exports only the
vertices whose id it changed and the count of clusters it opened.  The
barrier folds the moves into the global clustering in place
(``merge_phase1_clustering``: first worker wins, fresh ids remapped in
worker order, volumes adjusted by a degree per move), and each worker's
next window first applies its :class:`Refresh` (``refresh_clustering``:
its fresh ids shifted, the other workers' accepted moves applied).  Ids
stay stable across barriers, so the id space grows below ``n_workers *
|V|`` and :func:`compact_clustering` runs once, after the last sweep.

Phase-2 barriers cost O(bits set), not O(``|V|``): each Phase-2 loop
appends every replica bit it sets that was clear in its worker's view to
that worker's set-bit log (:class:`~repro.kernels.base.ReplicaLog`), and
the barrier sets the logged bits in the global state and in every view
with the kernel op ``apply_replica_log`` (a socket worker may get the
merged plane instead).  Bits only go from 0 to 1: the planes of OR-ing
whole views.
Sessions count the cells the logs wrote against the ``n * k`` cells of
a full re-broadcast (``barrier_cells`` / ``barrier_full_cells``).

Shared-memory lifecycle
-----------------------
A process session owns at most one segment: the edge copy of an
in-memory stream (:func:`~repro.streaming.stream.make_stream_spec`),
created before the workers start, which map it to reopen the stream
zero-copy.  File streams need none.  Worker views, logs and clustering
states live in the worker processes; moves and refreshes cross the
socket.  ``close()`` unlinks the segment after the workers are gone; it
is idempotent and runs on both success and error paths, so a crashed or
timed-out worker cannot leak it past the session (verified by the
cleanup tests; :func:`live_shared_segments` exposes the owned set).
Workers only ever *attach* and never unlink.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import astuple, dataclass, fields
from typing import NamedTuple

import numpy as np

from repro.errors import ConfigurationError, PartitioningError
from repro.kernels import TwoPhaseContext, get_backend
from repro.kernels.base import Int64Buffer, MoveLog, ReplicaLog
from repro.metrics.runtime import CostCounter
from repro.partitioning.state import PartitionState
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


def compact_clustering(
    v2c: np.ndarray, volumes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Drop zero-volume clusters, relabeling ids order-preservingly.

    A sharded Phase 1 keeps its cluster ids stable across barriers: the
    merges leave behind clusters whose members all migrated away (volume
    0) and fresh clusters another worker outbid, and the driver compacts
    once per run, after the last clustering sweep.  Until then the id
    space stays below ``n_workers * |V|``: a worker opens a fresh cluster
    only for a vertex unclustered in its state, and a vertex is clustered
    in the merged state, and so in every worker's, from the barrier after
    the first window that clustered it.

    Semantics-free by construction: no clustering decision reads an id's
    value, only whether two ids are equal and their volumes; assigned
    vertices always point at live clusters (a member contributes positive
    volume), and the relabel is monotone, so the volume ordering — all
    downstream consumers (Graham scheduling, which breaks volume ties by
    id, and cluster-to-partition lookups) are order- or
    id-composition-based — is preserved bit-exactly.
    """
    live = np.flatnonzero(volumes > 0)
    if live.shape[0] == volumes.shape[0]:
        return v2c, volumes
    # The trailing -1 slot maps unassigned vertices (v2c == -1) to -1.
    remap = np.full(volumes.shape[0] + 1, -1, dtype=np.int64)
    remap[live] = np.arange(live.shape[0], dtype=np.int64)
    return remap[v2c], volumes[live]


#: No moves: an empty ``(0, 2)`` array of ``(vertex, id)`` rows.
_NO_MOVES = np.zeros((0, 2), dtype=np.int64)


class Refresh(NamedTuple):
    """What a worker applies before its next clustering window (see
    :meth:`~repro.kernels.base.KernelBackend.refresh_clustering`): the
    shift of its last window's fresh ids, the merged id count, and the
    other workers' accepted moves since its last window, in order."""

    offset: int
    n_ids: int
    moves: np.ndarray


class ClusteringWorker:
    """One worker's Phase-1 state, held from ``open_clustering`` to
    ``close_clustering``: its clustering, its move log and its last
    export.

    A lone worker (``log_capacity`` ``None``) runs its windows on its one
    live clustering and exports nothing.  A sharded one applies its
    refresh, runs the window with a :class:`~repro.kernels.base.MoveLog`
    and exports ``(moves, n_fresh)``: the vertices whose id the window
    changed and the clusters it opened.  Both transports run it, the
    socket transport inside each worker process.
    """

    def __init__(self, kernels, degrees, cap: float, log_capacity) -> None:
        self.kernels = kernels
        self.cap = cap
        self.state = kernels.clustering_init(degrees)
        self.log = None if log_capacity is None else MoveLog(log_capacity)
        self.own = _NO_MOVES
        self.base = 0

    def window(self, stream, refresh: Refresh | None):
        """Run one window; returns ``(export, cost_delta)``."""
        kernels, st = self.kernels, self.state
        cost = CostCounter()
        if self.log is None:
            kernels.clustering_true_pass(stream, st, self.cap, cost)
            return None, astuple(cost)
        if refresh is not None:
            kernels.refresh_clustering(
                st, self.own, self.base, refresh.offset, refresh.n_ids, refresh.moves
            )
        self.base = st.n_ids()
        self.log.clear()
        kernels.clustering_true_pass(stream, st, self.cap, cost, self.log)
        self.own = self.log.moves()
        return (self.own, st.n_ids() - self.base), astuple(cost)


@dataclass
class ShardedJob:
    """Everything one run shares across its passes.

    Built by the 2PS-L pipeline before Phase 1 and handed to
    ``Runner.open``; the sharded front-end sets ``n_workers`` and
    ``sync_interval`` (the sequential one keeps a single shard).  The
    Phase-2 inputs (``part`` and ``weights``, see
    :func:`~repro.kernels.base.phase2_inputs`) and the Phase-2 outputs
    (``state``, ``assignments``) are filled in before
    :meth:`RunnerSession.bind_phase2`.  ``cost`` accumulates over the
    whole run.

    ``backend`` carries the *resolved* kernel-backend name: the parent
    resolves optional-backend fallback (``c`` without a compiler -> the
    default backend, one warning) once before opening
    the session, so every worker's ``get_backend(job.backend)`` hits a
    concrete registered backend — worker processes never re-detect
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
    part: np.ndarray | None = None
    weights: np.ndarray | None = None
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
    log: ReplicaLog | None,
    phase1: tuple,
    assignments: np.ndarray,
    *,
    k: int,
    hash_seed: int,
    hdrf_lambda: float,
) -> tuple[int, tuple]:
    """One Phase-2 sync window, the body every transport shares.

    Runs pass ``step`` of ``kernels`` over ``stream``'s ``[start, stop)``
    window against the state ``view``, logging every bit it sets that
    was clear in ``log`` (``None`` when the view is the global state).
    ``phase1`` is the read-only ``(part, weights)`` pair; ``assignments``
    is the window's slice.  Returns the pass total and the window's
    cost-counter delta.
    """
    window = _window_stream(stream, start, stop)
    part, weights = phase1
    cost = CostCounter()
    ctx = TwoPhaseContext(
        k=k,
        part=part,
        weights=weights,
        state=view,
        assignments=assignments,
        hash_seed=hash_seed,
        cost=cost,
        hdrf_lambda=hdrf_lambda,
        log=log,
    )
    out = getattr(kernels, PASS_METHODS[step])(window, ctx)
    return (0 if out is None else int(out)), astuple(cost)


def merge_sizes(state: PartitionState, view_sizes) -> np.ndarray:
    """The sizes half of every Phase-2 barrier: ``g + sum(view - g)``
    into ``state`` and returned.  Workers assign disjoint edges, so the
    deltas are disjoint; a stale view's overshoot of the cap is kept."""
    merged = state.sizes.copy()
    for sizes in view_sizes:
        merged += sizes - state.sizes
    state.sizes[:] = merged
    return merged


def apply_logs(kernels, state: PartitionState, views, logs) -> int:
    """The Phase-2 barrier of a transport that holds every view: set the
    bits of every log in ``state`` and of every other worker's log in
    ``views[w]`` (``logs[w]``'s bits are set there already), merge
    sizes, clear the logs.  Returns the cells logged."""
    entries = [log.entries() for log in logs]
    kernels.apply_replica_log(state, entries)
    for w, view in enumerate(views):
        kernels.apply_replica_log(view, entries[:w] + entries[w + 1 :])
    merged = merge_sizes(state, [view.sizes for view in views])
    for view in views:
        view.sizes[:] = merged
    for log in logs:
        log.clear()
    return sum(len(cells) for cells in entries)


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
class Transport(ABC):
    """Executes window tasks for a :class:`RunnerSession`.

    ``run`` takes one sweep of ``(worker, start, stop)`` windows for a
    step (``"degree"``, ``"clustering"`` or a Phase-2 pass name) and
    returns a ``(value, cost_delta)`` pair per task, in task order: a
    partial degree vector, a ``(moves, n_fresh)`` export (``None`` for a
    lone worker) or the pass kernel's total; a raising window is reported
    as :class:`WorkerFailed`.  A clustering task carries a fourth item,
    the worker's :class:`Refresh` (or ``None``), which its
    :class:`ClusteringWorker` applies before the window.  ``lone`` marks
    a single-shard run, whose one view is never stale.
    """

    @abstractmethod
    def run(self, step: str, tasks: list) -> list:
        """Execute one sweep; per-task ``(value, cost_delta)`` pairs."""

    def open_clustering(
        self, degrees, cap: float, lone: bool, log_capacity: int
    ) -> None:
        """Start one :class:`ClusteringWorker` per worker over
        ``degrees``, with move logs of ``log_capacity`` rows unless
        ``lone``."""

    def close_clustering(self, lone: bool):
        """End Phase 1; returns the lone worker's ``(v2c, volumes)``."""

    def bind_phase2(self, lone: bool, log_capacity: int) -> None:
        """Allocate Phase-2 views, and set-bit logs of ``log_capacity``
        cells, once the job carries its arrays."""

    @abstractmethod
    def barrier(self, step: str) -> int | None:
        """Phase-2 barrier: set every worker's logged bits in the global
        state and every view and merge sizes; returns the cells logged,
        ``None`` when the lone view *is* the global state."""

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
        #: Replica cells the Phase-2 barriers' logs wrote / cells a full
        #: re-broadcast would have written.
        self.barrier_cells = 0
        self.barrier_full_cells = 0

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
        """Sharded Phase-1 clustering; returns ``(v2c, volumes, syncs)``.
        A window of ``w`` edges writes at most ``3 * w`` cluster ids: that
        sizes every move log."""
        degrees = np.asarray(degrees, dtype=np.int64)
        longest = min(self.window, int(np.diff(self.bounds).max()))
        self.transport.open_clustering(
            degrees, float(cap), self.lone, 3 * max(longest, 1)
        )
        v2c, volumes, syncs = self._cluster(degrees, int(n_passes))
        lone_state = self.transport.close_clustering(self.lone)
        if self.lone:
            v2c, volumes = lone_state
        return v2c, volumes, (syncs if self.sharded else 0)

    def _cluster(self, degrees, n_passes):
        """The clustering sweep/merge loop: each barrier merges the
        workers' moves into the global clustering in place and queues
        each worker's :class:`Refresh` for its next window; ids stay
        stable until the one compaction after the last sweep."""
        kernels = get_backend(self.job.backend)
        v2c = np.full(degrees.shape[0], -1, dtype=np.int64)
        volumes = Int64Buffer()
        pending: dict[int, Refresh] = {}
        syncs = 0
        for _ in range(n_passes):
            for tasks in self._sweeps():
                tasks = [(*task, pending.pop(task[0], None)) for task in tasks]
                exports = self._sweep("clustering", tasks)
                syncs += 1
                if self.lone:
                    continue  # the lone worker's live state stays put
                accepted = kernels.merge_phase1_clustering(
                    v2c, volumes, exports, degrees
                )
                self._queue_refreshes(pending, tasks, exports, accepted, len(volumes))
        v2c, volumes = compact_clustering(v2c, volumes.view())
        return v2c, volumes, syncs

    def _queue_refreshes(self, pending, tasks, exports, accepted, n_ids) -> None:
        """Fold one barrier into every worker's pending :class:`Refresh`:
        a worker that ran gets the shift of its fresh ids and the others'
        accepted moves; one that sat the sweep out (its shard ran out, or
        never started) keeps its shift and appends every accepted move."""
        shift = 0
        offsets = {}
        for (w, *_), (_, fresh) in zip(tasks, exports):
            offsets[w] = shift
            shift += fresh
        for w in np.flatnonzero(np.diff(self.bounds)).tolist():
            earlier = pending.get(w)
            moves = [] if earlier is None else [earlier.moves]
            moves += [rows for (u, *_), rows in zip(tasks, accepted) if u != w]
            offset = offsets.get(w, 0 if earlier is None else earlier.offset)
            pending[w] = Refresh(offset, n_ids, np.concatenate([_NO_MOVES, *moves]))

    # ------------------------------------------------------------------
    # Phase 2
    # ------------------------------------------------------------------
    def bind_phase2(self) -> None:
        """Allocate Phase-2 execution state once the job carries the
        Phase-2 inputs, the global state and the assignment array.  A
        window of ``w`` edges sets at most ``2 * w`` bits, and never more
        than the plane's ``n * k``: that sizes every set-bit log."""
        longest = min(self.window, int(np.diff(self.bounds).max()))
        cells = self.job.state.n_vertices * self.job.k
        self.transport.bind_phase2(self.lone, min(2 * longest, cells))

    def run_pass(self, pass_name: str) -> tuple[int, int]:
        """Execute one Phase-2 pass; returns ``(total, syncs)``."""
        if pass_name not in PASS_METHODS:
            raise ConfigurationError(f"unknown pass {pass_name!r}")
        full = int(self.job.state.n_vertices) * int(self.job.k)
        total = 0
        syncs = 0
        for tasks in self._sweeps():
            total += sum(self._sweep(pass_name, tasks))
            syncs += 1
            cells = self.transport.barrier(pass_name)
            if cells is not None:
                self.barrier_cells += cells
                self.barrier_full_cells += full
        return total, (syncs if self.sharded else 0)

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """End a successful run.  Nothing is left to copy: every
        transport writes assignments into the job as windows return and
        the global state at every barrier; ``close()`` releases the
        rest."""

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
        """Start a session for one run (allocate views, workers, segments)."""

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
        self.logs: list[ReplicaLog] = []
        self.clusterers: list[ClusteringWorker] = []

    def run(self, step, tasks):
        results = []
        for w, start, stop, *refresh in tasks:
            try:
                results.append(self._window(step, w, start, stop, *refresh))
            except Exception as exc:
                raise WorkerFailed(w, step, _describe(exc)) from exc
        return results

    def _window(self, step, w, start, stop, refresh=None):
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
                self.logs[w] if self.logs else None,
                (job.part, job.weights),
                job.assignments[start:stop],
                k=job.k,
                hash_seed=job.hash_seed,
                hdrf_lambda=job.hdrf_lambda,
            )
        window = _window_stream(job.stream, start, stop)
        if step == "degree":
            return kernels.degree_pass(window), ()
        return self.clusterers[w].window(window, refresh)

    def open_clustering(self, degrees, cap, lone, log_capacity):
        self.clusterers = [
            ClusteringWorker(self.kernels, degrees, cap, None if lone else log_capacity)
            for _ in range(1 if lone else self.job.n_workers)
        ]

    def close_clustering(self, lone):
        clusterers, self.clusterers = self.clusterers, []
        if lone:
            return self.kernels.clustering_export(clusterers[0].state)[:2]
        return None

    def bind_phase2(self, lone, log_capacity):
        job = self.job
        if lone:
            # A lone view is never stale, so it shares the global state
            # outright: no logs, no barrier work, bit-exact with the
            # sequential pass.
            self.views = [job.state]
            return
        self.views = [
            PartitionState(
                job.state.n_vertices, job.k, job.state.n_edges, job.alpha,
                packed=job.state.packed,
            )
            for _ in range(job.n_workers)
        ]
        self.logs = [ReplicaLog(log_capacity) for _ in range(job.n_workers)]

    def barrier(self, step):
        if self.logs:
            return apply_logs(self.kernels, self.job.state, self.views, self.logs)

    def extra_state_bytes(self) -> int:
        views = [view for view in self.views if view is not self.job.state]
        return sum(x.nbytes() for x in (*views, *self.logs))


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
# local worker processes: the socket transport on loopback
# ----------------------------------------------------------------------
#: Names of shared segments currently owned by live sessions.
#: Test/debug hook: must be empty whenever no session is open.
_LIVE_SEGMENTS: set[str] = set()


def live_shared_segments() -> frozenset[str]:
    """Segment names owned by open sessions (leak-check hook)."""
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


def mp_context(start_method: str | None):
    """The ``multiprocessing`` context of ``start_method`` (``None``:
    :func:`default_start_method`).

    Every start method but ``fork`` re-runs ``__main__`` in each child,
    by its module name or else by the path in ``__main__.__file__``.  A
    script read from standard input names ``<stdin>``, no file: each
    child would die in bootstrap before it connects back.  That raises
    :class:`~repro.errors.ConfigurationError` here, before the caller
    creates any segment, socket or process."""
    import multiprocessing as mp
    import os
    import sys
    from multiprocessing import process

    method = start_method or default_start_method()
    main = sys.modules.get("__main__")
    path = getattr(main, "__file__", None)
    by_path = getattr(getattr(main, "__spec__", None), "name", None) is None
    if method != "fork" and by_path and path is not None:
        if not os.path.isfile(os.path.join(process.ORIGINAL_DIR or "", path)):
            raise ConfigurationError(
                f"start method {method!r} re-runs __main__ in every worker, "
                f"but __main__ names {path!r}, which is no file: run the "
                "code from a script file or a module, or use 'fork'"
            )
    return mp.get_context(method)


def check_start_method(start_method: str | None) -> None:
    """Reject a ``multiprocessing`` start method this host lacks."""
    import multiprocessing as mp

    if start_method not in (None, *mp.get_all_start_methods()):
        raise ConfigurationError(
            f"start_method {start_method!r} not available; "
            f"choose from {mp.get_all_start_methods()}"
        )


class ProcessRunner(Runner):
    """True multi-process execution: socket workers on loopback.

    A session listens on ``127.0.0.1`` and starts one local worker
    process per shard, which connects back and speaks the wire protocol
    of :class:`~repro.core.distributed.DistributedRunner`; this runner is
    that transport without ``host:port`` workers.

    Parameters
    ----------
    start_method:
        ``multiprocessing`` start method (``None`` picks
        :func:`default_start_method`).  ``fork`` inherits dynamically
        registered kernel backends; ``spawn`` re-imports them.
    task_timeout:
        Seconds any single worker reply may take (the transport's
        ``recv_timeout``).  A worker that stalls past it raises a
        :class:`~repro.errors.PartitioningError` naming the timeout (one
        that died raises at once), and the session teardown terminates
        every worker and unlinks the edge segment.
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
        from repro.core.distributed import _SocketTransport

        transport = _SocketTransport(
            job,
            self.kind,
            start_method=self.start_method,
            recv_timeout=self.task_timeout,
        )
        return RunnerSession(job, transport)


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
    distributed runners (``task_timeout`` is the per-reply
    ``recv_timeout`` of their socket workers); ``workers``/
    ``connect_timeout`` configure the distributed runner only.  All are
    ignored by runners without execution knobs.

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
