"""Execution runners: one sync-window driver over one transport.

Both 2PS-L front-ends — :class:`~repro.core.partitioner.TwoPhasePartitioner`
and :class:`~repro.core.parallel.ParallelTwoPhase` — stream every pass
of both phases through a :class:`RunnerSession`, the one driver of the
CuSP-style sync-window schedule.  The driver owns the *semantics*: stream
shards and their windows, the Phase-1 degree merge, the clustering merge,
each worker's refresh and the one compaction (see :mod:`repro.kernels`
for the merge contract), the Phase-2 sweep/barrier loop, cost folding,
sync and barrier accounting, and the typed error for a failed worker
window.  The one transport below it,
:class:`~repro.core.distributed.WorkerTransport`, owns the *execution*:
it runs each sweep's windows as requests to one worker per shard, all
served by the same message handlers, and the runner decides where each
worker runs:

- :class:`SerialRunner` — one worker in the coordinator, one shard and
  one window per pass, which streams the stream itself: the sequential
  pipeline, zero syncs, for any configured worker count.
- :class:`SimulatedRunner` — ``n_workers`` workers in the coordinator,
  run one after the other in every sweep.  Deterministic and
  dependency-free; parallel wall-clock is *modeled*.
- :class:`ProcessRunner` — worker processes that speak the versioned
  wire format of :mod:`repro.core.wire`.  By default worker 0 runs in
  the coordinator and a forked local worker process serves each other
  shard, ``n_workers - 1`` of them, each over a socketpair.
  Given ``host:port`` specs it connects to that many worker servers
  instead, which stream their own shards of a file.  Edge data never
  crosses the wire (see "Stream handover" below).  Parallel wall-clock
  is *measured*.

A worker in the coordinator streams the job's stream object, and a
window covering the whole stream streams it as a full pass.  Worker 0 in
the coordinator writes the job's own Phase-2 arrays: its view is the
global state ``job.state``, and its shard of assignments is a slice of
``job.assignments``.

Equivalence contract
--------------------
Every runner executes the same deterministic schedule: worker ``w``
processes shard ``[bounds[w], bounds[w+1])`` in windows of at most
``sync_interval`` edges, and after every sweep a barrier merges worker
deltas into the global state and refreshes every stale view.  The
schedule, the merges and the accounting are the driver's code, the
windows and barriers the transport's, shared by all runners, and the
kernel contract makes chunk and window boundaries semantics-free (see
:mod:`repro.kernels`).  This pins down every output bit:

- ``process`` is **bit-identical** to ``simulated`` under the same
  schedule, with local and with ``host:port`` workers — Phase-1 degrees
  and clustering, per-edge assignments, replica matrix, partition sizes
  *and* cost counters (cost fields are sums of per-window counts, so
  merge order cannot matter).  Both run every window through the same
  handlers, a Phase-2 one through the one body
  :func:`run_phase2_window`, which reads it through ``_SubStream`` over
  the job's edges (see "Stream handover" below), so chunk boundaries
  agree; the simulated runner's workers take their requests by
  reference and worker processes decode them from the wire, which
  carries every value exactly.  Every Phase-2 barrier sets
  the bits of the workers' set-bit logs with the one kernel op
  ``apply_replica_log`` and merges sizes with :func:`merge_sizes`, every
  worker applies the same news before the same window, and worker 0's
  view is the global state in every session but a ``host:port`` one,
  whose coordinator keeps a plane of its own.  ``simulated`` thereby
  doubles as the in-CI deterministic twin of a multi-host run.
- With ``n_workers=1`` every runner is bit-exact with the sequential
  pipeline: a lone worker's view is never stale, so its one clustering
  state needs no log, merge or refresh, its Phase-2 view is the global
  state in every session but a ``host:port`` one, and window boundaries
  are ordinary chunk boundaries.  ``serial`` *is* the sequential
  pipeline for any worker count.
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

Phase-2 barriers cost O(bits set), not O(``|V|``): each Phase-2 loop of
a sharded run appends every replica bit it sets that was clear in its
worker's view to that worker's set-bit log
(:class:`~repro.kernels.base.ReplicaLog`).  At the barrier the global
state takes the logged bits of every worker but worker 0, whose view it
is (of every worker in a ``host:port`` session), with the kernel op
``apply_replica_log``, and each other worker's news (the cells the
other workers logged since its last window, or the merged plane where
that is fewer bytes on the wire, and the merged sizes) rides on its next window
request and is applied before the kernel runs, so a barrier adds no
round trip and the run's last barrier ships nothing.  Bits only go from
0 to 1: the planes of OR-ing whole views.  A sharded session thus holds
``n_workers - 1`` views beside the global state (``n_workers`` at
``host:port``), and a lone worker in the coordinator none: its view is
the global state, so it keeps no log and its barriers do nothing.
Sessions count the cells the logs wrote against the ``n * k`` cells of
a full re-broadcast (``barrier_cells`` / ``barrier_full_cells``).

Stream handover
---------------
Workers in the coordinator stream the job's stream object, so a serial
or simulated session, and a one-worker loopback one, starts no process
and opens no socket.  Forked workers inherit through their process
arguments:

- a :class:`~repro.streaming.stream.FileEdgeStream` (a subclass too),
  or an :class:`~repro.streaming.stream.InMemoryEdgeStream` whose
  ``chunks`` neither a subclass nor the instance overrides, as the job's
  own stream object, which they read in place (a file out of core);
- any other stream as one private copy, read once through its
  ``chunks()`` before the fork and dropped once they have started.

``host:port`` workers reopen a file stream from its
:func:`~repro.streaming.stream.make_stream_spec`.

On a host without ``fork`` a session that would fork a worker raises
:class:`~repro.errors.ConfigurationError`, which points to ``host:port``
workers.  Worker views, logs, clustering states and assignment shards
live with the workers, worker 0's in the coordinator, where its view and
shard are the job's own; moves, refreshes and news cross the socket to
the worker processes, and their assignments cross it once.  ``close()``
is idempotent and runs on both success and error paths: it closes every
socket and reaps every forked worker, so a crashed or timed-out worker
leaks neither past the session (verified by the cleanup tests through
the leak-check hooks of :mod:`repro.core.distributed`).
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


class WorkerFailed(PartitioningError):
    """A worker reported an exception instead of a result.

    The transport raises it with the runner, the worker index and the
    cause; inside a sweep the driver turns it into the run's one typed
    error (see the module docstring), elsewhere it surfaces as is.
    """

    def __init__(self, worker: int, step: str, cause: str, runner: str) -> None:
        super().__init__(f"{runner} worker {worker} failed during {step}: {cause}")
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
    changed and the clusters it opened.  Every worker keeps one,
    wherever it runs.
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
    """One Phase-2 sync window, the body of every worker's.

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


def merge_sizes(base: np.ndarray, view_sizes) -> np.ndarray:
    """The sizes half of every Phase-2 barrier: ``g + sum(view - g)``,
    a new array, for the sizes ``g`` of the previous barrier.  Workers
    assign disjoint edges, so the deltas are disjoint; a stale view's
    overshoot of the cap is kept."""
    merged = base.copy()
    for sizes in view_sizes:
        merged += sizes - base
    return merged


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
class RunnerSession:
    """The sync-window driver of one run over its
    :class:`~repro.core.distributed.WorkerTransport`.

    ``sharded=False`` collapses the schedule to one shard and one window
    per pass (the serial runner): no syncs are reported, and a failing
    window re-raises the kernel's own exception.
    """

    def __init__(self, job: ShardedJob, transport, sharded: bool = True) -> None:
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
        self.transport.bind_phase2(self.lone, min(2 * longest, cells), self.bounds)

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
        """End a successful run: the transport collects every shard of
        assignments that is not in the job yet, once (worker 0 in the
        coordinator wrote its own as its windows ran).  Every barrier
        has written the global state already; ``close()`` releases the
        rest."""
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
        """Start a session for one run (allocate views, workers, sockets)."""

    def parallel_wall_seconds(
        self, phase2_seconds: float, n_workers: int, syncs: int,
        sync_latency: float,
    ) -> float:
        """Parallel Phase-2 wall-clock estimate for the result extras."""
        return phase2_seconds  # measured runners: the timer already is it

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} kind={self.kind!r}>"


# ----------------------------------------------------------------------
# in-process runners: serial and simulated
# ----------------------------------------------------------------------
class SerialRunner(Runner):
    """Sequential reference execution: one window, the whole stream.

    Ignores ``n_workers``/``sync_interval`` — one worker in the
    coordinator dispatches each pass (Phase 1 and Phase 2 alike) once
    over the stream itself against the global state, which is exactly
    the sequential pipeline (bit-exact with ``TwoPhasePartitioner`` by
    construction).  Reports zero syncs.
    """

    kind = "serial"

    def open(self, job: ShardedJob) -> RunnerSession:
        from repro.core.distributed import WorkerTransport

        return RunnerSession(job, WorkerTransport(job, self.kind, 1), sharded=False)


class SimulatedRunner(Runner):
    """Single-process round-robin execution of the sharded schedule.

    Every worker runs in the coordinator, on the workers' own handlers,
    and they take turns in quanta so the interleaving (and therefore the
    staleness pattern) matches a real parallel run with barrier syncs;
    parallel wall-clock is *modeled* as
    ``sequential_phase2 / n_workers + syncs * sync_latency``.
    """

    kind = "simulated"

    def open(self, job: ShardedJob) -> RunnerSession:
        from repro.core.distributed import WorkerTransport

        return RunnerSession(job, WorkerTransport(job, self.kind, job.n_workers))

    def parallel_wall_seconds(
        self, phase2_seconds, n_workers, syncs, sync_latency
    ) -> float:
        return phase2_seconds / n_workers + syncs * sync_latency


# ----------------------------------------------------------------------
# worker processes: the socket transport, local or at host:port
# ----------------------------------------------------------------------
class ProcessRunner(Runner):
    """True multi-process execution: socket workers, local or remote.

    Without ``workers`` a session runs worker 0 inside the coordinator,
    through the workers' own message handlers, and forks one local
    worker process for each other shard, ``n_workers - 1`` in all, each
    serving one end of a socketpair; forked workers inherit dynamically
    registered kernel backends and the stream (the module docstring's
    "Stream handover").
    On a host without ``fork`` such a session raises
    :class:`~repro.errors.ConfigurationError` unless it has a single
    worker.  With ``workers`` it connects to one worker server per shard
    instead.  Every worker process speaks the wire protocol of
    :mod:`repro.core.wire`, served by :mod:`repro.core.distributed`.

    Parameters
    ----------
    task_timeout:
        Seconds any single reply of a worker process may take (the
        transport's ``recv_timeout``).  A worker that stalls past it
        raises a :class:`~repro.errors.PartitioningError` naming the
        timeout (one that died raises at once), and the session teardown
        closes every socket and terminates every local worker.  Worker 0
        of a local session runs on the coordinator's thread, which no
        timeout covers.
    workers:
        ``host:port`` specs of pre-started worker servers (the CLI
        ``worker`` subcommand, :func:`~repro.core.distributed.serve_worker`),
        one per shard.  They need a file-backed stream: each streams its
        own shard, and edge data never crosses the wire.  ``None`` (the
        default) starts local workers.
    connect_timeout:
        Seconds to connect and handshake, every socket worker.
    """

    kind = "process"
    measures_wallclock = True

    def __init__(
        self,
        task_timeout: float = 600.0,
        workers=None,
        connect_timeout: float = 10.0,
    ) -> None:
        from repro.core.distributed import parse_worker_spec

        for name, value in (
            ("task_timeout", task_timeout),
            ("connect_timeout", connect_timeout),
        ):
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        self.task_timeout = float(task_timeout)
        self.workers = (
            None if workers is None else [parse_worker_spec(w) for w in workers]
        )
        self.connect_timeout = float(connect_timeout)

    def open(self, job: ShardedJob) -> RunnerSession:
        from repro.core.distributed import WorkerTransport

        transport = WorkerTransport(
            job,
            self.kind,
            job.n_workers,
            sockets=True,
            workers=self.workers,
            connect_timeout=self.connect_timeout,
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
    task_timeout: float = 600.0,
    workers=None,
    connect_timeout: float = 10.0,
) -> Runner:
    """Resolve a runner name or pass an instance through.

    ``task_timeout`` (the per-reply ``recv_timeout`` of its worker
    processes), ``workers`` and ``connect_timeout`` configure the process
    runner (see :class:`ProcessRunner`); the other runners have no
    execution knobs and ignore them.

    Raises
    ------
    ConfigurationError
        For unknown names (message lists the registry).
    """
    if isinstance(spec, Runner):
        return spec
    if spec not in RUNNERS:
        raise ConfigurationError(
            f"unknown runner {spec!r}; available: {sorted(RUNNERS)}"
        )
    if RUNNERS[spec] is ProcessRunner:
        return ProcessRunner(
            task_timeout=task_timeout,
            workers=workers,
            connect_timeout=connect_timeout,
        )
    return RUNNERS[spec]()
