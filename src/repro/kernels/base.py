"""Kernel-backend contracts shared by all backends.

See the :mod:`repro.kernels` package docstring for the backend contract
(bit-exactness against the ``python`` reference backend) and for how to
add a backend.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import PartitioningError, StreamError
from repro.metrics.runtime import CostCounter
from repro.partitioning.state import PartitionState


def check_vertex_ids(chunk: np.ndarray, n: int, pos: int) -> None:
    """Raise :class:`~repro.errors.StreamError` when an id of ``chunk``
    (whose first edge sits at stream position ``pos``) is ``n`` or more.

    Passes whose state is sized up front call it per chunk, so an id
    beyond that size is a typed error on every backend rather than an
    ``IndexError`` or an out-of-bounds write.  Ids are non-negative by
    the time chunks leave a stream.
    """
    if chunk.size and int(chunk.max()) >= n:
        row = int(np.flatnonzero((chunk >= n).any(axis=1))[0])
        raise StreamError(
            f"edge {pos + row} has vertex id {int(chunk[row].max())}, "
            f"outside the {n} vertices of the pass state"
        )


def check_clustering_exports(n: int, base: int, worker_states) -> list:
    """The ``(v2c_w, n_ids)`` pairs of one clustering barrier's worker
    exports (``v2c_w`` as int64, ``n_ids = len(volumes_w)``), after
    checking each against the snapshot it started from.

    Each export must hold ``n`` vertices and at least ``base`` clusters,
    and every cluster id in it must lie in ``[-1, len(volumes_w))``.  The
    distributed coordinator folds exports that arrived over sockets, so
    the python merge calls this and raises, on a miss, the same
    :class:`~repro.errors.PartitioningError` the ``c`` merge raises from
    its loop, instead of an ``IndexError`` or a volume vector grown past
    the merged ids.
    """
    exports = []
    for w, (v2c_w, vol_w) in enumerate(worker_states):
        v2c_w = np.asarray(v2c_w, dtype=np.int64)
        n_ids = int(len(vol_w))
        if v2c_w.shape != (n,) or n_ids < base:
            raise PartitioningError(
                f"worker {w}'s clustering export holds {v2c_w.shape[0]} "
                f"vertices and {n_ids} clusters; the barrier needs {n} "
                f"vertices and at least {base} clusters"
            )
        outside = (v2c_w < -1) | (v2c_w >= n_ids)
        if outside.any():
            i = int(np.argmax(outside))
            raise PartitioningError(
                f"worker {w}'s clustering export puts vertex {i} in "
                f"cluster {int(v2c_w[i])}, outside its {n_ids} cluster ids"
            )
        exports.append((v2c_w, n_ids))
    return exports


def phase2_inputs(v2c, c2p, volumes, degrees, k: int):
    """The read-only Phase-2 input of every backend: ``(part, weights)``.

    ``part[x]`` (int32) is the partition of vertex ``x``'s cluster,
    ``c2p[v2c[x]]``, or -1 for a vertex Phase 1 never clustered;
    ``weights[x]`` (int64 ``(n, 2)``) is ``(degrees[x],
    volumes[v2c[x]])``, with volume 0 for an unclustered vertex.  The
    passes then gather one partition id and one weights row per
    endpoint.  Their skip test ``part[u] == part[v]`` is Algorithm 2's
    ``c(u) = c(v) or c2p(c(u)) = c2p(c(v))``, since ``c2p`` is a
    function.

    Built once per run, after the cluster mapping.  Everything is
    checked here, once, raising :class:`~repro.errors.PartitioningError`:
    the lengths agree, every ``v2c`` entry lies in ``[-1, len(c2p))``,
    every ``c2p`` entry in ``[0, k)``, and every clustered vertex has a
    positive degree (the degree pass counted every edge the clustering
    saw).  So an edge a pass scores has both degrees at least 1.
    """
    v2c = np.asarray(v2c, dtype=np.int64)
    c2p = np.asarray(c2p, dtype=np.int64)
    volumes = np.asarray(volumes, dtype=np.int64)
    degrees = np.asarray(degrees, dtype=np.int64)
    n, n_clusters = v2c.shape[0], c2p.shape[0]
    if degrees.shape != (n,) or volumes.shape != (n_clusters,):
        raise PartitioningError(
            f"Phase-1 arrays disagree: {n} cluster ids and "
            f"{degrees.shape[0]} degrees, {n_clusters} cluster partitions "
            f"and {volumes.shape[0]} volumes"
        )
    if n and (int(v2c.min()) < -1 or int(v2c.max()) >= n_clusters):
        x = int(np.argmax((v2c < -1) | (v2c >= n_clusters)))
        raise PartitioningError(
            f"vertex {x} is in cluster {int(v2c[x])}, outside the "
            f"{n_clusters} clusters of the mapping"
        )
    if n_clusters and (int(c2p.min()) < 0 or int(c2p.max()) >= k):
        c = int(np.argmax((c2p < 0) | (c2p >= k)))
        raise PartitioningError(
            f"cluster {c} maps to partition {int(c2p[c])}, outside [0, {k})"
        )
    # One trailing sentinel slot: v2c == -1 indexes it (part -1, volume 0).
    part_of = np.empty(n_clusters + 1, dtype=np.int32)
    part_of[:-1] = c2p
    part_of[-1] = -1
    volume_of = np.empty(n_clusters + 1, dtype=np.int64)
    volume_of[:-1] = volumes
    volume_of[-1] = 0
    part = part_of[v2c]
    uncounted = (part >= 0) & (degrees <= 0)
    if uncounted.any():
        x = int(np.argmax(uncounted))
        raise PartitioningError(
            f"vertex {x} is in cluster {int(v2c[x])} but has degree "
            f"{int(degrees[x])}: the degree pass never counted it"
        )
    weights = np.empty((n, 2), dtype=np.int64)
    weights[:, 0] = degrees
    weights[:, 1] = volume_of[v2c]
    return part, weights


def partition_error(pos: int, u: int, v: int, pu: int, pv: int, k: int):
    """The :class:`~repro.errors.StreamError` for edge ``pos`` = ``(u,
    v)``, which a Phase-2 pass would assign, when the ``part`` of an
    endpoint (``pu`` or ``pv``) lies outside ``[0, k)``: every backend
    raises this one error for such an edge."""
    x, p = (u, pu) if not 0 <= pu < k else (v, pv)
    why = " (Phase 1 never clustered it)" if p == -1 else ""
    return StreamError(
        f"edge {pos}: vertex {x} maps to partition {p}, outside [0, {k}){why}"
    )


class ReplicaLog:
    """The replica bits one worker's Phase-2 window set: a set-bit log.

    Each entry is the int64 cell ``row * k + p`` of a bit that was clear
    in the worker's view when its pass set it, in the order the pass set
    them (per edge, ``u``'s bit before ``v``'s).  ``cells`` holds
    ``capacity`` slots and ``fill[0]`` the number in use, both from
    ``allocator`` (``np.zeros`` by default).  A window of ``w`` edges
    sets at most ``2 * w`` bits, and at most the plane's ``n * k``, so
    the runners size it ``min(2 * w, n * k)`` from the schedule.
    """

    __slots__ = ("cells", "fill")

    def __init__(self, capacity: int, allocator=None) -> None:
        alloc = np.zeros if allocator is None else allocator
        self.cells = alloc(int(capacity), np.int64)
        self.fill = alloc(1, np.int64)

    def nbytes(self) -> int:
        return int(self.cells.nbytes + self.fill.nbytes)

    def entries(self) -> np.ndarray:
        """The logged cells, a view of the used slots."""
        return self.cells[: int(self.fill[0])]

    def append(self, cell: int) -> None:
        fill = int(self.fill[0])
        check_log_fill(fill + 1, self.cells.shape[0])
        self.cells[fill] = cell
        self.fill[0] = fill + 1

    def clear(self) -> None:
        self.fill[0] = 0


def check_log_fill(fill: int, capacity: int) -> None:
    """Raise :class:`~repro.errors.PartitioningError` for a window that
    set more bits than its log's ``capacity``."""
    if fill > capacity:
        raise PartitioningError(
            f"a Phase-2 window set {fill} new replica bits, past its "
            f"set-bit log's {capacity} slots"
        )


def log_cells(logs, dtype=np.int64) -> np.ndarray:
    """The entries of the set-bit ``logs`` (arrays, as
    :meth:`ReplicaLog.entries` gives them, or wire cells) as one int64
    array, after checking that each is a 1-d array of ``dtype``: a
    :class:`~repro.errors.PartitioningError` otherwise."""
    dtype = np.dtype(dtype)
    for log in logs:
        if not (isinstance(log, np.ndarray) and log.dtype == dtype and log.ndim == 1):
            raise PartitioningError(
                f"a set-bit log must be a 1-d {dtype} array, got "
                f"{type(log).__name__} {getattr(log, 'dtype', '')}"
                f"{getattr(log, 'shape', '')}"
            )
    if len(logs) == 1:
        return np.ascontiguousarray(logs[0], dtype=np.int64)
    return np.concatenate([np.zeros(0, np.int64), *logs], dtype=np.int64)


def log_entry_error(cell: int, rows: int, k: int) -> PartitioningError:
    """The error every backend raises, before it writes any bit, for a
    set-bit log entry outside ``[0, rows * k)``."""
    return PartitioningError(
        f"set-bit log entry {cell} lies outside the {rows * k} replica "
        f"cells ({rows} rows, k={k})"
    )


class Int64Buffer:
    """Growable int64 array of Phase-1 cluster volumes (``c`` state).

    Phase-1 clustering allocates cluster ids sequentially; the compiled
    loops append by writing past the filled prefix (see :meth:`reserve`).
    """

    __slots__ = ("_buf", "_n")

    def __init__(self, initial_capacity: int = 1024) -> None:
        self._buf = np.zeros(max(int(initial_capacity), 1), dtype=np.int64)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def view(self) -> np.ndarray:
        """Live array view of the filled prefix (invalidated by growth)."""
        return self._buf[: self._n]

    def reserve(self, capacity: int) -> np.ndarray:
        """Grow the backing array to at least ``capacity`` slots and
        return it.

        Reserve a safe bound up front, hand the raw backing array to the
        kernel, then publish the new fill count with :meth:`set_length`.
        The returned array is the live backing store; growing
        invalidates earlier views (amortized O(1) per slot: the
        capacity at least doubles).
        """
        capacity = int(capacity)
        if capacity > self._buf.shape[0]:
            grown = np.zeros(
                max(capacity, self._buf.shape[0] * 2), dtype=np.int64
            )
            grown[: self._n] = self._buf[: self._n]
            self._buf = grown
        return self._buf

    def set_length(self, n: int) -> None:
        """Publish ``n`` filled slots after direct writes into
        :meth:`reserve`'s array (``n`` must not exceed its capacity)."""
        n = int(n)
        if not 0 <= n <= self._buf.shape[0]:
            raise ValueError(
                f"length {n} outside the reserved capacity "
                f"{self._buf.shape[0]}"
            )
        self._n = n

    @classmethod
    def from_array(cls, values: np.ndarray) -> "Int64Buffer":
        """Buffer pre-filled with ``values`` (copied)."""
        buf = cls(max(int(values.shape[0]), 1))
        buf._buf[: values.shape[0]] = values
        buf._n = int(values.shape[0])
        return buf


@dataclass
class ClusteringState:
    """Mutable Phase-1 state; concrete field types are backend-owned.

    The ``python`` backend stores plain lists (fast scalar indexing);
    the ``c`` backend stores int64 arrays and an
    :class:`Int64Buffer` of volumes, which its compiled loops write.
    Only the owning backend may touch the fields; everyone else goes
    through :meth:`KernelBackend.clustering_export`.
    """

    v2c: object
    vol: object
    deg: object


@dataclass
class TwoPhaseContext:
    """Shared read/write state of the 2PS-L Phase-2 streaming passes.

    ``part`` (int32, one entry per vertex: the partition of its cluster,
    or -1) and ``weights`` (int64 ``(n, 2)``: each vertex's degree and
    its cluster's volume) are the read-only Phase-1 product, built once
    per run by :func:`phase2_inputs`; ``state`` (replica bits + sizes +
    hard cap), ``assignments`` and ``cost`` are mutated in place.  On a
    sharded run ``log`` is the worker's :class:`ReplicaLog`, which the
    pass appends every bit to that was clear in ``state`` when it set it;
    ``None`` (the sequential path, the HDRF baseline) logs nothing.
    """

    k: int
    part: np.ndarray
    weights: np.ndarray
    state: PartitionState
    assignments: np.ndarray
    hash_seed: int
    cost: CostCounter
    hdrf_lambda: float = 1.1
    log: ReplicaLog | None = None


class KernelBackend(ABC):
    """One implementation of every streaming pass (see package docs).

    All passes consume the stream through ``stream.chunks()`` so the
    stream's ``default_chunk_size`` is the single chunk-size knob.

    Passes must only rely on ``stream.chunks()`` and ``stream.n_edges``
    (plus ``stream.n_vertices`` for the degree pass): the sharded
    parallel partitioner dispatches every Phase-2 pass on lightweight
    sync-window sub-streams that expose exactly that surface, with
    ``ctx.assignments`` sliced to the window.  Since backends are
    bit-exact across chunk boundaries, window boundaries are free too —
    that is what makes ``ParallelTwoPhase(n_workers=1)`` bit-exact with
    the sequential pipeline.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    # ------------------------------------------------------------------
    # stateless passes
    # ------------------------------------------------------------------
    @abstractmethod
    def degree_pass(self, stream, n_hint: int | None = None) -> np.ndarray:
        """Count every endpoint occurrence in one streaming pass.

        Returns an int64 array of length ``max(n_hint, max_id + 1)``.
        """

    @abstractmethod
    def stateless_pass(
        self,
        stream,
        map_chunk: Callable[[np.ndarray, np.ndarray], np.ndarray],
        state: PartitionState,
        assignments: np.ndarray,
    ) -> None:
        """Drive a stateless hash partitioner over the stream.

        ``map_chunk(u, v)`` maps endpoint arrays to an int32 partition
        array; it must be vectorized *and* well-defined on length-1 inputs
        (the ``per-edge`` test backend of ``tests/per_edge.py`` calls it
        on one-edge slices).  Replica bits and sizes are recorded through
        ``state.scatter_edges``.  A chunk holding an id at or beyond
        ``state.n_vertices`` raises :class:`~repro.errors.StreamError`
        before ``map_chunk`` sees it.
        """

    # ------------------------------------------------------------------
    # Phase 1: streaming clustering
    # ------------------------------------------------------------------
    @abstractmethod
    def clustering_init(self, degrees: np.ndarray) -> ClusteringState:
        """Fresh clustering state for ``len(degrees)`` vertices."""

    @abstractmethod
    def clustering_true_pass(
        self, stream, st: ClusteringState, cap: float, cost: CostCounter | None
    ) -> None:
        """One Algorithm-1 pass with known true degrees."""

    @abstractmethod
    def clustering_partial_pass(
        self, stream, st: ClusteringState, cap: float, cost: CostCounter | None
    ) -> None:
        """One original-Hollocou pass (degrees counted on the fly)."""

    @abstractmethod
    def clustering_export(
        self, st: ClusteringState
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Snapshot ``(v2c, volumes, degrees)`` as int64 arrays."""

    @abstractmethod
    def clustering_load(
        self, v2c: np.ndarray, volumes: np.ndarray, degrees: np.ndarray
    ) -> ClusteringState:
        """Backend-native state from exported arrays (inverse of export).

        ``v2c``/``volumes`` in the returned state are independent copies
        (mutating them must not touch the input arrays); ``degrees`` MAY
        alias the input, because the true-degree passes the parallel path
        dispatches never write it (loading happens once per sync window,
        so an O(|V|) degree copy per window would dominate small
        windows).  Loaded state is therefore only valid for true-degree
        passes — ``clustering_partial_pass`` mutates degrees and must
        never run on it.  This is how the parallel Phase-1 path hands
        each worker a stale snapshot of the merged global clustering
        before a sync window.
        """

    # ------------------------------------------------------------------
    # Phase-1 barrier merges (parallel path; see package docs for the
    # associativity / commutativity contract a backend must satisfy)
    # ------------------------------------------------------------------
    @abstractmethod
    def merge_phase1_degrees(
        self, partials, n_hint: int | None = None
    ) -> np.ndarray:
        """Merge per-shard partial degree vectors into one int64 array.

        The merge is an element-wise integer sum over vectors of possibly
        different lengths (each partial stops at its shard's max vertex
        id), grown to at least ``n_hint``.  Integer addition is associative
        *and* commutative, so any merge order is bit-exact.
        """

    @abstractmethod
    def merge_phase1_clustering(
        self,
        v2c: np.ndarray,
        volumes: np.ndarray,
        worker_states,
        degrees: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One clustering barrier: fold worker deltas into the global state.

        ``worker_states`` is the **ordered** (ascending worker index) list
        of ``(v2c_w, volumes_w)`` exports, each produced by running one
        sync window from the shared snapshot ``(v2c, volumes)``; a worker's
        fresh cluster ids occupy ``[len(volumes), len(volumes_w))``.  The
        merge (same result required of every backend, bit for bit):

        - fresh ids are remapped to a single global sequence in worker
          order (worker ``w``'s ``j``-th fresh cluster becomes
          ``len(volumes) + sum of earlier workers' fresh counts + j``);
        - per vertex, the **first** worker in order whose assignment
          differs from the snapshot wins; later claims are dropped and
          unchanged vertices keep the snapshot assignment;
        - merged volumes are recomputed exactly as the sum of member true
          degrees (the Algorithm-1 invariant), so emptied and conflicted
          fresh clusters end at volume 0.

        Returns the merged ``(v2c, volumes)``.  See the package docstring
        for why this fold is associative over the ordered worker sequence
        but not commutative.
        """

    # ------------------------------------------------------------------
    # Phase-2 barrier and the cluster mapping
    # ------------------------------------------------------------------
    @abstractmethod
    def apply_replica_log(self, state: PartitionState, logs) -> None:
        """Set every bit the set-bit ``logs`` (1-d int64 arrays of cells
        ``row * k + p``, see :class:`ReplicaLog`) name in ``state``.

        Byte for byte the same on every backend, dense or packed.  Every
        entry is checked before the first write, so a call that raises
        (:func:`log_entry_error`, or :func:`log_cells`'s error) writes
        nothing.
        """

    @abstractmethod
    def list_schedule(self, jobs, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Graham's list scheduling of ``jobs`` (int64 sizes, in the
        order given) onto ``k`` partitions.

        Each job goes to the partition of least load, the lowest index
        on ties.  Returns ``(parts, loads)``: ``parts[j]`` is job ``j``'s
        partition and ``loads[p]`` the summed sizes on ``p``, both int64.
        See :mod:`repro.core.scheduling` for the sort around it.
        """

    # ------------------------------------------------------------------
    # Phase 2: 2PS-L partitioning passes
    # ------------------------------------------------------------------
    #
    # The three passes read ``ctx.part`` and ``ctx.weights`` only.  The
    # pre-partition pass assigns the edges with ``part[u] == part[v]``,
    # the remaining passes the others; an edge a pass would assign whose
    # endpoint's ``part`` lies outside ``[0, k)`` raises
    # :func:`partition_error`, and an id at or beyond the pass state
    # :func:`check_vertex_ids`'s error, on every backend.
    @abstractmethod
    def prepartition_pass(self, stream, ctx: TwoPhaseContext) -> int:
        """Algorithm 2 lines 16-26; returns the number of edges assigned."""

    @abstractmethod
    def remaining_pass_linear(self, stream, ctx: TwoPhaseContext) -> None:
        """Algorithm 2 lines 27-44, two-candidate constant-time scoring."""

    @abstractmethod
    def remaining_pass_hdrf(self, stream, ctx: TwoPhaseContext) -> None:
        """2PS-HDRF: full HDRF scoring over all k partitions."""

    # ------------------------------------------------------------------
    # Classic streaming baselines
    # ------------------------------------------------------------------
    @abstractmethod
    def hdrf_baseline_pass(self, stream, ctx: TwoPhaseContext) -> np.ndarray:
        """The classic HDRF baseline (CIKM'15) in one streaming pass.

        Unlike :meth:`remaining_pass_hdrf`, every edge participates (there
        is no pre-partitioning), and the degrees feeding ``theta`` are
        *partial*: each endpoint's counter is incremented before the edge
        is scored, exactly as in the original algorithm.  The increments
        are decision-independent, so a batched backend may reconstruct the
        per-edge partial degrees ahead of the decisions.

        ``ctx.part``/``ctx.weights`` are unused (pass empty arrays);
        ``ctx.state``, ``ctx.assignments`` and ``ctx.cost`` are
        mutated in place (``edges_streamed += |E|`` and
        ``score_evaluations += k * |E|``, preserving the baseline's
        O(|E| * k) operation count).  Returns the final int64 partial-
        degree array (for the caller's state-bytes accounting).
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
