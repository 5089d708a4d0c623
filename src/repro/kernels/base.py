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


def _move_rows(moves, what: str) -> np.ndarray:
    """``moves`` itself if it is an ``(m, 2)`` int64 array of ``(vertex,
    cluster id)`` rows: a :class:`~repro.errors.PartitioningError`
    otherwise."""
    if not (
        isinstance(moves, np.ndarray)
        and moves.dtype == np.int64
        and moves.ndim == 2
        and moves.shape[1] == 2
    ):
        raise PartitioningError(
            f"{what} must be an (m, 2) int64 array of (vertex, cluster) rows, "
            f"got {type(moves).__name__} {getattr(moves, 'dtype', '')}"
            f"{getattr(moves, 'shape', '')}"
        )
    return moves


def check_degrees(degrees, n: int) -> None:
    """Raise :class:`~repro.errors.PartitioningError` unless ``degrees``
    covers a clustering of ``n`` vertices."""
    if degrees.shape[0] < n:
        raise PartitioningError(
            f"{degrees.shape[0]} degrees for a clustering of {n} vertices"
        )


def check_export(w: int, export) -> tuple[np.ndarray, int]:
    """Worker ``w``'s clustering export ``(moves, n_fresh)``, after
    checking its form: an ``(m, 2)`` int64 move array and an integer
    ``0 <= n_fresh <= m`` (see :func:`check_clustering_moves`)."""
    moves, fresh = export
    what = f"worker {w}'s clustering export"
    moves = _move_rows(moves, what)
    m = moves.shape[0]
    if not isinstance(fresh, (int, np.integer)) or not 0 <= fresh <= m:
        raise PartitioningError(f"{what} claims {fresh} fresh clusters for {m} moves")
    return moves, int(fresh)


def check_clustering_moves(v2c: np.ndarray, base: int, exports, degrees) -> list:
    """The ``(moves, n_fresh)`` exports of one clustering barrier, after
    checking each against the global clustering ``v2c`` of ``base`` ids.

    Worker ``w``'s ``moves`` must be an ``(m, 2)`` int64 array whose
    vertices lie in ``[0, n)`` in strictly ascending order (each vertex
    once) and whose cluster ids lie in ``[-1, base + n_fresh)``, with
    ``0 <= n_fresh <= m``: each fresh cluster was opened for a vertex
    that was unclustered when the window started, and that vertex moved.
    The global ids of the moved vertices must lie in ``[-1, base)``, and
    ``degrees`` must cover the ``n`` vertices.  Entries are checked in
    worker order, then row order, all workers' rows before any global
    id, so every backend names the same first miss: a
    :class:`~repro.errors.PartitioningError`, raised before the merge
    writes anything.  Exports may have crossed a socket.
    """
    n = v2c.shape[0]
    check_degrees(degrees, n)
    checked = [check_export(w, export) for w, export in enumerate(exports)]
    for w, (moves, fresh) in enumerate(checked):
        what = f"worker {w}'s clustering export"
        x, c = moves[:, 0], moves[:, 1]
        bad = (x < 0) | (x >= n) | (c < -1) | (c >= base + fresh)
        bad[1:] |= x[1:] <= x[:-1]
        if bad.any():
            i = int(np.argmax(bad))
            xi, ci = int(x[i]), int(c[i])
            if not 0 <= xi < n:
                why = f"moves vertex {xi}, outside the {n} vertices"
            elif i and xi <= int(x[i - 1]):
                why = (
                    f"lists vertex {xi} after vertex {int(x[i - 1])}: it must "
                    "name each vertex once, in ascending order"
                )
            else:
                why = (
                    f"puts vertex {xi} in cluster {ci}, outside its "
                    f"{base + int(fresh)} cluster ids"
                )
            raise PartitioningError(f"{what} {why}")
    for moves, _ in checked:
        now = v2c[moves[:, 0]]
        outside = (now < -1) | (now >= base)
        if outside.any():
            i = int(np.argmax(outside))
            raise PartitioningError(
                f"vertex {int(moves[i, 0])}: global cluster id {int(now[i])} "
                f"is outside the {base} merged clusters"
            )
    return checked


def check_refresh(n_local: int, own, base: int, offset: int, n_ids: int, others):
    """``(own, others)`` of a clustering refresh, after checking its
    shapes and counts (see :meth:`KernelBackend.refresh_clustering`):
    both ``(m, 2)`` int64 move arrays, ``0 <= base <= n_local``,
    ``offset >= 0`` and ``n_ids >= n_local + offset``, where ``n_local``
    is the worker's id count.  Raises
    :class:`~repro.errors.PartitioningError` before any write."""
    own = _move_rows(own, "a worker's own moves")
    others = _move_rows(others, "a clustering refresh")
    if not (0 <= base <= n_local and offset >= 0 and n_ids >= n_local + offset):
        raise PartitioningError(
            f"a clustering refresh of {n_ids} ids cannot shift the fresh ids "
            f"[{base}, {n_local}) of a worker by {offset}"
        )
    return own, others


def refresh_entry_error(
    j: int, own, others, n: int, n_local: int, n_ids: int, current
) -> PartitioningError:
    """The error every backend raises, before it writes anything, for
    entry ``j`` of a clustering refresh (the worker's own moves first,
    then the others' moves).  ``current(x)`` reads the worker's cluster
    id of vertex ``x``."""
    if j < own.shape[0]:
        (x, c), limit, what = own[j].tolist(), n_local, "a worker's own move"
    else:
        j -= own.shape[0]
        (x, c), limit, what = others[j].tolist(), n_ids, "a refresh move"
    if not 0 <= x < n:
        why = f"names vertex {x}, outside the {n} vertices"
    elif not -1 <= c < limit:
        why = f"puts vertex {x} in cluster {c}, outside the {limit} cluster ids"
    else:
        why = (
            f"finds vertex {x} in cluster {current(x)}, outside the "
            f"worker's {n_local} ids"
        )
    return PartitioningError(f"{what} {why}")


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
    ``capacity`` slots and ``fill[0]`` the number in use.  A window of
    ``w`` edges sets at most ``2 * w`` bits, and at most the plane's
    ``n * k``, so the runners size it ``min(2 * w, n * k)`` from the
    schedule.
    """

    __slots__ = ("cells", "fill")

    def __init__(self, capacity: int) -> None:
        self.cells = np.zeros(int(capacity), np.int64)
        self.fill = np.zeros(1, np.int64)

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


class MoveLog:
    """The ``v2c`` writes of one worker's Phase-1 clustering window.

    Each row is ``(vertex, old id, new id)``, in the order the clustering
    loop wrote them: a fresh cluster (old id -1) or a move.
    ``rows`` holds ``capacity`` rows and ``fill[0]`` the number in use.
    An edge writes at most three ids (two fresh clusters and a move), so
    the runners size it ``3 * w`` rows for windows of ``w`` edges.
    :meth:`moves` turns the log into the window's export.
    """

    __slots__ = ("rows", "fill")

    def __init__(self, capacity: int) -> None:
        self.rows = np.empty((int(capacity), 3), np.int64)
        self.fill = np.zeros(1, np.int64)

    def extend(self, rows) -> None:
        """Append ``(vertex, old, new)`` rows (the python loop's writes)."""
        fill = int(self.fill[0])
        check_move_fill(fill + len(rows), self.rows.shape[0])
        if rows:
            self.rows[fill : fill + len(rows)] = rows
        self.fill[0] = fill + len(rows)

    def moves(self) -> np.ndarray:
        """The window's moves: an ``(m, 2)`` int64 array of ``(vertex,
        id)`` rows, ascending by vertex, for every vertex whose last id
        differs from its first old id (its id when the window started)."""
        rows = self.rows[: int(self.fill[0])]
        n = rows.shape[0]
        if not n:
            return np.zeros((0, 2), np.int64)
        # Rows by vertex, then by position: a plain sort of the unique
        # keys vertex * n + row runs several times faster than a stable
        # argsort, where the keys fit.
        if int(rows[:, 0].max()) < (1 << 62) // n:
            x, order = np.divmod(np.sort(rows[:, 0] * n + np.arange(n)), n)
        else:
            order = np.argsort(rows[:, 0], kind="stable")
            x = rows[order, 0]
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(x[1:], x[:-1], out=first[1:])
        last = np.append(first[1:], True)
        start = rows[order[first], 1]
        end = rows[order[last], 2]
        moved = start != end
        out = np.empty((int(moved.sum()), 2), dtype=np.int64)
        out[:, 0] = x[first][moved]
        out[:, 1] = end[moved]
        return out

    def clear(self) -> None:
        self.fill[0] = 0


def check_move_fill(fill: int, capacity: int) -> None:
    """Raise :class:`~repro.errors.PartitioningError` for a clustering
    window that wrote more ids than its :class:`MoveLog` holds."""
    if fill > capacity:
        raise PartitioningError(
            f"a clustering window wrote {fill} cluster ids, past its move "
            f"log's {capacity} rows"
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

    def n_ids(self) -> int:
        """Cluster ids allocated so far, emptied ones included."""
        return len(self.vol)


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
        self,
        stream,
        st: ClusteringState,
        cap: float,
        cost: CostCounter | None,
        log: MoveLog | None = None,
    ) -> None:
        """One Algorithm-1 pass with known true degrees.

        With a ``log``, every ``v2c`` write appends its ``(vertex, old
        id, new id)`` row there (the sharded path's windows, see
        :class:`MoveLog`); the sequential path passes none.
        """

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
        volumes: Int64Buffer,
        exports,
        degrees: np.ndarray,
    ) -> list:
        """One clustering barrier: fold the workers' moves into the global
        clustering, in place.

        ``v2c`` (int64, writable) and ``volumes`` (``base`` volumes) are
        the global clustering every worker started its window from.
        ``exports`` is the **ordered** (ascending worker index) list of
        ``(moves, n_fresh)`` exports: the ``(vertex, id)`` rows of every
        vertex whose id the window changed, ascending by vertex, and the
        count of clusters the window opened, whose ids occupy ``[base,
        base + n_fresh)`` (see :func:`check_clustering_moves`).  The
        merge (same result required of every backend, bit for bit):

        - fresh ids are remapped to a single global sequence in worker
          order (worker ``w``'s ``j``-th fresh cluster becomes ``base +
          sum of earlier workers' fresh counts + j``), and ``volumes``
          grows to ``base`` plus every worker's fresh count;
        - per vertex, the **first** worker in order with a move for it
          wins; later moves of it are dropped, and unmoved vertices keep
          their id;
        - each accepted move takes the vertex's true degree off its old
          cluster's volume and adds it to its new one's, in exact int64,
          so every volume stays the sum of its members' true degrees (the
          Algorithm-1 invariant) and emptied or outbid fresh clusters end
          at volume 0.

        Every entry is checked before the first write; a call that raises
        writes nothing.  Returns, per export, its accepted moves in
        merged ids (an ``(m, 2)`` int64 array, ascending by vertex):
        what the other workers' refreshes carry.  See the package
        docstring for why this fold is associative over the ordered
        worker sequence but not commutative.
        """

    @abstractmethod
    def refresh_clustering(
        self,
        st: ClusteringState,
        own: np.ndarray,
        base: int,
        offset: int,
        n_ids: int,
        others: np.ndarray,
    ) -> None:
        """Bring one worker's clustering to the merged one after a barrier.

        ``own`` is the worker's last export (its moves, from ``base``
        ids; its fresh ids are ``[base, st.n_ids())``), ``offset`` the
        shift the merge gave those fresh ids, ``n_ids`` the merged id
        count, and ``others`` the moves the merge accepted from the other
        workers, in merged ids, applied in order.  Afterwards ``st`` holds
        the merged ``v2c`` and volumes exactly: the fresh volumes move up
        by ``offset``, the other new ids start at 0, the own moves' fresh
        ids shift, and each other move takes the vertex's degree off its
        current cluster and adds it to its new one.  Work is
        ``O(moves + fresh ids)``.  Every entry is checked before the
        first write (:func:`check_refresh`, :func:`refresh_entry_error`),
        because ``others`` may have crossed a socket.
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
