"""Partitioning state: replication matrix, partition sizes, balance cap.

This is the ``O(|V| * k)`` state that all stateful streaming partitioners
share (paper Table II): a vertex-to-partition replication bit matrix and the
current edge count of every partition.  The *hard* balance cap
``alpha * |E| / k`` (Section III-B, Step 3: "We enforce a hard balancing
cap") is owned by this class so every partitioner enforces it identically.

Shared-memory lifecycle
-----------------------
The two mutable arrays (``replicas``, ``sizes``) are obtained through a
pluggable allocator, so the same state can live on the heap (the default,
plain ``np.zeros``) or inside one ``multiprocessing.shared_memory`` segment
that several processes map at once.  The contract:

- The *creator* calls :meth:`PartitionState.from_shared`, hands the segment
  name (:attr:`shm_name`) to other processes, and — once every consumer is
  done — calls :meth:`close` (drop this process's mapping) and exactly one
  :meth:`unlink` (remove the segment from the system).  A segment that is
  never unlinked leaks until reboot; the ``resource_tracker`` warns about
  it at interpreter shutdown.
- Every *attacher* calls :meth:`PartitionState.attach` with identical
  dimensions and calls :meth:`close` when done (never :meth:`unlink`).
- :meth:`close` invalidates ``replicas``/``sizes``; any outside reference
  to those arrays must be dropped first (``close`` raises ``BufferError``
  otherwise, by design — a mapped view outliving its segment is a bug).
- Unlinking while attachers still hold mappings is safe on POSIX: the name
  disappears but the memory survives until the last ``close``.

Heap-backed states ignore ``close``/``unlink`` (both are no-ops), so
generic code can run the full lifecycle unconditionally.

Dirty-row delta barriers
------------------------
A state created with ``track_dirty=True`` additionally carries a per-vertex
*dirty bitmap* (one bool per replica-matrix row).  The sharded parallel
partitioner gives each worker view such a bitmap and marks the endpoint
rows of every sync window it streams (a superset of the rows the kernels
can possibly write, since every replica write targets a window-edge
endpoint).  The synchronization barrier then merges **only the union of
dirty rows** through :func:`merge_replica_deltas` instead of re-broadcasting
the full ``|V| x k`` matrix: rows that are dirty nowhere are bit-identical
across the global state and every view (they were refreshed at the previous
barrier and unwritten since), so skipping them cannot change the merge.
This makes barrier cost proportional to the touched vertex set of a sync
window, not to ``|V|``.

Bit-packed replica rows
-----------------------
A state created with ``packed=True`` stores the replication matrix as
:class:`PackedReplicaMatrix` — ``ceil(k / 8)`` bytes per vertex instead of
``k`` dense bools, an 8x cut of the dominant ``|V| x k`` term in the Table
II memory model.  The packed layout is **little bit order**: column ``j``
lives at bit ``j % 8`` of byte ``j // 8`` of its row, i.e. exactly
``np.packbits(dense_row, bitorder="little")``.  Bits past column ``k - 1``
in the last byte are invariantly zero, which keeps byte-wise popcounts and
ORs exact; every write path below preserves the invariant.

The wrapper speaks the same indexing dialect the kernels use on the dense
matrix (scalar/fancy boolean reads, ``= True`` scalar/fancy writes with
duplicate collapse, dense row gathers, dense row assignment, axis sums,
``__array__`` for whole-matrix comparison), so packed state drops into
every backend, runner, and the shared-memory machinery unchanged — and the
differential harness pins packed-vs-dense bit-exactness end to end.  Merge
barriers OR raw uint8 rows directly (``np.bitwise_or`` is a logical OR on
bools and a byte OR on packed rows, so one code path serves both), and
the per-edge loops test and set single bits in the raw storage of either
layout at the byte and mask :func:`_replica_plane` gives.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.errors import BalanceError, PartitioningError


class _BufferArena:
    """Sequential, alignment-respecting array allocator over one buffer.

    Hands out ndarray views over consecutive (aligned) slices of ``buf``.
    Creator and attachers of a shared segment allocate in the same order
    with the same shapes, so their views land on identical offsets.
    """

    __slots__ = ("_buf", "_offset")

    def __init__(self, buf) -> None:
        self._buf = buf
        self._offset = 0

    def __call__(self, shape, dtype) -> np.ndarray:
        dt = np.dtype(dtype)
        align = max(int(dt.alignment), 1)
        offset = -(-self._offset // align) * align
        arr = np.ndarray(shape, dtype=dt, buffer=self._buf, offset=offset)
        self._offset = offset + arr.nbytes
        return arr


def packed_row_bytes(k: int) -> int:
    """Bytes per bit-packed replica row: ``ceil(k / 8)``."""
    return (int(k) + 7) // 8


class PackedReplicaMatrix:
    """Bit-packed boolean ``(n, k)`` matrix over ``(n, ceil(k/8))`` uint8.

    Layout: little bit order — column ``j`` is bit ``j % 8`` of byte
    ``j // 8``, matching ``np.packbits(dense, axis=1, bitorder="little")``.
    Bits past column ``k - 1`` stay zero (every writer preserves this), so
    ``np.bitwise_count`` popcounts and byte-wise ORs are exact.

    Supported access patterns (the kernel contract's working set):

    - ``m[rows, cols]`` with any scalar/array mix -> dense bool (a copy,
      like fancy indexing on an ndarray);
    - ``m[rows]`` / ``m[i]`` row gathers -> dense bool rows;
    - ``m[rows, cols] = True`` — duplicate ``(row, col)`` pairs collapse
      (``np.bitwise_or.at``, the unbuffered scatter);
    - ``m[i, j] = False`` for *scalar* element writes only (the
      incremental partitioner clears replica bits on deletion; a fancy
      ``= False`` stays unsupported because the streaming kernels never
      clear bits in bulk);
    - ``m[rows] = dense_bool`` whole-row assignment (re-packs);
    - ``m.sum(axis=0|1)``, ``m.any()``, ``np.asarray(m)``, ``m.copy()``.

    Anything else raises, loudly, rather than silently diverging from
    dense semantics — the differential harness depends on that.
    """

    __slots__ = ("packed", "k")

    def __init__(self, packed: np.ndarray, k: int) -> None:
        self.packed = packed
        self.k = int(k)

    # -- shape protocol -------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.packed.shape[0], self.k)

    @property
    def nbytes(self) -> int:
        return int(self.packed.nbytes)

    def __len__(self) -> int:
        return self.packed.shape[0]

    # -- reads ----------------------------------------------------------
    def __getitem__(self, index):
        if isinstance(index, tuple):
            rows, cols = index
            cols = np.asarray(cols)
            bits = (self.packed[rows, cols >> 3] >> (cols & 7)) & 1
            return bits.astype(bool)
        sub = self.packed[index]
        axis = sub.ndim - 1  # scalar row -> 1-d, gather -> 2-d
        return np.unpackbits(
            sub, axis=axis, count=self.k, bitorder="little"
        ).view(bool)

    def sum(self, axis=None):
        if axis == 1:
            return np.bitwise_count(self.packed).sum(axis=1, dtype=np.int64)
        if axis == 0:
            # Chunked unpack keeps the dense scratch bounded at ~0.5 MiB.
            out = np.zeros(self.k, dtype=np.int64)
            step = max(1, (1 << 19) // max(self.packed.shape[1], 1))
            for lo in range(0, self.packed.shape[0], step):
                out += np.unpackbits(
                    self.packed[lo : lo + step],
                    axis=1, count=self.k, bitorder="little",
                ).sum(axis=0, dtype=np.int64)
            return out
        if axis is None:
            return int(np.bitwise_count(self.packed).sum())
        raise PartitioningError(
            f"PackedReplicaMatrix.sum: unsupported axis {axis!r}"
        )

    def any(self) -> bool:
        return bool(self.packed.any())

    def copy(self) -> np.ndarray:
        """Dense bool copy (consumers of copies expect plain ndarrays)."""
        return np.unpackbits(
            self.packed, axis=1, count=self.k, bitorder="little"
        ).view(bool)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        dense = self.copy()
        return dense if dtype is None else dense.astype(dtype)

    # -- writes ---------------------------------------------------------
    def __setitem__(self, index, value) -> None:
        if isinstance(index, tuple):
            rows, cols = index
            rows = np.asarray(rows)
            cols = np.asarray(cols)
            if rows.ndim == 0 and cols.ndim == 0:
                c = int(cols)
                if value is True or value is np.True_:
                    self.packed[int(rows), c >> 3] |= np.uint8(1 << (c & 7))
                elif value is False or value is np.False_:
                    self.packed[int(rows), c >> 3] &= np.uint8(
                        ~(1 << (c & 7)) & 0xFF
                    )
                else:
                    raise PartitioningError(
                        "PackedReplicaMatrix scalar writes support only "
                        f"'= True' / '= False', got {value!r}"
                    )
                return
            if not (value is True or value is np.True_):
                raise PartitioningError(
                    "PackedReplicaMatrix fancy element writes support "
                    f"only '= True', got {value!r}"
                )
            rows, cols = np.broadcast_arrays(rows, cols)
            # ``|=`` buffers duplicate (row, byte) targets and drops bits;
            # ``bitwise_or.at`` is the unbuffered scatter.
            np.bitwise_or.at(
                self.packed,
                (rows, cols >> 3),
                np.left_shift(np.uint8(1), (cols & 7).astype(np.uint8)),
            )
            return
        dense = np.asarray(value, dtype=bool)
        if dense.shape[-1] != self.k:
            raise PartitioningError(
                f"PackedReplicaMatrix row assignment needs {self.k} "
                f"columns, got shape {dense.shape}"
            )
        # packbits zero-pads to the byte boundary -> tail bits stay zero.
        self.packed[index] = np.packbits(
            dense, axis=-1, bitorder="little"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PackedReplicaMatrix(n={len(self)}, k={self.k})"


def _replica_storage(replicas):
    """Raw storage of a replica matrix: the uint8 plane when packed, the
    matrix itself when dense.  ``np.bitwise_or`` on the result is a row
    merge in both representations, so barrier code stays representation
    agnostic."""
    packed = getattr(replicas, "packed", None)
    return replicas if packed is None else packed


def _replica_plane(replicas):
    """Where each bit of a replica matrix lives in its raw storage.

    Returns ``(raw, row_bytes, shift, low_mask)``: replica bit ``(u, p)``
    lives in byte ``u * row_bytes + (p >> shift)`` of ``raw``
    (:func:`_replica_storage`) under mask ``1 << (p & low_mask)``.  Dense
    bool storage is one byte per bit, ``(k, 0, 0)`` — mask 1 is
    ``True``; the packed uint8 plane is ``(ceil(k/8), 3, 7)``.  The
    per-edge loops test and set bits there, so dense and packed states
    run one loop at the same speed: interpreted loops through
    ``memoryview(raw).cast("B")`` (``cast`` raises on non-contiguous
    storage, so a write can never land in a silent copy; the view pins
    the storage, so callers release it with ``with``), the compiled
    loops through its data pointer.
    """
    raw = _replica_storage(replicas)
    if raw is replicas:
        return raw, raw.shape[-1], 0, 0
    return raw, raw.shape[-1], 3, 7


class LeastLoadedTracker:
    """Amortized O(log k) argmin over a monotonically growing sizes vector.

    The streaming passes query the least-loaded partition only on capacity
    overflows, but naively that query is an O(k) scan per overflow.  This
    tracker keeps a lazily-refreshed heap of ``(size, partition)`` entries:
    sizes only ever grow during a pass, so a stale top entry (recorded size
    below the live one) can never hide the true minimum — it is refreshed
    in place and the pop retried.  Each assignment stales at most one
    entry, so the total refresh work is O(assignments + queries) heap
    operations.

    Ties break toward the smallest partition index, matching a
    ``min(range(k), key=sizes.__getitem__)`` scan bit for bit.

    Parameters
    ----------
    sizes:
        Live, indexable per-partition edge counts (list or ndarray).  The
        caller keeps mutating it; entries must be non-decreasing for the
        lifetime of the tracker.
    """

    __slots__ = ("_sizes", "_heap")

    def __init__(self, sizes) -> None:
        self._sizes = sizes
        self._heap = [(int(s), p) for p, s in enumerate(sizes)]
        heapq.heapify(self._heap)

    def argmin(self) -> int:
        """Index of the smallest current size (smallest index on ties)."""
        heap = self._heap
        sizes = self._sizes
        while True:
            recorded, p = heap[0]
            current = int(sizes[p])
            if recorded == current:
                return p
            heapq.heapreplace(heap, (current, p))


class PartitionState:
    """Replication bit matrix + partition sizes with a hard balance cap.

    Parameters
    ----------
    n_vertices, k:
        Dimensions of the replication matrix.
    n_edges:
        Total number of edges that will be assigned (defines the cap).
    alpha:
        Imbalance factor; the cap is ``max(floor(alpha * m / k), ceil(m/k))``
        so a full assignment is always feasible.

    allocator:
        Optional ``callable(shape, dtype) -> ndarray`` producing the
        state arrays *zero-filled*.  ``None`` (the default) allocates on
        the heap with ``np.zeros``.  :meth:`from_shared`/:meth:`attach`
        pass a :class:`_BufferArena` over a shared-memory segment.
    track_dirty:
        When True, allocate the per-row dirty bitmap used by the delta
        barriers (see the module docstring); creators and attachers of a
        shared segment must agree on it (it changes the segment layout).
    packed:
        When True, store the replication matrix bit-packed
        (:class:`PackedReplicaMatrix`, ``ceil(k/8)`` bytes per row) instead
        of dense bool.  Bit-exact with dense by contract; creators and
        attachers of a shared segment must agree on it (layout).

    Raises
    ------
    PartitioningError
        On non-positive dimensions or ``k < 2``.
    BalanceError
        If ``alpha < 1`` (the constraint would be infeasible by definition).
    """

    def __init__(
        self,
        n_vertices: int,
        k: int,
        n_edges: int,
        alpha: float = 1.05,
        *,
        allocator=None,
        track_dirty: bool = False,
        packed: bool = False,
    ):
        if k < 2:
            raise PartitioningError(f"k must be >= 2, got {k}")
        if n_vertices < 0 or n_edges < 0:
            raise PartitioningError("n_vertices and n_edges must be >= 0")
        if alpha < 1.0:
            raise BalanceError(f"alpha must be >= 1, got {alpha}")
        self.n_vertices = int(n_vertices)
        self.k = int(k)
        self.n_edges = int(n_edges)
        self.alpha = float(alpha)
        self.capacity = max(
            int(math.floor(alpha * n_edges / k)), int(math.ceil(n_edges / k))
        )
        #: Whether the replica matrix is bit-packed (segment-layout flag).
        self.packed = bool(packed)
        alloc = np.zeros if allocator is None else allocator
        if packed:
            self.replicas = PackedReplicaMatrix(
                alloc((self.n_vertices, packed_row_bytes(self.k)), np.uint8),
                self.k,
            )
        else:
            self.replicas = alloc((self.n_vertices, self.k), bool)
        self.sizes = alloc(self.k, np.int64)
        #: Dirty-row bitmap for delta barriers (``None`` when untracked).
        self.dirty = alloc(self.n_vertices, bool) if track_dirty else None
        self._shm = None
        self._owns_segment = False

    # ------------------------------------------------------------------
    # shared-memory lifecycle (see the module docstring for the contract)
    # ------------------------------------------------------------------
    @staticmethod
    def shared_nbytes(
        n_vertices: int,
        k: int,
        track_dirty: bool = False,
        packed: bool = False,
    ) -> int:
        """Segment size for a shared state of these dimensions."""
        row_bytes = packed_row_bytes(k) if packed else int(k)
        replicas = int(n_vertices) * row_bytes
        aligned = -(-replicas // 8) * 8  # int64 alignment for ``sizes``
        total = aligned + 8 * int(k)
        if track_dirty:
            total += int(n_vertices)
        return max(total, 1)

    @classmethod
    def from_shared(
        cls,
        n_vertices: int,
        k: int,
        n_edges: int,
        alpha: float = 1.05,
        *,
        name: str | None = None,
        track_dirty: bool = False,
        packed: bool = False,
    ) -> "PartitionState":
        """Create a state whose arrays live in a new shared-memory segment.

        The caller owns the segment: it must :meth:`close` *and*
        :meth:`unlink` it (see the module docstring).  ``name`` picks the
        segment name explicitly; ``None`` lets the OS choose one.
        """
        from multiprocessing import shared_memory

        size = cls.shared_nbytes(n_vertices, k, track_dirty, packed)
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        try:
            np.frombuffer(shm.buf, dtype=np.uint8)[:] = 0
            state = cls(
                n_vertices, k, n_edges, alpha,
                allocator=_BufferArena(shm.buf), track_dirty=track_dirty,
                packed=packed,
            )
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        state._shm = shm
        state._owns_segment = True
        return state

    @classmethod
    def attach(
        cls,
        name: str,
        n_vertices: int,
        k: int,
        n_edges: int,
        alpha: float = 1.05,
        *,
        track_dirty: bool = False,
        packed: bool = False,
    ) -> "PartitionState":
        """Map an existing shared segment created by :meth:`from_shared`.

        Dimensions (including ``track_dirty`` and ``packed``) must match
        the creator's; the attacher sees (and mutates) the creator's live
        arrays.  Call :meth:`close` when done; never :meth:`unlink` from
        an attacher.

        Raises
        ------
        PartitioningError
            If no segment ``name`` exists or it is too small for these
            dimensions.
        """
        from multiprocessing import shared_memory

        try:
            shm = shared_memory.SharedMemory(name=name, create=False)
        except FileNotFoundError as exc:
            raise PartitioningError(
                f"no shared partition-state segment {name!r}"
            ) from exc
        if shm.size < cls.shared_nbytes(n_vertices, k, track_dirty, packed):
            shm.close()
            raise PartitioningError(
                f"shared segment {name!r} holds {shm.size} bytes, need "
                f"{cls.shared_nbytes(n_vertices, k, track_dirty, packed)} "
                f"for n={n_vertices}, k={k}"
            )
        state = cls(
            n_vertices, k, n_edges, alpha,
            allocator=_BufferArena(shm.buf), track_dirty=track_dirty,
            packed=packed,
        )
        state._shm = shm
        state._owns_segment = False
        return state

    @property
    def shm_name(self) -> str | None:
        """Shared segment name, or ``None`` for heap-backed state."""
        return None if self._shm is None else self._shm.name

    def close(self) -> None:
        """Drop this process's mapping; ``replicas``/``sizes`` die with it.

        No-op for heap-backed state.  Idempotent.  Outside references to
        the state arrays must be released first (``BufferError`` results
        otherwise).
        """
        if self._shm is None:
            return
        self.replicas = None
        self.sizes = None
        self.dirty = None
        self._shm.close()

    def unlink(self) -> None:
        """Remove the shared segment from the system (creator only).

        No-op for heap-backed state; tolerates a segment that is already
        gone, so error-path cleanup can call it unconditionally.
        """
        if self._shm is None or not self._owns_segment:
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:  # already unlinked: cleanup paths race
            pass

    # ------------------------------------------------------------------
    # assignment
    # ------------------------------------------------------------------
    def scatter_edges(self, us, vs, ps) -> None:
        """Batch-record assigned edges: replica bits plus size counts.

        Records whole stream chunks at once; duplicate (vertex, partition)
        pairs collapse naturally because the replica matrix is boolean.
        The per-edge passes set their bits on the raw plane instead (see
        :func:`_replica_plane`).  The hard cap is *not* enforced here:
        the callers, the stateless baselines' passes, do not enforce
        balance at all and report the measured alpha instead.

        Raises
        ------
        PartitioningError
            When ``us``/``vs``/``ps`` are not equal-length 1-d arrays, or
            any partition id falls outside ``[0, k)`` — checked *before*
            the first write, so a rejected call never half-applies (a raw
            fancy-index ``IndexError`` would fire after the replica bits
            landed but before the size counts did).
        """
        us = np.asarray(us)
        vs = np.asarray(vs)
        ps = np.asarray(ps)
        if (
            us.ndim != 1
            or vs.ndim != 1
            or ps.ndim != 1
            or not us.shape[0] == vs.shape[0] == ps.shape[0]
        ):
            raise PartitioningError(
                "scatter_edges: us/vs/ps must be equal-length 1-d arrays, "
                f"got shapes {us.shape}/{vs.shape}/{ps.shape}"
            )
        if us.shape[0] == 0:
            return
        p_lo, p_hi = int(ps.min()), int(ps.max())
        if p_lo < 0 or p_hi >= self.k:
            raise PartitioningError(
                f"scatter_edges: partition ids must be in [0, {self.k}), "
                f"got range [{p_lo}, {p_hi}]"
            )
        self.replicas[us, ps] = True
        self.replicas[vs, ps] = True
        self.sizes += np.bincount(ps, minlength=self.k)

    def mark_dirty(self, vertices) -> None:
        """Mark replica-matrix rows as touched since the last barrier.

        No-op when the state does not track dirt.  ``vertices`` may repeat
        (chunk endpoint arrays are passed raw); marking a superset of the
        actually-written rows is always safe — see the module docstring.
        """
        if self.dirty is not None:
            self.dirty[vertices] = True

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def replica_counts(self) -> np.ndarray:
        """Per-vertex replica counts (0 for vertices never seen)."""
        return self.replicas.sum(axis=1)

    def vertex_cover_sizes(self) -> np.ndarray:
        """``|V(p_i)|`` per partition — vertices adjacent to an edge of p_i."""
        return self.replicas.sum(axis=0)

    def replication_factor(self) -> float:
        """``RF = (1/|V|) * sum_i |V(p_i)|``, over *covered* vertices.

        The paper normalizes by ``|V|``; isolated vertices (never streamed)
        are excluded from the denominator so RF >= 1 whenever any edge
        exists, matching the standard implementation.
        """
        covered = int((self.replica_counts() > 0).sum())
        if covered == 0:
            return 0.0
        return float(self.vertex_cover_sizes().sum()) / covered

    def measured_alpha(self) -> float:
        """Observed imbalance ``max_i |p_i| / (|E| / k)``."""
        if self.n_edges == 0:
            return 1.0
        return float(self.sizes.max()) * self.k / self.n_edges

    def nbytes(self) -> int:
        """Memory footprint of the partitioning state (Table II model)."""
        total = int(self.replicas.nbytes + self.sizes.nbytes)
        if self.dirty is not None:
            total += int(self.dirty.nbytes)
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionState(n={self.n_vertices}, k={self.k}, "
            f"cap={self.capacity}, assigned={int(self.sizes.sum())})"
        )


def merge_replica_deltas(state: PartitionState, worker_states) -> int:
    """Delta-bitmap barrier: merge worker views into ``state`` and refresh.

    Every worker view must track dirt (``track_dirty=True``) and must have
    been refreshed to ``state`` at the previous barrier; rows written since
    are marked in its dirty bitmap (:meth:`PartitionState.mark_dirty`, fed
    by the sync-window streams).  The barrier then:

    - ORs replica bits over the **union of dirty rows only** — clean rows
      are bit-identical everywhere, so skipping them is exact;
    - sums each worker's size delta against the last synchronized sizes
      (edges are assigned by exactly one worker, so deltas are disjoint;
      stale views may legitimately carry sizes *beyond* the hard cap — the
      overshoot is merged as-is, exactly like the full re-broadcast);
    - writes the merged rows and sizes back into the global state and
      every view, and clears every dirty bitmap.

    Returns the number of rows refreshed, so callers can account barrier
    bytes (``rows * k`` versus ``n_vertices * k`` for a full re-broadcast).
    The equivalence with the full merge is pinned by the property tests in
    ``tests/test_state.py`` and end-to-end by the differential harness.

    The merge runs on the **raw row storage** (:func:`_replica_storage`):
    ``np.bitwise_or`` is a logical OR on dense bool rows and a byte OR on
    bit-packed rows, so dense and packed states share this single code
    path (all participants must use the same representation).
    """
    dirty = worker_states[0].dirty.copy()
    for ws in worker_states[1:]:
        np.logical_or(dirty, ws.dirty, out=dirty)
    rows = np.flatnonzero(dirty)
    new_sizes = state.sizes + sum(
        ws.sizes - state.sizes for ws in worker_states
    )
    raw = _replica_storage(state.replicas)
    if rows.size:
        merged = raw[rows]
        for ws in worker_states:
            np.bitwise_or(
                merged, _replica_storage(ws.replicas)[rows], out=merged
            )
        raw[rows] = merged
    state.sizes[:] = new_sizes
    for ws in worker_states:
        if rows.size:
            _replica_storage(ws.replicas)[rows] = merged
        ws.sizes[:] = new_sizes
        ws.dirty[:] = False
    return int(rows.size)


# ---------------------------------------------------------------------
# wire-delta serialization (distributed runner barriers)
# ---------------------------------------------------------------------
def extract_replica_delta(state: PartitionState):
    """Serialize a worker view's barrier contribution as raw arrays.

    Returns ``(rows, rows_data, sizes)``: the view's dirty row indices
    (``int64``), the raw storage of exactly those rows (dense bool rows,
    or the byte planes of a packed matrix — ready to ship as byte-OR
    blocks), and the full local sizes vector.  This is one worker's term
    of :func:`merge_replica_deltas`, flattened for a wire frame: clean
    rows are bit-identical to the last synchronized global state, so
    omitting them loses nothing.
    """
    if state.dirty is None:
        raise PartitioningError(
            "extract_replica_delta needs a dirty-tracking state "
            "(track_dirty=True)"
        )
    rows = np.flatnonzero(state.dirty)
    rows_data = _replica_storage(state.replicas)[rows]
    return rows, rows_data, state.sizes.copy()


def merge_replica_wire_deltas(state: PartitionState, deltas):
    """Fold serialized worker deltas into ``state``; the coordinator half.

    ``deltas`` is one ``(rows, rows_data, sizes)`` triple per worker, as
    produced by :func:`extract_replica_delta` (decoded from the wire).
    Applies the exact :func:`merge_replica_deltas` arithmetic — OR over
    the union of dirty rows, sizes summed as disjoint deltas against the
    last synchronized global sizes — and returns the refresh broadcast
    ``(rows, merged_rows, new_sizes)`` every worker must apply via
    :func:`apply_replica_refresh`.  Equivalence with the shared-memory
    barrier is pinned by ``tests/test_state.py``; bit-exactness holds
    because a row clean in worker *w* equals the pre-merge global row, so
    leaving it out of *w*'s OR contribution changes no bit.
    """
    union = np.zeros(state.n_vertices, dtype=bool)
    for rows_w, _, _ in deltas:
        union[rows_w] = True
    rows = np.flatnonzero(union)
    new_sizes = state.sizes + sum(
        np.asarray(sizes_w, dtype=np.int64) - state.sizes
        for _, _, sizes_w in deltas
    )
    raw = _replica_storage(state.replicas)
    merged = raw[rows]
    for rows_w, rows_data_w, _ in deltas:
        rows_w = np.asarray(rows_w, dtype=np.int64)
        if rows_w.size:
            idx = np.searchsorted(rows, rows_w)
            merged[idx] |= np.asarray(rows_data_w)
    if rows.size:
        raw[rows] = merged
    state.sizes[:] = new_sizes
    return rows, merged, new_sizes


def apply_replica_refresh(state: PartitionState, rows, rows_data, sizes):
    """Apply one barrier refresh broadcast to a worker view.

    After this the view is bit-identical to the merged global state on
    every refreshed row, its sizes equal the new global sizes, and its
    dirty bitmap is clear — the invariant :func:`merge_replica_deltas`
    re-establishes for shared-memory views at every barrier.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size:
        _replica_storage(state.replicas)[rows] = np.asarray(rows_data)
    state.sizes[:] = np.asarray(sizes, dtype=np.int64)
    if state.dirty is not None:
        state.dirty[:] = False
