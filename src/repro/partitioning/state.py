"""Partitioning state: replication matrix, partition sizes, balance cap.

This is the ``O(|V| * k)`` state that all stateful streaming partitioners
share (paper Table II): a vertex-to-partition replication bit matrix and the
current edge count of every partition.  The *hard* balance cap
``alpha * |E| / k`` (Section III-B, Step 3: "We enforce a hard balancing
cap") is owned by this class so every partitioner enforces it identically.

Where the arrays live
---------------------
The mutable arrays (``replicas`` and ``sizes``) are zero-filled heap
arrays of the process that creates the state.  A sharded runner's worker
views are ordinary states of the same shape, in its worker processes or,
for the simulated runner, beside the global state; this class knows
nothing of the barriers that synchronize them (the kernels' set-bit
logs, see :mod:`repro.kernels`).

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
every backend and runner unchanged — and the differential harness pins
packed-vs-dense bit-exactness end to end.  The per-edge loops and the
barrier op test and set single bits in the raw storage of either layout
at the byte and mask :func:`_replica_plane` gives.
"""

from __future__ import annotations

import heapq
import math
import numbers

import numpy as np

from repro.errors import BalanceError, PartitioningError


def check_alpha(alpha) -> None:
    """Raise :class:`~repro.errors.BalanceError` unless ``alpha`` is a finite
    number >= 1: only then is the cap ``alpha * |E| / k`` a number that
    holds every edge."""
    if not (isinstance(alpha, numbers.Real) and 1.0 <= alpha < math.inf):
        raise BalanceError(f"alpha must be a finite number >= 1, got {alpha}")


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


def _replica_plane(replicas):
    """Where each bit of a replica matrix lives in its raw storage.

    Returns ``(raw, row_bytes, shift, low_mask)``: replica bit ``(u, p)``
    lives in byte ``u * row_bytes + (p >> shift)`` of ``raw`` (the uint8
    plane when packed, the matrix itself when dense) under mask
    ``1 << (p & low_mask)``.  Dense bool storage is one byte per bit,
    ``(k, 0, 0)`` — mask 1 is ``True``; the packed uint8 plane is
    ``(ceil(k/8), 3, 7)``.  The per-edge loops and the barrier op test
    and set bits there, so dense and packed states
    run one loop at the same speed: interpreted loops through
    ``memoryview(raw).cast("B")`` (``cast`` raises on non-contiguous
    storage, so a write can never land in a silent copy; the view pins
    the storage, so callers release it with ``with``), the compiled
    loops through its data pointer.
    """
    raw = getattr(replicas, "packed", None)
    if raw is None:
        return replicas, replicas.shape[-1], 0, 0
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
    packed:
        When True, store the replication matrix bit-packed
        (:class:`PackedReplicaMatrix`, ``ceil(k/8)`` bytes per row) instead
        of dense bool.  Bit-exact with dense by contract.

    Raises
    ------
    PartitioningError
        On non-positive dimensions or ``k < 2``.
    BalanceError
        Unless ``alpha`` is a finite number >= 1 (:func:`check_alpha`).
    """

    def __init__(
        self,
        n_vertices: int,
        k: int,
        n_edges: int,
        alpha: float = 1.05,
        *,
        packed: bool = False,
    ):
        if k < 2:
            raise PartitioningError(f"k must be >= 2, got {k}")
        if n_vertices < 0 or n_edges < 0:
            raise PartitioningError("n_vertices and n_edges must be >= 0")
        check_alpha(alpha)
        self.n_vertices = int(n_vertices)
        self.k = int(k)
        self.n_edges = int(n_edges)
        self.alpha = float(alpha)
        self.capacity = max(
            int(math.floor(alpha * n_edges / k)), int(math.ceil(n_edges / k))
        )
        #: Whether the replica matrix is bit-packed.
        self.packed = bool(packed)
        if packed:
            self.replicas = PackedReplicaMatrix(
                np.zeros((self.n_vertices, packed_row_bytes(self.k)), np.uint8),
                self.k,
            )
        else:
            self.replicas = np.zeros((self.n_vertices, self.k), bool)
        self.sizes = np.zeros(self.k, np.int64)

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
        return int(self.replicas.nbytes + self.sizes.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionState(n={self.n_vertices}, k={self.k}, "
            f"cap={self.capacity}, assigned={int(self.sizes.sum())})"
        )
