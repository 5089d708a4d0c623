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

from repro.errors import StreamError
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

    The ``python`` and ``numpy`` backends store plain lists (fast scalar
    indexing); the ``c`` backend stores int64 arrays and an
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

    ``v2c``/``c2p``/``volumes``/``degrees`` are read-only int64 arrays in
    these passes; ``state`` (replica bits + sizes + hard cap),
    ``assignments`` and ``cost`` are mutated in place.
    """

    k: int
    v2c: np.ndarray
    c2p: np.ndarray
    volumes: np.ndarray
    degrees: np.ndarray
    state: PartitionState
    assignments: np.ndarray
    hash_seed: int
    cost: CostCounter
    hdrf_lambda: float = 1.1


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
        (the reference backend calls it per edge).  Replica bits and sizes
        are recorded through ``state.scatter_edges``.
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
    # Phase 2: 2PS-L partitioning passes
    # ------------------------------------------------------------------
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

        ``ctx.v2c``/``c2p``/``volumes``/``degrees`` are unused (pass empty
        arrays); ``ctx.state``, ``ctx.assignments`` and ``ctx.cost`` are
        mutated in place (``edges_streamed += |E|`` and
        ``score_evaluations += k * |E|``, preserving the baseline's
        O(|E| * k) operation count).  Returns the final int64 partial-
        degree array (for the caller's state-bytes accounting).
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
