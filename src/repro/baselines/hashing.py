"""Stateless streaming partitioners: DBH, Grid, and plain random hashing.

These assign each edge with a constant-time hash and keep no replication
state (paper Table II: DBH is O(|V|) for the degree array, Grid is O(1)).
They are the fastest partitioners and the quality floor every stateful
method must beat.  Because they cannot react to partition sizes, the
balance constraint is *not enforced* — like the paper, experiments report
the measured alpha instead (the plot annotations in Figures 2a/4).

Each algorithm contributes only a vectorized ``map_chunk(u, v) -> parts``
function; the stream loop itself is a kernel-backend pass
(:mod:`repro.kernels`), which hashes whole chunks with a vectorized
splitmix64 on every backend (``c`` inherits the reference's pass).  The
``per-edge`` test backend (``tests/per_edge.py``) replays the same hash
on one-edge slices for equivalence testing.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graph.degrees import compute_degrees_from_stream
from repro.kernels import get_backend
from repro.metrics.memory import measured_state_bytes
from repro.metrics.runtime import CostCounter, PhaseTimer
from repro.partitioning.base import EdgePartitioner, PartitionResult
from repro.partitioning.hashutil import splitmix64
from repro.partitioning.state import PartitionState


class DBH(EdgePartitioner):
    """Degree-based hashing (Xie et al., NeurIPS'14).

    Hashes each edge on the id of its *lower-degree* endpoint: cutting
    through the high-degree vertex spreads the hub's edges while keeping
    each low-degree vertex on one partition.  One degree pass plus one
    assignment pass, both chunk-kernel driven.
    """

    name = "DBH"

    def __init__(self, seed: int = 0, backend: str | None = None) -> None:
        self.seed = int(seed)
        self.backend = backend

    def _run(self, stream, k: int, alpha: float) -> PartitionResult:
        kernels = get_backend(self.backend)
        timer = PhaseTimer()
        cost = CostCounter()
        with timer.phase("degree"):
            degrees = compute_degrees_from_stream(stream, backend=self.backend)
            cost.edges_streamed += stream.n_edges
        n = max(self._resolve_n_vertices(stream, degrees), len(degrees))
        m = stream.n_edges
        assignments = np.empty(m, dtype=np.int32)
        state = PartitionState(n, k, m, alpha=max(alpha, 64.0))
        seed = self.seed

        def map_chunk(u: np.ndarray, v: np.ndarray) -> np.ndarray:
            lower = np.where(degrees[u] <= degrees[v], u, v)
            return (splitmix64(lower, seed) % np.uint64(k)).astype(np.int32)

        with timer.phase("partitioning"):
            kernels.stateless_pass(stream, map_chunk, state, assignments)
            cost.edges_streamed += m
            cost.hash_evaluations += m
        return PartitionResult(
            partitioner=self.name,
            k=k,
            alpha=alpha,
            n_vertices=n,
            n_edges=m,
            assignments=assignments,
            state=state,
            timer=timer,
            cost=cost,
            state_bytes=measured_state_bytes(degrees),
        )


class Grid(EdgePartitioner):
    """Grid-constrained hashing (GraphBuilder, Jain et al. GRADES'13).

    Partitions are arranged in an ``r x c`` grid with ``r * c >= k``; each
    vertex hashes to a grid row/column and the edge goes to the cell at the
    intersection (modulo k when the grid overshoots).  Guarantees each
    vertex appears in at most one row — bounded replication with zero
    state.
    """

    name = "Grid"

    def __init__(self, seed: int = 0, backend: str | None = None) -> None:
        self.seed = int(seed)
        self.backend = backend

    @staticmethod
    def grid_shape(k: int) -> tuple[int, int]:
        """Smallest near-square grid covering k cells."""
        r = max(1, int(math.isqrt(k)))
        c = (k + r - 1) // r
        return r, c

    def _run(self, stream, k: int, alpha: float) -> PartitionResult:
        kernels = get_backend(self.backend)
        timer = PhaseTimer()
        cost = CostCounter()
        n = self._resolve_n_vertices(stream)
        m = stream.n_edges
        r, c = self.grid_shape(k)
        assignments = np.empty(m, dtype=np.int32)
        state = PartitionState(n, k, m, alpha=max(alpha, 64.0))
        seed = self.seed

        def map_chunk(u: np.ndarray, v: np.ndarray) -> np.ndarray:
            row = splitmix64(u, seed) % np.uint64(r)
            col = splitmix64(v, seed + 1) % np.uint64(c)
            return ((row * np.uint64(c) + col) % np.uint64(k)).astype(np.int32)

        with timer.phase("partitioning"):
            kernels.stateless_pass(stream, map_chunk, state, assignments)
            cost.edges_streamed += m
            cost.hash_evaluations += 2 * m
        return PartitionResult(
            partitioner=self.name,
            k=k,
            alpha=alpha,
            n_vertices=n,
            n_edges=m,
            assignments=assignments,
            state=state,
            timer=timer,
            cost=cost,
            state_bytes=0,
        )


class RandomHash(EdgePartitioner):
    """Uniform random edge assignment via hashing both endpoints.

    The weakest sensible baseline: expected perfect balance, worst-case
    replication (every vertex replicated on ~min(d, k) partitions).
    """

    name = "Random"

    def __init__(self, seed: int = 0, backend: str | None = None) -> None:
        self.seed = int(seed)
        self.backend = backend

    def _run(self, stream, k: int, alpha: float) -> PartitionResult:
        kernels = get_backend(self.backend)
        timer = PhaseTimer()
        cost = CostCounter()
        n = self._resolve_n_vertices(stream)
        m = stream.n_edges
        assignments = np.empty(m, dtype=np.int32)
        state = PartitionState(n, k, m, alpha=max(alpha, 64.0))
        seed = self.seed

        def map_chunk(u: np.ndarray, v: np.ndarray) -> np.ndarray:
            old = np.seterr(over="ignore")
            try:
                key = u.astype(np.uint64) * np.uint64(
                    0x9E3779B97F4A7C15
                ) + v.astype(np.uint64)
            finally:
                np.seterr(**old)
            return (splitmix64(key, seed) % np.uint64(k)).astype(np.int32)

        with timer.phase("partitioning"):
            kernels.stateless_pass(stream, map_chunk, state, assignments)
            cost.edges_streamed += m
            cost.hash_evaluations += m
        return PartitionResult(
            partitioner=self.name,
            k=k,
            alpha=alpha,
            n_vertices=n,
            n_edges=m,
            assignments=assignments,
            state=state,
            timer=timer,
            cost=cost,
            state_bytes=0,
        )
