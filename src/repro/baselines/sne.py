"""SNE: streaming neighborhood expansion (the out-of-core variant of NE).

The paper uses SNE (from the NE authors) as the quality-leading *streaming*
baseline: it applies NE's expansion inside a bounded in-memory edge cache
instead of the full graph.  Our re-implementation follows that design:

- edges stream into a cache of capacity ``cache_factor * |V|`` edges (the
  paper's appendix configures a cache of ``2 * |V|``);
- whenever the cache fills, expansion runs on the cached subgraph,
  assigning edges to the current partition until it reaches its budget,
  then moves to the next partition;
- assigned edges leave the cache, making room for more of the stream;
- after the stream is exhausted, the remaining cached edges are drained the
  same way.

The quality sits between HDRF and full NE (the cache sees only part of the
graph), and the run-time/memory are significantly higher than 2PS-L —
matching the paper's Figure 4 relations.  On very small caches relative to
the graph, quality degrades toward streaming levels, which is the "SNE
FAIL" regime the paper reports on some graph/k combinations.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.ne import ExpansionState
from repro.errors import ConfigurationError
from repro.kernels.base import check_vertex_ids
from repro.metrics.memory import measured_state_bytes
from repro.metrics.runtime import CostCounter, PhaseTimer
from repro.partitioning.base import EdgePartitioner, PartitionResult
from repro.partitioning.state import PartitionState


class StreamingNE(EdgePartitioner):
    """Bounded-cache streaming NE.

    Parameters
    ----------
    cache_factor:
        Cache capacity as a multiple of |V| (paper: 2.0).
    seed:
        Determinism seed for expansion tie-breaks.
    """

    name = "SNE"

    def __init__(self, cache_factor: float = 2.0, seed: int = 0) -> None:
        if cache_factor <= 0:
            raise ConfigurationError(
                f"cache_factor must be positive, got {cache_factor}"
            )
        self.cache_factor = float(cache_factor)
        self.seed = int(seed)

    def _run(self, stream, k: int, alpha: float) -> PartitionResult:
        timer = PhaseTimer()
        cost = CostCounter()
        n = self._resolve_n_vertices(stream)
        m = stream.n_edges
        state = PartitionState(n, k, m, alpha)
        assignments = np.full(m, -1, dtype=np.int32)
        sizes = np.zeros(k, dtype=np.int64)
        capacity = state.capacity
        cache_capacity = max(16, int(self.cache_factor * n))
        budget_per_partition = min(capacity, math.ceil(m / k))

        cache_edges: list[tuple[int, int, int]] = []  # (orig_idx, u, v)
        current_p = 0
        peak_cache = 0

        def drain(cache: list, final: bool) -> list:
            """Run expansion over the cached subgraph; return leftovers."""
            nonlocal current_p, peak_cache
            if not cache:
                return []
            peak_cache = max(peak_cache, len(cache))
            arr = np.asarray([(u, v) for (_, u, v) in cache], dtype=np.int64)
            exp = ExpansionState(arr, n, seed=self.seed)
            local_assign: dict[int, int] = {}

            def cb(local_e: int, p: int) -> None:
                local_assign[local_e] = p

            # Keep expanding until the cache is at most half full (or fully
            # drained at the end of the stream).  Each expansion is primed
            # with the vertices the partition already covers so the region
            # stays coherent across buffer refills (true SNE keeps its
            # core/boundary sets across the stream).
            goal = 0 if final else len(cache) // 2
            while len(local_assign) < len(cache) - goal:
                if current_p >= k:
                    current_p = k - 1
                room = budget_per_partition - int(sizes[current_p])
                if room <= 0 and current_p < k - 1:
                    current_p += 1
                    continue
                if room <= 0:
                    break  # every partition at budget; leftovers spill later
                touched = np.unique(arr)
                hint = touched[state.replicas[touched, current_p]]
                got = exp.expand_partition(current_p, room, cb, seed_hint=hint)
                if got == 0:
                    break
                sizes[current_p] += got
            cost.heap_operations += exp.heap_ops
            cost.expansion_scans += exp.scan_count
            leftovers = []
            for local_e, (orig_idx, u, v) in enumerate(cache):
                p = local_assign.get(local_e)
                if p is None:
                    leftovers.append((orig_idx, u, v))
                else:
                    assignments[orig_idx] = p
                    state.replicas[u, p] = True
                    state.replicas[v, p] = True
            return leftovers

        with timer.phase("partitioning"):
            idx = 0
            for chunk in stream.chunks():
                check_vertex_ids(chunk, n, idx)
                for u, v in chunk.tolist():
                    cache_edges.append((idx, u, v))
                    idx += 1
                    if len(cache_edges) >= cache_capacity:
                        cache_edges = drain(cache_edges, final=False)
            cache_edges = drain(cache_edges, final=True)
            # Spill edges that no partition budget could take.
            for orig_idx, u, v in cache_edges:
                open_sizes = np.where(
                    sizes < capacity, sizes, np.iinfo(np.int64).max
                )
                p = int(np.argmin(open_sizes))
                sizes[p] += 1
                assignments[orig_idx] = p
                state.replicas[u, p] = True
                state.replicas[v, p] = True
            cost.edges_streamed += m

        state.sizes[:] = sizes
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
            state_bytes=measured_state_bytes(state) + 24 * peak_cache,
            extras={"cache_capacity": cache_capacity, "peak_cache": peak_cache},
        )
