"""Greedy streaming edge partitioning (PowerGraph, OSDI'12).

The original stateful streaming heuristic.  Case analysis per edge
``(u, v)``:

1. both endpoints already replicated on a common partition → assign to the
   least-loaded common partition;
2. both replicated but on disjoint partition sets → candidate set is the
   union of their partitions;
3. exactly one endpoint replicated → its partitions are the candidates;
4. neither replicated → all partitions are candidates.

Among the candidates that are below the hard cap, the least-loaded wins
(ties broken by lowest partition id, deterministically).  Replication state
makes this O(|E| * k) like HDRF, but without degree weighting it loses to
HDRF on power-law graphs — which is why the paper drops it from the main
comparison ("outperformed by our chosen baselines").
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import check_vertex_ids
from repro.metrics.memory import measured_state_bytes
from repro.metrics.runtime import CostCounter, PhaseTimer
from repro.partitioning.base import EdgePartitioner, PartitionResult
from repro.partitioning.state import PartitionState


class Greedy(EdgePartitioner):
    """PowerGraph's greedy vertex-cut heuristic."""

    name = "Greedy"

    def _run(self, stream, k: int, alpha: float) -> PartitionResult:
        timer = PhaseTimer()
        cost = CostCounter()
        n = self._resolve_n_vertices(stream)
        m = stream.n_edges
        state = PartitionState(n, k, m, alpha)
        assignments = np.empty(m, dtype=np.int32)
        replicas = state.replicas
        sizes = np.zeros(k, dtype=np.int64)
        capacity = state.capacity
        huge = np.iinfo(np.int64).max

        with timer.phase("partitioning"):
            idx = 0
            for chunk in stream.chunks():
                check_vertex_ids(chunk, n, idx)
                for u, v in chunk.tolist():
                    ru = replicas[u]
                    rv = replicas[v]
                    common = ru & rv
                    if common.any():
                        candidates = common
                    else:
                        union = ru | rv
                        candidates = union if union.any() else None
                    open_mask = sizes < capacity
                    if candidates is not None:
                        candidates = candidates & open_mask
                        if not candidates.any():
                            candidates = open_mask
                    else:
                        candidates = open_mask
                    masked = np.where(candidates, sizes, huge)
                    p = int(np.argmin(masked))
                    sizes[p] += 1
                    replicas[u, p] = True
                    replicas[v, p] = True
                    assignments[idx] = p
                    idx += 1
            cost.edges_streamed += m
            cost.score_evaluations += m * k

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
            state_bytes=measured_state_bytes(state),
        )
