"""HEP: hybrid edge partitioner (Mayer & Jacobsen, SIGMOD'21).

HEP splits the edge set by vertex degree.  Edges between two *low-degree*
vertices (degree <= tau * mean_degree) are partitioned **in memory** with
neighborhood expansion; the remaining edges — those touching a high-degree
vertex — are **streamed** with HDRF, starting from the replication state
the in-memory phase built up.  The parameter ``tau`` trades memory for
quality:

- ``tau = 100`` (HEP-100): nearly everything in memory → NE-like quality;
- ``tau = 1`` (HEP-1): only the low-degree core in memory → close to
  streaming memory footprint, still better quality than pure HDRF.

These are the paper's HEP-1 / HEP-10 / HEP-100 configurations.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.ne import ExpansionState
from repro.core.scoring import HDRF_EPSILON
from repro.errors import ConfigurationError
from repro.graph.degrees import compute_degrees_from_stream
from repro.kernels.base import check_vertex_ids
from repro.kernels.python_backend import PythonBackend
from repro.metrics.memory import measured_state_bytes
from repro.metrics.runtime import CostCounter, PhaseTimer
from repro.partitioning.base import EdgePartitioner, PartitionResult
from repro.partitioning.state import PartitionState


class HEP(EdgePartitioner):
    """Hybrid edge partitioner.

    Parameters
    ----------
    tau:
        Degree threshold multiplier (paper: 1, 10, 100).
    lam:
        HDRF balance weight for the streaming phase.
    seed:
        Determinism seed for the expansion phase.
    """

    def __init__(self, tau: float = 10.0, lam: float = 1.1, seed: int = 0) -> None:
        if tau <= 0:
            raise ConfigurationError(f"tau must be positive, got {tau}")
        self.tau = float(tau)
        self.lam = float(lam)
        self.seed = int(seed)
        self.name = f"HEP-{int(tau) if float(tau).is_integer() else tau}"

    # ------------------------------------------------------------------
    def _run(self, stream, k: int, alpha: float) -> PartitionResult:
        timer = PhaseTimer()
        cost = CostCounter()
        m = stream.n_edges

        with timer.phase("degree"):
            degrees = compute_degrees_from_stream(stream)
            cost.edges_streamed += m
        n = max(self._resolve_n_vertices(stream, degrees), len(degrees))
        if len(degrees) < n:
            grown = np.zeros(n, dtype=np.int64)
            grown[: len(degrees)] = degrees
            degrees = grown
        mean_degree = degrees[degrees > 0].mean() if (degrees > 0).any() else 0.0
        threshold = self.tau * mean_degree

        state = PartitionState(n, k, m, alpha)
        assignments = np.full(m, -1, dtype=np.int32)
        sizes = np.zeros(k, dtype=np.int64)
        capacity = state.capacity
        replicas = state.replicas

        # Phase A: collect the low-degree subgraph in memory (this is the
        # memory HEP's tau controls) and partition it with expansion.
        low = degrees <= threshold
        with timer.phase("in-memory"):
            low_edges: list[tuple[int, int, int]] = []
            idx = 0
            for chunk in stream.chunks():
                check_vertex_ids(chunk, n, idx)
                lu = low[chunk[:, 0]]
                lv = low[chunk[:, 1]]
                both = lu & lv
                for offset in np.where(both)[0].tolist():
                    u = int(chunk[offset, 0])
                    v = int(chunk[offset, 1])
                    low_edges.append((idx + offset, u, v))
                idx += chunk.shape[0]
            cost.edges_streamed += m
            n_low = len(low_edges)
            if n_low:
                arr = np.asarray([(u, v) for (_, u, v) in low_edges], dtype=np.int64)
                orig_idx = np.asarray([i for (i, _, _) in low_edges], dtype=np.int64)
                exp = ExpansionState(arr, n, seed=self.seed)
                # Budget each partition proportionally to the in-memory share.
                share = min(capacity, math.ceil(n_low / k))

                def cb(local_e: int, p: int) -> None:
                    e = int(orig_idx[local_e])
                    assignments[e] = p
                    sizes[p] += 1
                    replicas[arr[local_e, 0], p] = True
                    replicas[arr[local_e, 1], p] = True

                remaining = n_low
                for p in range(k):
                    budget = min(share, math.ceil(remaining / (k - p)))
                    got = exp.expand_partition(p, budget, cb)
                    remaining -= got
                huge = np.iinfo(np.int64).max
                for local_e in exp.unassigned_edge_ids().tolist():
                    p = int(np.argmin(np.where(sizes < capacity, sizes, huge)))
                    cb(local_e, p)
                cost.heap_operations += exp.heap_ops
                cost.expansion_scans += exp.scan_count
            in_memory_bytes = 24 * n_low

        # Phase B: stream the high-degree edges with HDRF, reusing state.
        with timer.phase("streaming"):
            sizes_f = sizes.astype(np.float64)
            lam = self.lam
            choose = PythonBackend.hdrf_choose
            idx = 0
            n_high = 0
            for chunk in stream.chunks():
                for u, v in chunk.tolist():
                    if assignments[idx] >= 0:
                        idx += 1
                        continue
                    du = int(degrees[u])
                    dv = int(degrees[v])
                    theta_u = du / (du + dv)
                    p = choose(
                        replicas[u],
                        replicas[v],
                        theta_u,
                        sizes_f,
                        capacity,
                        lam,
                        HDRF_EPSILON,
                    )
                    sizes_f[p] += 1.0
                    replicas[u, p] = True
                    replicas[v, p] = True
                    assignments[idx] = p
                    n_high += 1
                    idx += 1
            sizes = sizes_f.astype(np.int64)
            cost.edges_streamed += m
            cost.score_evaluations += n_high * k

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
            state_bytes=measured_state_bytes(state, degrees) + in_memory_bytes,
            extras={
                "tau": self.tau,
                "threshold": float(threshold),
                "in_memory_edges": n_low,
                "streamed_edges": m - n_low,
            },
        )
