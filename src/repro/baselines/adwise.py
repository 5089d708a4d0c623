"""ADWISE: adaptive window-based streaming edge partitioning (ICDCS'18).

ADWISE keeps a buffer (window) of edges and, instead of assigning the next
edge of the stream, repeatedly assigns the *best* edge currently in the
buffer — "looking into the future" to detect local clusters.  Our
re-implementation keeps the essential mechanism:

- a FIFO-refilled buffer of ``buffer_size`` edges;
- per round, every buffered edge is scored with the HDRF score plus a
  *lookahead bonus* proportional to how many other buffered edges share an
  endpoint with it (the in-buffer clustering signal);
- the top ``assign_fraction`` of the buffer is assigned in score order,
  then the buffer refills.

This preserves ADWISE's run-time profile (a constant-factor multiple of
HDRF's O(|E| * k) — the paper measures it as the slowest streaming
baseline) and its quality profile: better than HDRF on graphs small enough
for the window to "see" clusters, no better on large graphs (the paper's
Section V observation, reproduced in our benches by shrinking
``buffer_size`` relative to the graph).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.scoring import HDRF_EPSILON
from repro.errors import ConfigurationError
from repro.kernels.base import check_vertex_ids
from repro.kernels.python_backend import PythonBackend
from repro.metrics.memory import measured_state_bytes
from repro.metrics.runtime import CostCounter, PhaseTimer
from repro.partitioning.base import EdgePartitioner, PartitionResult
from repro.partitioning.state import PartitionState


class Adwise(EdgePartitioner):
    """Buffered best-first streaming partitioner.

    Parameters
    ----------
    buffer_size:
        Window size in edges (paper: adaptive; we expose it directly and
        let experiments derive it from a run-time budget).
    assign_fraction:
        Fraction of the buffer assigned per scoring round; smaller values
        re-score more often (slower, better quality).
    lam:
        HDRF balance weight.
    lookahead_weight:
        Weight of the in-buffer degree bonus.
    """

    name = "ADWISE"

    def __init__(
        self,
        buffer_size: int = 256,
        assign_fraction: float = 0.25,
        lam: float = 1.1,
        lookahead_weight: float = 0.1,
    ) -> None:
        if buffer_size < 1:
            raise ConfigurationError(f"buffer_size must be >= 1, got {buffer_size}")
        if not 0.0 < assign_fraction <= 1.0:
            raise ConfigurationError(
                f"assign_fraction must be in (0, 1], got {assign_fraction}"
            )
        if not math.isfinite(float(lam)):
            raise ConfigurationError(f"lam must be finite, got {lam}")
        self.buffer_size = int(buffer_size)
        self.assign_fraction = float(assign_fraction)
        self.lam = float(lam)
        self.lookahead_weight = float(lookahead_weight)

    # ------------------------------------------------------------------
    def _run(self, stream, k: int, alpha: float) -> PartitionResult:
        timer = PhaseTimer()
        cost = CostCounter()
        n = self._resolve_n_vertices(stream)
        m = stream.n_edges
        state = PartitionState(n, k, m, alpha)
        assignments = np.full(m, -1, dtype=np.int32)
        replicas = state.replicas
        sizes = np.zeros(k, dtype=np.float64)
        capacity = state.capacity
        hdrf_scores, lam = PythonBackend.hdrf_scores, self.lam
        partial_deg = [0] * n
        buffer_deg = [0] * n

        def score_edge(u: int, v: int) -> tuple[float, int]:
            """Best (score, partition) for one buffered edge: the HDRF
            reference's winner, plus the look-ahead bonus."""
            du = partial_deg[u] + 1
            dv = partial_deg[v] + 1
            theta_u = du / (du + dv)
            scores = hdrf_scores(
                replicas[u], replicas[v], theta_u, sizes, capacity, lam, HDRF_EPSILON
            )
            p = int(np.argmax(scores))
            bonus = self.lookahead_weight * (buffer_deg[u] + buffer_deg[v])
            return float(scores[p]) + bonus, p

        def checked_edges():
            # The state is sized up front: check each chunk's ids first.
            pos = 0
            for chunk in stream.chunks():
                check_vertex_ids(chunk, n, pos)
                pos += chunk.shape[0]
                yield from chunk.tolist()

        with timer.phase("partitioning"):
            buffer: list[tuple[int, int, int]] = []  # (edge_idx, u, v)
            edge_iter = checked_edges()
            next_idx = 0
            scored_rounds = 0

            def refill() -> None:
                nonlocal next_idx
                while len(buffer) < self.buffer_size:
                    try:
                        u, v = next(edge_iter)
                    except StopIteration:
                        return
                    buffer.append((next_idx, u, v))
                    buffer_deg[u] += 1
                    buffer_deg[v] += 1
                    next_idx += 1

            refill()
            batch = max(1, int(self.buffer_size * self.assign_fraction))
            while buffer:
                scored = [
                    (score_edge(u, v), pos)
                    for pos, (_, u, v) in enumerate(buffer)
                ]
                scored_rounds += len(buffer)
                scored.sort(key=lambda item: -item[0][0])
                chosen_positions = sorted(
                    (pos for (_, pos) in scored[:batch]), reverse=True
                )
                for pos in chosen_positions:
                    edge_idx, u, v = buffer[pos]
                    # Re-score at assignment time: sizes/replicas moved.
                    _, p = score_edge(u, v)
                    sizes[p] += 1.0
                    replicas[u, p] = True
                    replicas[v, p] = True
                    partial_deg[u] += 1
                    partial_deg[v] += 1
                    buffer_deg[u] -= 1
                    buffer_deg[v] -= 1
                    assignments[edge_idx] = p
                    buffer.pop(pos)
                refill()
            cost.edges_streamed += m
            cost.score_evaluations += (scored_rounds + m) * k

        state.sizes[:] = sizes.astype(np.int64)
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
            state_bytes=measured_state_bytes(state, partial_deg, buffer_deg),
            extras={"buffer_size": self.buffer_size},
        )
