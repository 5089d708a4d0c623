"""HDRF: high-degree-replicated-first streaming partitioning (CIKM'15).

The paper's primary stateful streaming baseline.  For every edge, a score
``C_REP(u, v, p) + lambda * C_BAL(p)`` is evaluated on *every* partition
and the edge goes to the argmax — hence O(|E| * k) run-time, the exact
bottleneck 2PS-L removes.

Faithful details:

- degrees are *partial*: counted on the fly as edges stream in (HDRF does
  not get a degree pass);
- ``lambda = 1.1`` as configured in the paper's appendix;
- the hard balance cap is enforced by masking full partitions before the
  argmax (capacity bound alpha * |E| / k).

The whole pass dispatches through the kernel registry
(:meth:`repro.kernels.base.KernelBackend.hdrf_baseline_pass`): the
``python`` backend streams edge-at-a-time through the scoring twin
``PythonBackend.hdrf_choose`` (shared with the 2PS-HDRF remaining pass,
so the score arithmetic can never diverge between the baseline and the
two-phase variant), the ``numpy`` backend makes the same decisions
through its exact scalar engine, and the ``c`` backend runs a compiled
per-edge argmax — all bit-exact by the backend contract.
One simulated "score evaluation" per partition per edge is charged to the
cost counter, preserving the O(|E| * k) operation count.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels import get_backend
from repro.metrics.memory import measured_state_bytes
from repro.metrics.runtime import CostCounter, PhaseTimer
from repro.partitioning.base import EdgePartitioner, PartitionResult
from repro.partitioning.state import PartitionState
from repro.kernels.base import TwoPhaseContext

_EMPTY_PART = np.zeros(0, dtype=np.int32)
_EMPTY_WEIGHTS = np.zeros((0, 2), dtype=np.int64)


class HDRF(EdgePartitioner):
    """Streaming HDRF with partial degrees and hard balance cap.

    Parameters
    ----------
    lam:
        Weight of the balance term (paper: 1.1).
    backend:
        Kernel backend name (``None`` -> registry default); validated
        eagerly so an unknown name fails at construction.
    chunk_size:
        Stream chunk size for this run (``None`` keeps the stream's
        default, ``"auto"`` resolves the size heuristic) — a pure
        performance knob, like everywhere else in the kernel layer.
    """

    name = "HDRF"
    backend: str | None = None
    chunk_size: int | None = None

    def __init__(
        self,
        lam: float = 1.1,
        backend: str | None = None,
        chunk_size: int | str | None = None,
    ) -> None:
        self.lam = float(lam)
        if not math.isfinite(self.lam):
            raise ConfigurationError(f"lam must be finite, got {lam}")
        get_backend(backend)  # fail fast on unknown names
        self.backend = backend
        self.chunk_size = chunk_size

    def _run(self, stream, k: int, alpha: float) -> PartitionResult:
        kernels = get_backend(self.backend)
        timer = PhaseTimer()
        cost = CostCounter()
        n = self._resolve_n_vertices(stream)
        m = stream.n_edges
        state = PartitionState(n, k, m, alpha)
        assignments = np.empty(m, dtype=np.int32)
        # The baseline needs no Phase-1 inputs; empty read-only arrays
        # satisfy the context shape.
        ctx = TwoPhaseContext(
            k=k,
            part=_EMPTY_PART,
            weights=_EMPTY_WEIGHTS,
            state=state,
            assignments=assignments,
            hash_seed=0,
            cost=cost,
            hdrf_lambda=self.lam,
        )
        with timer.phase("partitioning"):
            partial_deg = kernels.hdrf_baseline_pass(stream, ctx)
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
            state_bytes=measured_state_bytes(state, partial_deg),
            extras={"backend": kernels.name},
        )
