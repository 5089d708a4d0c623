"""Abstract edge partitioner and the result record.

Every partitioner — the core 2PS-L and all baselines — implements
:class:`EdgePartitioner.partition` with the same contract: consume an edge
stream (possibly over several passes), return a :class:`PartitionResult`
with per-edge assignments in stream order, the final replication state,
wall-clock phase timings and machine-neutral operation counts.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.errors import PartitioningError, StreamError
from repro.metrics.runtime import CostCounter, CostModel, PhaseTimer
from repro.partitioning.state import PartitionState, check_alpha
from repro.streaming.stream import EdgeStream, as_stream


@dataclass
class PartitionArtifacts:
    """Typed hand-off of reusable algorithm state.

    Produced by partitioners that can seed downstream consumers (e.g.
    ``TwoPhasePartitioner(keep_state=True)`` exposes its Phase-1 state so
    an :class:`~repro.core.incremental.IncrementalPartitioner` can be
    built without re-running the pipeline).  Unlike ``extras`` — a loose
    bag of run diagnostics — these fields are part of the public result
    contract.

    Attributes
    ----------
    clustering:
        The Phase-1 :class:`~repro.core.clustering.ClusteringResult`
        (vertex-to-cluster map, cluster volumes, degree array).
    c2p:
        ``int64`` cluster-to-partition map from the Graham scheduling
        step.
    """

    clustering: object | None = None
    c2p: np.ndarray | None = None


@dataclass
class PartitionResult:
    """Outcome of one partitioning run.

    Attributes
    ----------
    partitioner:
        Name of the algorithm (e.g. ``"2PS-L"``, ``"HDRF"``).
    k, alpha:
        Requested partition count and imbalance bound.
    n_vertices, n_edges:
        Graph dimensions.
    assignments:
        ``int32`` partition id per edge, aligned with the stream order.
    state:
        Final :class:`PartitionState` (replication matrix, sizes).
    timer:
        Wall-clock :class:`PhaseTimer` with per-phase totals.
    cost:
        Machine-neutral :class:`CostCounter`.
    state_bytes:
        Measured peak state footprint of the partitioner.
    extras:
        Algorithm-specific diagnostics (e.g. 2PS-L's pre-partitioned edge
        count, number of clusters).
    artifacts:
        Typed :class:`PartitionArtifacts` for downstream consumers, or
        ``None`` when the partitioner did not keep reusable state.
    """

    partitioner: str
    k: int
    alpha: float
    n_vertices: int
    n_edges: int
    assignments: np.ndarray
    state: PartitionState
    timer: PhaseTimer
    cost: CostCounter
    state_bytes: int = 0
    extras: dict = field(default_factory=dict)
    artifacts: PartitionArtifacts | None = None

    # ------------------------------------------------------------------
    @property
    def sizes(self) -> np.ndarray:
        """Edge count per partition."""
        return np.bincount(self.assignments, minlength=self.k).astype(np.int64)

    @property
    def replication_factor(self) -> float:
        """Replication factor from the final state."""
        return self.state.replication_factor()

    @property
    def measured_alpha(self) -> float:
        """Observed imbalance of the assignment."""
        if self.n_edges == 0:
            return 1.0
        return float(self.sizes.max()) * self.k / self.n_edges

    @property
    def wall_seconds(self) -> float:
        """Total wall-clock seconds across all phases."""
        return self.timer.total()

    def model_seconds(self, model: CostModel | None = None) -> float:
        """Machine-neutral run-time from the operation counts."""
        return (model or CostModel()).seconds(self.cost)

    def partition_edge_indices(self, p: int) -> np.ndarray:
        """Stream indices of the edges assigned to partition ``p``."""
        if not 0 <= p < self.k:
            raise PartitioningError(f"partition {p} out of range for k={self.k}")
        return np.where(self.assignments == p)[0]

    def summary(self) -> dict:
        """Compact dict for experiment tables."""
        return {
            "partitioner": self.partitioner,
            "k": self.k,
            "rf": round(self.replication_factor, 4),
            "alpha": round(self.measured_alpha, 4),
            "wall_s": round(self.wall_seconds, 4),
            "model_s": round(self.model_seconds(), 4),
            "state_bytes": self.state_bytes,
        }


class EdgePartitioner(ABC):
    """Base class for all edge partitioners.

    Subclasses implement :meth:`_run`; the public :meth:`partition` wraps it
    with input coercion and result validation.
    """

    #: Human-readable algorithm name; subclasses override.
    name: str = "abstract"

    #: Default stream chunk size for this partitioner's passes; ``None``
    #: keeps the stream's own default.  Settable on any instance and
    #: overridable per call via ``partition(..., chunk_size=...)``.
    chunk_size: int | None = None

    def partition(
        self,
        source,
        k: int,
        alpha: float = 1.05,
        n_vertices: int | None = None,
        chunk_size: int | None = None,
    ) -> PartitionResult:
        """Partition an edge source into ``k`` parts.

        Parameters
        ----------
        source:
            An :class:`~repro.streaming.stream.EdgeStream`, a
            :class:`~repro.graph.graph.Graph`, or an ``(m, 2)`` array.
        k:
            Number of partitions (>= 2).
        alpha:
            Imbalance bound for the hard cap (default 1.05, as in the paper).
        n_vertices:
            Vertex-count override for bare arrays.
        chunk_size:
            Edges per stream chunk for every pass of this run.  Defaults
            to the partitioner's own ``chunk_size`` attribute (when it has
            one), else the stream's current default.  Scoped to this run:
            a caller-supplied stream gets its previous default back
            afterwards.  A chunk size is a pure performance knob: results
            are identical for any value (enforced by the kernel-backend
            contract).

        Raises
        ------
        BalanceError
            Unless ``alpha`` is a finite number >= 1, before any read.
        PartitioningError
            If the subclass produced an invalid assignment (internal bug
            guard) or the inputs are malformed.
        """
        if chunk_size is None:
            chunk_size = getattr(self, "chunk_size", None)
        stream = as_stream(source, n_vertices=n_vertices)
        if k < 2:
            raise PartitioningError(f"k must be >= 2, got {k}")
        check_alpha(alpha)
        if chunk_size is not None and (
            isinstance(chunk_size, str) or chunk_size <= 0
        ):
            raise PartitioningError(
                f"chunk_size must be a positive int, got {chunk_size!r}"
            )
        if stream.n_edges == 0:
            raise PartitioningError("cannot partition an empty edge stream")

        previous_chunk_size = stream.default_chunk_size
        try:
            if chunk_size is not None:
                stream.default_chunk_size = int(chunk_size)
            result = self._run(stream, k, alpha)
        finally:
            stream.default_chunk_size = previous_chunk_size
        if result.assignments.shape[0] != stream.n_edges:
            raise PartitioningError(
                f"{self.name}: produced {result.assignments.shape[0]} "
                f"assignments for {stream.n_edges} edges"
            )
        if (result.assignments < 0).any():
            raise PartitioningError(f"{self.name}: left edges unassigned")
        return result

    @abstractmethod
    def _run(self, stream: EdgeStream, k: int, alpha: float) -> PartitionResult:
        """Algorithm body; must assign every edge."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_n_vertices(stream: EdgeStream, degrees=None) -> int:
        """Vertex count from the stream hint or a computed degree array."""
        if stream.n_vertices is not None:
            return int(stream.n_vertices)
        if degrees is not None:
            return int(len(degrees))
        raise StreamError(
            "stream does not know its vertex count; run a degree pass first"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
