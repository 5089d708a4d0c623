"""Extension experiment: CuSP-style parallel partitioning staleness.

The paper (Section VI) notes that parallelizing streaming partitioning
"comes with a cost, as staleness in state synchronization of multiple
partitioner instances can lead to lower partitioning quality."  This
experiment quantifies that trade-off for sharded 2PS-L: sweep the
synchronization interval and report replication factor, measured balance,
sync count, and the modeled parallel wall-clock.
"""

from __future__ import annotations

from repro.core import ParallelTwoPhase, TwoPhasePartitioner
from repro.experiments.common import ExperimentResult
from repro.graph.datasets import load_dataset


def run(
    scale: float = 0.15,
    dataset: str = "OK",
    k: int = 16,
    n_workers: int = 4,
    intervals=(64, 256, 1024, 4096, 16384),
) -> ExperimentResult:
    """Sweep the sync interval of the sharded partitioner."""
    graph = load_dataset(dataset, scale=scale)
    sequential = TwoPhasePartitioner().partition(graph, k)
    rows = [
        {
            "config": "sequential",
            "sync_interval": 0,
            "rf": round(sequential.replication_factor, 4),
            "alpha": round(sequential.measured_alpha, 4),
            "syncs": 0,
            "parallel_wall_s": round(sequential.wall_seconds, 4),
        }
    ]
    for interval in intervals:
        result = ParallelTwoPhase(
            n_workers=n_workers, sync_interval=interval
        ).partition(graph, k)
        rows.append(
            {
                "config": f"{n_workers}w",
                "sync_interval": interval,
                "rf": round(result.replication_factor, 4),
                "alpha": round(result.measured_alpha, 4),
                "syncs": result.extras["syncs"],
                "parallel_wall_s": round(result.extras["parallel_wall_s"], 4),
            }
        )
    return ExperimentResult(
        experiment="staleness",
        title=(
            f"CuSP-style sharding on {dataset} (k={k}, {n_workers} workers): "
            "sync interval vs quality"
        ),
        rows=rows,
        paper_reference=(
            "Section VI: 'staleness in state synchronization of multiple "
            "partitioner instances can lead to lower partitioning quality'"
        ),
        notes=(
            "Fewer syncs = faster parallel wall-clock but staler replica "
            "views; balance can also drift above alpha within a window."
        ),
    )
