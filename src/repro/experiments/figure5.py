"""Figure 5: relative run-time of the 2PS-L phases at k=32.

The paper splits 2PS-L's total run-time into degree computation (7-20 %),
clustering (16-22 %) and partitioning (58-77 %), and observes that web
graphs spend relatively less time in the partitioning phase because
pre-partitioning (cheaper per edge than scoring) dominates there.
"""

from __future__ import annotations

from repro.core import TwoPhasePartitioner
from repro.experiments.common import ExperimentResult
from repro.graph.datasets import load_dataset

DEFAULT_DATASETS = ("OK", "IT", "TW", "FR", "UK", "GSH", "WDC")


def run(
    scale: float = 0.25, datasets=DEFAULT_DATASETS, k: int = 32
) -> ExperimentResult:
    """Measure the per-phase wall-clock split of a single-pass 2PS-L run."""
    rows = []
    for dataset in datasets:
        graph = load_dataset(dataset, scale=scale)
        result = TwoPhasePartitioner(clustering_passes=1).partition(graph, k)
        totals = result.timer.totals
        # The paper groups mapping+prepartition+scoring as "Partitioning".
        degree = totals.get("degree", 0.0)
        clustering = totals.get("clustering", 0.0)
        partitioning = (
            totals.get("mapping", 0.0)
            + totals.get("prepartition", 0.0)
            + totals.get("partitioning", 0.0)
        )
        total = degree + clustering + partitioning
        rows.append(
            {
                "dataset": dataset,
                "degree_frac": round(degree / total, 3),
                "clustering_frac": round(clustering / total, 3),
                "partitioning_frac": round(partitioning / total, 3),
                "total_wall_s": round(total, 4),
            }
        )
    return ExperimentResult(
        experiment="figure5",
        title=f"Figure 5: 2PS-L phase breakdown at k={k} (scale={scale})",
        rows=rows,
        paper_reference=(
            "degree 7-20 %, clustering 16-22 %, partitioning 58-77 %; web "
            "graphs spend a smaller fraction in partitioning"
        ),
        notes="Wall-clock fractions of the pure-Python implementation.",
    )
