"""Figure 8: total 2PS-L run-time vs number of clustering passes (k=32).

The companion to Figure 7: re-streaming adds one clustering pass per
iteration but clustering is only ~16-22 % of the total, so 8 passes only
roughly *double* the total run-time (paper: "the increase in run-time is
not proportional to the number of streaming passes").  Values normalized
to single-pass total, reported for both wall-clock and the operation-count
model.
"""

from __future__ import annotations

from repro.core import TwoPhasePartitioner
from repro.experiments.common import ExperimentResult
from repro.graph.datasets import load_dataset

DEFAULT_DATASETS = ("OK", "IT", "TW", "FR")
DEFAULT_PASSES = (1, 2, 3, 4, 5, 6, 7, 8)


def run(
    scale: float = 0.25, datasets=DEFAULT_DATASETS, passes=DEFAULT_PASSES, k: int = 32
) -> ExperimentResult:
    """Sweep clustering passes and report normalized total run-time."""
    rows = []
    for dataset in datasets:
        graph = load_dataset(dataset, scale=scale)
        base_wall = base_model = None
        for n_passes in passes:
            result = TwoPhasePartitioner(clustering_passes=n_passes).partition(
                graph, k
            )
            wall = result.wall_seconds
            model = result.model_seconds()
            if base_wall is None:
                base_wall, base_model = wall, model
            rows.append(
                {
                    "dataset": dataset,
                    "passes": n_passes,
                    "wall_s": round(wall, 4),
                    "normalized_wall": round(wall / base_wall, 4),
                    "normalized_model": round(model / base_model, 4),
                }
            )
    return ExperimentResult(
        experiment="figure8",
        title=f"Figure 8: normalized total run-time vs clustering passes (k={k})",
        rows=rows,
        paper_reference=(
            "8 passes roughly double the total run-time (normalized ~2.0-2.5)"
        ),
    )
