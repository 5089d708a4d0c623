"""Figure 7: replication factor vs number of clustering passes (k=32).

Re-streaming repeats the clustering pass with retained state.  The paper
finds modest RF gains (up to ~3.5 % reduction over 8 passes) on OK, IT,
TW, FR — enough to matter in some deployments, not enough to be the
default.  Values are normalized to the single-pass RF, as in the plot.
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
    """Sweep clustering passes and report normalized RF."""
    rows = []
    for dataset in datasets:
        graph = load_dataset(dataset, scale=scale)
        base_rf = None
        for n_passes in passes:
            result = TwoPhasePartitioner(clustering_passes=n_passes).partition(
                graph, k
            )
            rf = result.replication_factor
            if base_rf is None:
                base_rf = rf
            rows.append(
                {
                    "dataset": dataset,
                    "passes": n_passes,
                    "rf": round(rf, 4),
                    "normalized_rf": round(rf / base_rf, 4),
                }
            )
    return ExperimentResult(
        experiment="figure7",
        title=f"Figure 7: normalized RF vs clustering passes at k={k}",
        rows=rows,
        paper_reference="normalized RF in [0.96, 1.02]; gains up to ~3.5 %",
    )
