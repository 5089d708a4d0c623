"""Figure 9: 2PS-HDRF normalized to 2PS-L (RF and run-time).

2PS-HDRF replaces the linear two-candidate scoring of Phase 2 Step 3 with
the full HDRF score over all k partitions.  The paper reports:

- RF improves by up to 50 % (normalized RF in ~[0.5, 1.0]);
- run-time grows with k: roughly parity at k=4 and up to ~12x at k=256.

Both are reproduced here; run-time uses the operation-count model, where
the k-dependence is exact.
"""

from __future__ import annotations

from repro.core import TwoPhasePartitioner
from repro.experiments.common import ExperimentResult
from repro.graph.datasets import load_dataset

DEFAULT_DATASETS = ("OK", "IT", "TW", "FR")
DEFAULT_KS = (4, 32, 128, 256)


def run(
    scale: float = 0.25, datasets=DEFAULT_DATASETS, ks=DEFAULT_KS
) -> ExperimentResult:
    """Compare 2PS-HDRF against 2PS-L per (dataset, k)."""
    rows = []
    for dataset in datasets:
        graph = load_dataset(dataset, scale=scale)
        for k in ks:
            base = TwoPhasePartitioner(mode="linear").partition(graph, k)
            variant = TwoPhasePartitioner(mode="hdrf").partition(graph, k)
            rows.append(
                {
                    "dataset": dataset,
                    "k": k,
                    "rf_2psl": round(base.replication_factor, 3),
                    "rf_2pshdrf": round(variant.replication_factor, 3),
                    "normalized_rf": round(
                        variant.replication_factor / base.replication_factor, 4
                    ),
                    "normalized_model_time": round(
                        variant.model_seconds() / base.model_seconds(), 3
                    ),
                    "normalized_wall_time": round(
                        variant.wall_seconds / base.wall_seconds, 3
                    ),
                }
            )
    return ExperimentResult(
        experiment="figure9",
        title="Figure 9: 2PS-HDRF normalized to 2PS-L",
        rows=rows,
        paper_reference=(
            "normalized RF down to ~0.5; normalized run-time ~1x at k=4 "
            "rising to ~12x at k=256"
        ),
    )
