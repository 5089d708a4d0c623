"""Figure 6: ratio of pre-partitioned vs remaining edges at k=32.

In 2PS-L's second phase, "pre-partitioned" edges (endpoints in the same
cluster, or in clusters mapped to the same partition) are assigned without
scoring.  The paper shows pre-partitioning *dominates on web graphs* while
social networks leave the majority to the scoring pass — the structural
signature that web graphs cluster better.
"""

from __future__ import annotations

from repro.core import TwoPhasePartitioner
from repro.experiments.common import ExperimentResult
from repro.graph.datasets import DATASETS, load_dataset

DEFAULT_DATASETS = ("OK", "IT", "TW", "FR", "UK", "GSH", "WDC")


def run(
    scale: float = 0.25, datasets=DEFAULT_DATASETS, k: int = 32
) -> ExperimentResult:
    """Measure the pre-partitioned edge fraction per dataset."""
    rows = []
    for dataset in datasets:
        graph = load_dataset(dataset, scale=scale)
        result = TwoPhasePartitioner(clustering_passes=1).partition(graph, k)
        pre = result.extras["prepartitioned_edges"]
        rem = result.extras["remaining_edges"]
        rows.append(
            {
                "dataset": dataset,
                "type": DATASETS[dataset].kind,
                "prepartitioned_frac": round(pre / graph.n_edges, 3),
                "remaining_frac": round(rem / graph.n_edges, 3),
                "n_edges": graph.n_edges,
            }
        )
    return ExperimentResult(
        experiment="figure6",
        title=f"Figure 6: pre-partitioned vs remaining edges at k={k}",
        rows=rows,
        paper_reference=(
            "pre-partitioning dominates on web graphs (IT/UK/GSH/WDC), "
            "remaining-edge scoring dominates on social networks (OK/TW/FR)"
        ),
    )
