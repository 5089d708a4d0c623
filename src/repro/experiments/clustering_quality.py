"""Extension experiment: Phase-1 clustering quality across configurations.

Section III-A argues the clustering phase must (a) find real communities
and (b) keep cluster volumes bounded so Phase 2 can balance them.  This
experiment measures both, sweeping the volume-cap factor and the number of
streaming passes on a social and a web stand-in, reporting Newman
modularity, the intra-cluster edge fraction (the driver of Figure 6's
pre-partitioning ratio), cluster counts, and the resulting 2PS-L
replication factor.
"""

from __future__ import annotations

from repro.core import TwoPhasePartitioner
from repro.core.clustering import StreamingClustering, default_volume_cap
from repro.experiments.common import ExperimentResult
from repro.graph.datasets import load_dataset
from repro.metrics.analysis import (
    clustering_modularity,
    intra_cluster_edge_fraction,
)
from repro.streaming import InMemoryEdgeStream


def run(
    scale: float = 0.15,
    datasets=("OK", "IT"),
    k: int = 32,
    cap_factors=(0.25, 0.5, 1.0, 2.0),
    passes_list=(1, 3),
) -> ExperimentResult:
    """Sweep (cap factor, passes) and measure clustering + partitioning."""
    rows = []
    for dataset in datasets:
        graph = load_dataset(dataset, scale=scale)
        for factor in cap_factors:
            for passes in passes_list:
                cap = default_volume_cap(graph.n_edges, k, factor)
                clustering = StreamingClustering(
                    n_passes=passes, volume_cap=cap
                ).run(InMemoryEdgeStream(graph), degrees=graph.degrees)
                result = TwoPhasePartitioner(
                    volume_cap_factor=factor, clustering_passes=passes
                ).partition(graph, k)
                rows.append(
                    {
                        "dataset": dataset,
                        "cap_factor": factor,
                        "passes": passes,
                        "modularity": round(
                            clustering_modularity(graph, clustering.v2c), 4
                        ),
                        "intra_frac": round(
                            intra_cluster_edge_fraction(graph, clustering.v2c),
                            4,
                        ),
                        "clusters": clustering.n_nonempty_clusters,
                        "rf": round(result.replication_factor, 3),
                    }
                )
    return ExperimentResult(
        experiment="clustering",
        title=f"Phase-1 clustering quality sweep (k={k})",
        rows=rows,
        paper_reference=(
            "Section III-A: bounded volumes are required for balance; "
            "clustering quality drives partitioning quality"
        ),
        notes=(
            "intra_frac is the share of edges eligible for pre-partitioning "
            "when clusters co-locate; rf is the end quality of 2PS-L with "
            "that configuration."
        ),
    )
