"""Extension experiment: 2PS-L generalized to hypergraphs (Section VII).

The paper's conclusion names hypergraph generalization as future work.
This experiment runs the 2PS-L-H prototype against the streaming min-max
baseline (Alistarh et al.) and stateless hashing on planted-community
hypergraphs across k, reporting replication factor, balance, and the
scoring cost that separates linear-time from O(|H| * k) behaviour.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.hypergraph import (
    HashHyperedges,
    MinMaxStreaming,
    TwoPhaseHypergraphPartitioner,
    planted_hypergraph,
)


def run(
    n_communities: int = 40,
    community_size: int = 20,
    n_hyperedges: int = 6000,
    ks=(4, 16, 64),
    seed: int = 11,
) -> ExperimentResult:
    """Compare the three hyperedge partitioners across k."""
    hypergraph = planted_hypergraph(
        n_communities, community_size, n_hyperedges, seed=seed
    )
    rows = []
    for k in ks:
        for partitioner in (
            TwoPhaseHypergraphPartitioner(),
            MinMaxStreaming(),
            HashHyperedges(),
        ):
            result = partitioner.partition(hypergraph, k)
            rows.append(
                {
                    "partitioner": result.partitioner,
                    "k": k,
                    "rf": round(result.replication_factor, 3),
                    "alpha": round(result.measured_alpha, 3),
                    "score_evals": result.cost.score_evaluations,
                    "evals_per_hyperedge": round(
                        result.cost.score_evaluations
                        / hypergraph.n_hyperedges,
                        2,
                    ),
                }
            )
    return ExperimentResult(
        experiment="hypergraphs",
        title=(
            f"Hypergraph partitioning (|V|={n_communities * community_size}, "
            f"|H|={n_hyperedges})"
        ),
        rows=rows,
        paper_reference=(
            "Section VII: 'we plan to investigate the generalization of "
            "2PS-L to hypergraphs'"
        ),
        notes=(
            "2PS-L-H scores <= 2 candidates per hyperedge at every k; "
            "MinMax scores all k (the HDRF-like cost profile)."
        ),
    )
