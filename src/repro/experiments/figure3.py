"""Figure 3: clustering-aware vs clustering-agnostic cuts (concept figure).

The paper's Figure 3 shows a two-cluster toy graph where a
clustering-agnostic 2-way edge partitioning cuts 4 vertices while a
clustering-aware one cuts only 2.  We make that concrete: partition the toy
graph with a clustering-agnostic baseline (Random hashing) and with 2PS-L,
and report the number of cut (replicated) vertices each produces.
"""

from __future__ import annotations

from repro.baselines import RandomHash
from repro.core import TwoPhasePartitioner
from repro.experiments.common import ExperimentResult
from repro.graph.generators import two_cluster_toy_graph


def cut_vertices(result) -> int:
    """Vertices replicated on more than one partition (the 'cut size')."""
    return int((result.state.replica_counts() > 1).sum())


def run() -> ExperimentResult:
    """2-way partition the Figure 3 toy graph, aware vs agnostic."""
    graph = two_cluster_toy_graph()
    rows = []
    # Volume cap sized so each 4-clique is one cluster (factor 2 => cap =
    # 2 * |E| / k = 16, one clique's volume is 14).
    aware = TwoPhasePartitioner(volume_cap_factor=2.0).partition(graph, 2)
    rows.append(
        {
            "strategy": "clustering-aware (2PS-L)",
            "cut_vertices": cut_vertices(aware),
            "rf": round(aware.replication_factor, 3),
        }
    )
    agnostic = RandomHash(seed=1).partition(graph, 2)
    rows.append(
        {
            "strategy": "clustering-agnostic (random hash)",
            "cut_vertices": cut_vertices(agnostic),
            "rf": round(agnostic.replication_factor, 3),
        }
    )
    return ExperimentResult(
        experiment="figure3",
        title="Figure 3: cut size on the two-cluster toy graph (k=2)",
        rows=rows,
        paper_reference="clustering-aware cut size 2 vs clustering-agnostic 4",
        notes=(
            "The toy graph is the paper's illustration: two 4-cliques joined "
            "by two bridge edges."
        ),
    )
