"""Section I motivation: edge partitioning beats vertex partitioning on
power-law graphs.

Not a numbered figure, but the paper's opening argument (citing Bourse et
al. [9]): "when the distribution of vertex degrees in a graph is highly
skewed ... edge partitioning is more effective than vertex partitioning in
finding good cuts."  We partition the same power-law stand-in with the
streaming vertex partitioners (Hash, LDG, FENNEL, converted to the induced
edge placement) and with the edge partitioners (DBH, HDRF, 2PS-L), and
compare replication factors on one axis.
"""

from __future__ import annotations

from repro.baselines import DBH, HDRF
from repro.core import TwoPhasePartitioner
from repro.experiments.common import ExperimentResult
from repro.graph.datasets import load_dataset
from repro.metrics import measured_alpha, replication_factor_from_assignments
from repro.vertexpart import (
    Fennel,
    HashVertices,
    LinearDeterministicGreedy,
    derived_edge_assignment,
    edge_cut_fraction,
    vertex_balance,
)


def run(scale: float = 0.25, dataset: str = "TW", k: int = 32) -> ExperimentResult:
    """Vertex vs edge partitioning on a heavily skewed graph."""
    graph = load_dataset(dataset, scale=scale)
    rows = []
    for partitioner in (HashVertices(), LinearDeterministicGreedy(), Fennel()):
        vres = partitioner.partition(graph, k)
        induced = derived_edge_assignment(graph.edges, vres.parts, k)
        rows.append(
            {
                "family": "vertex",
                "partitioner": vres.partitioner,
                "rf": round(
                    replication_factor_from_assignments(
                        graph.edges, induced, k, graph.n_vertices
                    ),
                    3,
                ),
                "edge_cut": round(edge_cut_fraction(graph.edges, vres.parts), 3),
                "vertex_balance": round(vertex_balance(vres.parts, k), 3),
                # The decisive column on skewed graphs: a vertex-balanced
                # placement leaves *edges* (i.e. work) wildly imbalanced.
                "edge_alpha": round(measured_alpha(induced, k), 3),
            }
        )
    for partitioner in (DBH(), HDRF(), TwoPhasePartitioner()):
        eres = partitioner.partition(graph, k)
        rows.append(
            {
                "family": "edge",
                "partitioner": eres.partitioner,
                "rf": round(eres.replication_factor, 3),
                "edge_cut": None,
                "vertex_balance": None,
                "edge_alpha": round(eres.measured_alpha, 3),
            }
        )
    return ExperimentResult(
        experiment="motivation",
        title=f"Section I: vertex vs edge partitioning on {dataset} (k={k})",
        rows=rows,
        paper_reference=(
            "on power-law graphs, edge partitioning (vertex cuts) yields "
            "lower replication than vertex partitioning (edge cuts) [9]"
        ),
        notes=(
            "Vertex partitionings are converted to their induced edge "
            "placement so replication factors are directly comparable. "
            "The skew shows in edge_alpha: greedy vertex partitioners "
            "reach a low RF only by loading one machine with many times "
            "its balanced edge share (hub concentration), while edge "
            "partitioners hold edge_alpha <= 1.05 — the reason edge "
            "partitioning wins on power-law graphs."
        ),
    )
