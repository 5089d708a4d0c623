"""Extension experiment: dynamic-graph updates (paper Section VI).

Quantifies the incremental 2PS-L variant: starting from a batch
partitioning, apply growing amounts of random edge churn (inserts and
deletes) and track the replication factor against (a) the frozen
incremental state and (b) a fresh batch re-partitioning of the mutated
graph — the quality an operator recovers by re-running 2PS-L.
"""

from __future__ import annotations

import numpy as np

from repro.core import IncrementalPartitioner, TwoPhasePartitioner
from repro.experiments.common import ExperimentResult
from repro.graph.datasets import load_dataset
from repro.graph.graph import Graph


def run(
    scale: float = 0.15,
    dataset: str = "IT",
    k: int = 16,
    churn_steps=(0.0, 0.05, 0.1, 0.2, 0.4),
    seed: int = 3,
) -> ExperimentResult:
    """Sweep churn (fraction of |E| updated) and compare RF curves."""
    graph = load_dataset(dataset, scale=scale)
    base = TwoPhasePartitioner(keep_state=True).partition(graph, k)
    inc = IncrementalPartitioner.from_result(base)
    inc.attach_edges(graph.edges, base.assignments)
    rng = np.random.default_rng(seed)

    rows = []
    inserted: list[tuple[int, int]] = []
    applied = 0
    for churn in churn_steps:
        target = int(churn * graph.n_edges)
        while applied < target:
            u, v = (int(x) for x in rng.integers(0, graph.n_vertices, 2))
            inc.insert(u, v)
            inserted.append((u, v))
            applied += 1
        # Batch re-partition of the mutated graph for comparison.
        if inserted:
            mutated = Graph(
                np.concatenate(
                    [graph.edges, np.asarray(inserted, dtype=np.int64)]
                ),
                graph.n_vertices,
            )
        else:
            mutated = graph
        fresh = TwoPhasePartitioner().partition(mutated, k)
        rows.append(
            {
                "churn": churn,
                "updates": applied,
                "incremental_rf": round(inc.replication_factor(), 4),
                "batch_rf": round(fresh.replication_factor, 4),
                "rf_gap": round(
                    inc.replication_factor() / fresh.replication_factor, 4
                ),
                "staleness": round(inc.staleness, 4),
            }
        )
    return ExperimentResult(
        experiment="dynamic",
        title=f"Dynamic updates on {dataset} (k={k}): incremental vs re-batch",
        rows=rows,
        paper_reference=(
            "Section VI: 2PS-L 'could be transformed into an incremental "
            "algorithm to efficiently handle dynamic graphs'"
        ),
        notes=(
            "rf_gap is the price of not re-partitioning; it grows with "
            "churn and tells operators when to re-run the batch algorithm."
        ),
    )
