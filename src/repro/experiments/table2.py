"""Table II: space-complexity comparison — validated empirically.

We measure each partitioner's live state bytes at two vertex counts and
two k values.  The Table II classes predict: stateful streaming systems
(2PS-L, HDRF) scale with |V| * k; DBH with |V| only; Grid O(1); in-memory
systems with |E|.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, make_partitioner
from repro.graph.datasets import load_dataset
from repro.metrics.memory import analytic_state_bytes

SYSTEMS = ("2PS-L", "HDRF", "DBH", "Grid", "NE")
PAPER_CLASSES = {
    "2PS-L": "O(|V| * k)",
    "HDRF": "O(|V| * k)",
    "ADWISE": "O(|V| * k + b)",
    "DBH": "O(|V|)",
    "Grid": "O(1)",
    "NE": ">= O(|E|)",
}
ANALYTIC_KIND = {
    "2PS-L": "2ps-l",
    "HDRF": "hdrf",
    "DBH": "dbh",
    "Grid": "grid",
    "NE": "in-memory",
}


def _bytes(name: str, graph, k: int) -> int:
    return make_partitioner(name).partition(graph, k).state_bytes


def run(scale: float = 0.05, dataset: str = "OK") -> ExperimentResult:
    """Measure state bytes across (|V|, k) and compare with Table II."""
    small = load_dataset(dataset, scale=scale)
    large = load_dataset(dataset, scale=scale * 2)
    k_lo, k_hi = 8, 256
    rows = []
    for name in SYSTEMS:
        b_small = _bytes(name, small, k_lo)
        b_large = _bytes(name, large, k_lo)
        b_khi = _bytes(name, small, k_hi)
        rows.append(
            {
                "partitioner": name,
                "bytes(V,k=8)": b_small,
                "bytes(2V,k=8)": b_large,
                "bytes(V,k=256)": b_khi,
                "k_scaling_32x": round(b_khi / b_small, 2) if b_small else "-",
                "analytic_bytes": analytic_state_bytes(
                    ANALYTIC_KIND[name], small.n_vertices, small.n_edges, k_lo
                ),
                "paper_class": PAPER_CLASSES[name],
            }
        )
    return ExperimentResult(
        experiment="table2",
        title="Table II: space complexity (empirical validation)",
        rows=rows,
        paper_reference=(
            "2PS-L and HDRF O(|V|*k); DBH O(|V|); Grid O(1); in-memory >= O(|E|)"
        ),
        notes=(
            "k_scaling_32x well above 1 indicates O(|V|*k) replication "
            "state; exactly 1 indicates k-independent state."
        ),
    )
