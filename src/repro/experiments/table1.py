"""Table I: time-complexity comparison — validated empirically.

The paper's Table I states asymptotic classes.  We *measure* them: for the
main streaming systems we fit how the operation count grows (a) in |E| at
fixed k and (b) in k at fixed |E|.  A partitioner is O(|E|) iff doubling
|E| doubles its operations and growing k leaves them flat; O(|E| * k) iff
operations also scale with k.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, make_partitioner
from repro.graph.datasets import load_dataset

SYSTEMS = ("2PS-L", "HDRF", "DBH", "Greedy")
PAPER_CLASSES = {
    "2PS-L": "O(|E|)",
    "HDRF": "O(|E| * k)",
    "DBH": "O(|E|)",
    "Greedy": "O(|E| * k)",
    "ADWISE": "O(|E| * k)",
    "Grid": "O(|E|)",
}


def _ops(name: str, graph, k: int) -> int:
    result = make_partitioner(name).partition(graph, k)
    return result.cost.total_operations()


def run(scale: float = 0.1, dataset: str = "OK") -> ExperimentResult:
    """Measure operation-count scaling in |E| and in k."""
    small = load_dataset(dataset, scale=scale)
    large = load_dataset(dataset, scale=scale * 2)
    k_lo, k_hi = 8, 64
    rows = []
    for name in SYSTEMS:
        ops_small = _ops(name, small, k_lo)
        ops_large = _ops(name, large, k_lo)
        ops_klo = ops_small
        ops_khi = _ops(name, small, k_hi)
        edge_scaling = ops_large / ops_small  # ~2 if linear in |E|
        k_scaling = ops_khi / ops_klo  # ~1 if independent of k, ~8 if O(k)
        measured = (
            "O(|E|)"
            if k_scaling < 2.0
            else "O(|E| * k)"
        )
        rows.append(
            {
                "partitioner": name,
                "ops_at_|E|": ops_small,
                "ops_at_2|E|": ops_large,
                "edge_scaling": round(edge_scaling, 2),
                "k_scaling_8x": round(k_scaling, 2),
                "measured_class": measured,
                "paper_class": PAPER_CLASSES[name],
                "match": measured == PAPER_CLASSES[name],
            }
        )
    return ExperimentResult(
        experiment="table1",
        title="Table I: time complexity (empirical validation)",
        rows=rows,
        paper_reference=(
            "2PS-L O(|E|); HDRF/ADWISE O(|E|*k); DBH/Grid O(|E|); "
            "in-memory partitioners higher"
        ),
        notes=(
            "edge_scaling ~2 means linear in |E|; k_scaling_8x ~1 means "
            "independent of k, ~8 means linear in k."
        ),
    )
