"""Table III: the dataset inventory — paper graphs vs synthetic stand-ins.

Reports, for every dataset of the paper (plus WI from Table IV), the
original |V| / |E| / type next to the stand-in actually used in this
reproduction, including measured structural properties (max degree,
intra-community edge fraction where a planted structure exists).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.graph.datasets import DATASETS, load_dataset


def run(scale: float = 1.0) -> ExperimentResult:
    """Build the dataset mapping table."""
    rows = []
    for spec in DATASETS.values():
        graph = load_dataset(spec.name, scale=scale)
        degrees = graph.degrees
        rows.append(
            {
                "name": spec.name,
                "full_name": spec.full_name,
                "type": spec.kind,
                "paper_V": spec.paper_vertices,
                "paper_E": spec.paper_edges,
                "standin_V": graph.n_vertices,
                "standin_E": graph.n_edges,
                "max_degree": int(degrees.max()),
                "mean_degree": round(float(degrees.mean()), 1),
                "degree_skew": round(
                    float(degrees.max()) / max(float(degrees.mean()), 1e-9), 1
                ),
            }
        )
    return ExperimentResult(
        experiment="table3",
        title=f"Table III: datasets (paper vs stand-in, scale={scale})",
        rows=rows,
        paper_reference="OK 3.1M/117M ... WDC 1.7B/64B (binary edge lists)",
        notes=(
            "Stand-ins preserve the structural class (power-law social vs "
            "clusterable web), not absolute size; see DESIGN.md section 3."
        ),
    )
