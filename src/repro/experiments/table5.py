"""Table V: partitioning time from different storage devices.

The paper drops the page cache between streaming passes and measures
2PS-L's end-to-end partitioning time reading from page cache, SSD
(938 MB/s) and HDD (158 MB/s).  Result: SSD costs +7-40 %, HDD +54-308 %,
with web graphs penalized more (higher pre-partitioning share means I/O is
a larger fraction of their total).

Reproduction: each stand-in is serialized to the paper's binary edge-list
format and streamed through :class:`~repro.streaming.stream.FileEdgeStream`
charged against the simulated device.  Total time = operation-count model
(compute) + simulated read seconds (I/O); the reported percentages are the
device slowdown relative to the page-cache run.
"""

from __future__ import annotations

import os
import tempfile

from repro.core import TwoPhasePartitioner
from repro.experiments.common import ExperimentResult
from repro.graph.datasets import load_dataset
from repro.graph.formats import write_binary_edge_list
from repro.storage import hdd_device, page_cache_device, ssd_device
from repro.streaming import FileEdgeStream

DEFAULT_DATASETS = ("OK", "IT", "TW", "FR", "UK", "GSH", "WDC")

#: The paper's measured slowdowns for side-by-side reading.
PAPER_SLOWDOWNS = {
    "OK": {"ssd": 0.22, "hdd": 1.59},
    "IT": {"ssd": 0.40, "hdd": 3.08},
    "TW": {"ssd": 0.12, "hdd": 0.93},
    "FR": {"ssd": 0.07, "hdd": 0.54},
    "UK": {"ssd": 0.34, "hdd": 2.85},
    "GSH": {"ssd": 0.13, "hdd": 2.00},
    "WDC": {"ssd": 0.14, "hdd": 2.14},
}

DEVICE_FACTORIES = {
    "page-cache": page_cache_device,
    "ssd": ssd_device,
    "hdd": hdd_device,
}


def _run_device(path: str, n_vertices: int, device, k: int) -> tuple[float, float]:
    """One full 2PS-L run from ``path`` on ``device``; returns (compute, io)."""
    stream = FileEdgeStream(path, n_vertices=n_vertices, device=device)
    result = TwoPhasePartitioner().partition(stream, k)
    return result.model_seconds(), stream.stats.simulated_read_seconds


def run(
    scale: float = 0.25, datasets=DEFAULT_DATASETS, k: int = 32
) -> ExperimentResult:
    """Compare page-cache / SSD / HDD partitioning time per dataset."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for dataset in datasets:
            graph = load_dataset(dataset, scale=scale)
            path = os.path.join(tmp, f"{dataset}.bin")
            write_binary_edge_list(graph, path)
            totals = {}
            for device_name, factory in DEVICE_FACTORIES.items():
                compute_s, io_s = _run_device(
                    path, graph.n_vertices, factory(), k
                )
                totals[device_name] = compute_s + io_s
            base = totals["page-cache"]
            paper = PAPER_SLOWDOWNS.get(dataset, {})
            rows.append(
                {
                    "dataset": dataset,
                    "page_cache_s": round(base, 4),
                    "ssd_s": round(totals["ssd"], 4),
                    "ssd_slowdown": round(totals["ssd"] / base - 1.0, 3),
                    "hdd_s": round(totals["hdd"], 4),
                    "hdd_slowdown": round(totals["hdd"] / base - 1.0, 3),
                    "paper_ssd_slowdown": paper.get("ssd"),
                    "paper_hdd_slowdown": paper.get("hdd"),
                }
            )
    return ExperimentResult(
        experiment="table5",
        title=f"Table V: partitioning time by storage device (k={k})",
        rows=rows,
        paper_reference=(
            "SSD +7-40 %, HDD +54-308 % over page cache; web graphs hit harder"
        ),
        notes=(
            "Compute = operation-count model; I/O = simulated device read "
            "time over the real binary edge-list byte counts (5 passes: "
            "degree, clustering, pre-partition, remaining + re-check)."
        ),
    )
