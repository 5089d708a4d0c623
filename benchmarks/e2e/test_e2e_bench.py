"""Self-test of the end-to-end benchmark, at R-MAT scale 10."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from e2e import compare, workloads
from e2e import run as bench
from e2e import trace as tracing

SCALE = 10


def _contract() -> dict:
    return json.loads((bench.REPO / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_metric_tables():
    contract = _contract()
    assert contract["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in contract["workloads"]] == list(bench.WORKLOADS)
    for m in contract["end_to_end"]:
        unit, better, bound = bench.END_TO_END[m["name"]]
        assert (m["unit"], m["better"], m["bound"]) == (unit, better, bound)
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in contract["end_to_end"]
    )
    for m in contract["per_layer"]:
        assert (m["unit"], m["better"]) == bench.PER_LAYER[m["name"]]


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Every workload once, traced, at scale 10."""
    runs = {}
    for name, workload in workloads.WORKLOADS.items():
        ctx = workloads.RunContext(tmp_path_factory.mktemp(name), SCALE, 3, 0.0, 1)
        metrics, _ = workload.run(ctx)
        runs[name] = (metrics, ctx.checks, ctx.spans)
    return runs


def test_every_workload_reports_the_contract_metrics(traced_runs):
    contract = _contract()
    for name, (metrics, checks, spans) in traced_runs.items():
        assert checks.failed == 0, (name, checks.reasons)
        assert spans, name
        assert set(metrics) <= set(bench.END_TO_END) | set(bench.PER_LAYER)
        metrics = dict(metrics, failed_frac=0.0)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            line = bench.contract_line(metrics, trace, checks)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] and line["attempted"] > 0
            assert {n: v["unit"] for n, v in line["metrics"].items()} == {
                m["name"]: m["unit"] for m in contract[key]
            }
            assert all(np.isfinite(v["value"]) for v in line["metrics"].values())
        # the traced partition's self times add up to its span
        assert metrics["trace.reconcile_err"] < 0.01


def _run_cli(cwd, *args) -> subprocess.CompletedProcess:
    command = [sys.executable, "benchmarks/e2e/run.py", "--trace", "0", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=120)


def test_cli_prints_the_contract_line_last():
    args = ["--workload", "mem-dense", "--seed", "2", "--seconds", "0"]
    proc = _run_cli(bench.REPO, *args, "--scale", str(SCALE))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in _contract()["end_to_end"]]
    known = set(bench.END_TO_END) | set(bench.PER_LAYER)
    rows = [row.split() for row in proc.stdout.splitlines()]
    printed = {f[0]: f[-1] for f in rows if len(f) == 3 and f[0] in known}
    assert printed and all(unit == bench.unit_of(n) for n, unit in printed.items())
    for name, value in line["metrics"].items():
        assert printed[name] == value["unit"]


def test_cli_fails_without_the_package_sources(tmp_path):
    shutil.copy(bench.REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        bench.HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run_cli(tmp_path, "--workload", "serve", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _span(sid, start, end, parent=None, pid=1, name="s"):
    return tracing.Span(sid, name, "layer", start, end, parent, "run", pid)


def test_self_time_is_duration_minus_union_of_children():
    spans = [
        _span(1, 0, 100),
        _span(2, 10, 40, parent=1),
        _span(3, 30, 60, parent=1),  # overlaps span 2: union 10..60
        _span(4, 15, 20, parent=2),
        _span(5, 90, 120, parent=1),  # clipped to 90..100
        _span(6, 0, 50, parent=1, pid=2),  # another process's span 1
    ]
    own = tracing.self_times(spans)
    assert own[(1, 1)] == 100 - 50 - 10
    assert own[(1, 2)] == 30 - 5
    assert own[(1, 3)] == 30
    assert own[(1, 4)] == 5
    assert own[(1, 5)] == 30
    assert own[(2, 6)] == 50
    nested = [
        _span(1, 0, 100),
        _span(2, 10, 40, 1),
        _span(3, 50, 70, 1),
        _span(4, 12, 30, 2),
    ]
    assert sum(tracing.self_times(nested).values()) == 100
    table = tracing.summarize(nested)
    assert table["s"]["calls"] == 4
    assert table["s"]["self_s"] == pytest.approx(100e-9)


def test_corrupted_assignments_count_as_failed(tmp_path, monkeypatch):
    class Corrupting(workloads.TwoPhasePartitioner):
        def _run(self, stream, k, alpha):
            result = super()._run(stream, k, alpha)
            result.assignments[0] = (result.assignments[0] + 1) % k
            return result

    monkeypatch.setattr(workloads, "TwoPhasePartitioner", Corrupting)
    ctx = workloads.RunContext(tmp_path, SCALE, 1, 0.0, 0)
    workloads.WORKLOADS["mem-dense"].run(ctx)
    checks = ctx.checks
    assert checks.failed >= workloads.WORKLOADS["mem-dense"].min_reps
    assert checks.failed / checks.attempted > 0
    assert any("bincount" in reason for reason in checks.reasons)


def test_uninstall_restores_the_original_callables():
    import repro.core.parallel as parallel
    import repro.core.partitioner as sequential
    from repro.graph.generators import rmat_graph
    from repro.serving import LookupService, PartitionStore
    from repro.streaming.stream import InMemoryEdgeStream

    partitioner = workloads._sharded("simulated")
    backend = workloads.get_backend(None)
    stream = InMemoryEdgeStream(rmat_graph(8, 4, seed=1))
    namespaces = (sequential, parallel, PartitionStore, LookupService)
    before = [dict(vars(ns)) for ns in namespaces]
    tracer = tracing.Tracer("test")
    tracing.install(tracer, backend=backend, stream=stream, partitioner=partitioner)
    assert "degree_pass" in vars(backend) and "chunks" in vars(stream)
    assert "open" in vars(partitioner.runner)
    partitioner.partition(stream, 4)
    assert {s.layer for s in tracer.spans} >= {"core", "kernels", "runners"}
    tracer.uninstall()
    for method in tracing.KERNEL_METHODS:
        assert method not in vars(backend)
    assert "chunks" not in vars(stream)
    assert "partition" not in vars(partitioner)
    assert "open" not in vars(partitioner.runner)
    after = [dict(vars(ns)) for ns in namespaces]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[key] is value for key, value in old.items())


@pytest.mark.parametrize(
    "parent, change, word",
    [
        ([100.0] * 10, [120.0] * 10, "improved"),
        ([100.0] * 10, [70.0] * 10, "regressed"),
        ([100.0] * 10, [85.0] * 10, "within bound"),
        ([60.0, 140.0] * 5, [100.0, 101.0] * 5, "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, word):
    assert compare.verdict("ops_per_s", parent, change)[1] == word


def test_compare_flags_any_change_of_an_exact_metric():
    _, word = compare.verdict("replication_factor", [5.0] * 3, [5.0001] * 3)
    assert word == "regressed"


def test_compare_prints_one_row_per_workload_and_metric(tmp_path):
    for side, value in (("parent", 100.0), ("change", 70.0)):
        for i in range(3):
            record = {
                "workload": "mem-dense",
                "time_ns": i,
                "metrics": {"ops_per_s": {"value": value + i, "unit": "1/s"}},
            }
            (tmp_path / side).mkdir(exist_ok=True)
            (tmp_path / side / f"{i}.json").write_text(json.dumps(record))
    header, row = compare.compare(tmp_path / "parent", tmp_path / "change")
    assert row.split()[:3] == ["mem-dense", "ops_per_s", "1/s"]
    assert row.endswith("regressed")
