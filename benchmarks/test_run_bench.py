"""Tests of ``run_bench``'s timing routine: interleaved rounds, and ratio
gates read as the median of their per-round ratios.

The runs here are fakes that record their calls and report fixed
seconds, so nothing is timed and every outcome is deterministic.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from run_bench import (
    interleaved_rounds,
    partition_run,
    ratio_gate,
    round_ratio,
)

from repro.core import TwoPhasePartitioner
from repro.graph import Graph
from repro.streaming import InMemoryEdgeStream


def fake_runs(seconds, calls=None, results=None):
    """``{name: run}`` whose runs append their name to ``calls`` and
    report ``seconds[name][r]`` as ``total`` in round ``r``; each
    returns ``results.get(name, "same")`` as its result."""
    calls = [] if calls is None else calls
    results = results or {}

    def make(name):
        rounds = iter(seconds[name])

        def run():
            calls.append(name)
            return results.get(name, "same"), {"total": next(rounds)}

        return run

    return {name: make(name) for name in seconds}


def gate_on(base, subject, threshold, **kwargs):
    _, times = interleaved_rounds(
        "test", fake_runs({"base": base, "subject": subject}), len(base)
    )
    return ratio_gate("test", times, "base", "subject", "total", threshold, **kwargs)


def test_run_order_reverses_every_other_round():
    calls = []
    runs = fake_runs({name: [1.0] * 4 for name in "abc"}, calls)
    interleaved_rounds("test", runs, 4)
    assert "".join(calls) == "abccbaabccba"


def test_times_are_kept_in_round_order():
    runs = fake_runs({"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0]})
    results, times = interleaved_rounds("test", runs, 3)
    assert results == {"a": "same", "b": "same"}
    assert [t["total"] for t in times["a"]] == [1.0, 2.0, 3.0]
    assert [t["total"] for t in times["b"]] == [4.0, 5.0, 6.0]


def test_gate_reads_the_median_of_round_ratios():
    # Best of the runs per side would read 1 / 1 = 1.0x.
    gate = gate_on([1.0, 4.0, 2.0], [1.0, 1.0, 1.0], 2.0)
    assert gate["round_ratios"] == [1.0, 4.0, 2.0]
    assert gate["ratio"] == 2.0
    assert gate["seconds"] == {"base": 2.0, "subject": 1.0}
    assert gate["pass"] is True and gate["enforced"] is True


def test_gate_fails_when_the_median_misses_though_one_round_clears():
    gate = gate_on([1.0, 4.0, 1.5], [1.0, 1.0, 1.0], 2.0)
    assert max(gate["round_ratios"]) >= 2.0
    assert gate["ratio"] == 1.5
    assert gate["pass"] is False


def test_at_most_gate_caps_the_median():
    assert gate_on([1.2, 1.4, 1.0], [1.0] * 3, 1.3, at_most=True)["pass"] is True
    assert gate_on([1.4, 1.2, 1.5], [1.0] * 3, 1.3, at_most=True)["pass"] is False


def test_skipped_gate_is_recorded_but_not_enforced():
    gate = gate_on([1.0] * 3, [2.0] * 3, 2.0, skip="one CPU")
    assert gate["ratio"] == 0.5
    assert gate["pass"] is None and gate["enforced"] is False
    assert gate["skipped_reason"] == "one CPU"


def test_ratio_of_summed_timings():
    times = {
        "base": [{"x": 1.0, "y": 3.0}] * 3,
        "subject": [{"x": 1.0, "y": 1.0}] * 3,
    }
    assert round_ratio(times, "base", "subject", ("x", "y"))["ratio"] == 2.0


def test_a_result_that_differs_from_the_first_run_raises():
    runs = fake_runs({"a": [1.0] * 3, "b": [1.0] * 3}, results={"b": "other"})
    with pytest.raises(SystemExit, match="b in round 1"):
        interleaved_rounds("test", runs, 3)


def test_a_result_that_differs_in_a_later_round_raises():
    outcomes = iter(["same", "same", "same", "drifted"])

    def drifting():
        return next(outcomes), {"total": 1.0}

    runs = {"a": drifting, "b": drifting}
    with pytest.raises(SystemExit, match="in round 2"):
        interleaved_rounds("test", runs, 3)


def test_expected_results_replace_the_first_run():
    seconds = {"a": [1.0] * 3, "b": [1.0] * 3}
    runs = fake_runs(seconds, results={"b": "b's own"})
    interleaved_rounds("test", runs, 3, expected={"b": "b's own"})
    with pytest.raises(SystemExit, match="equality gate failed: test: b"):
        interleaved_rounds(
            "test", fake_runs(seconds), 3, expected={"b": "something else"}
        )


def test_partition_runs_are_compared_bit_for_bit():
    graph = Graph(np.random.default_rng(5).integers(0, 40, size=(300, 2)), 40)
    stream = InMemoryEdgeStream(graph)
    args = SimpleNamespace(k=4, alpha=1.05)
    runs = {
        layout: partition_run(
            lambda p=layout == "packed": TwoPhasePartitioner(
                backend="python", packed_state=p
            ),
            stream,
            args,
        )
        for layout in ("dense", "packed")
    }
    results, times = interleaved_rounds("test", runs, 3)
    np.testing.assert_array_equal(
        results["dense"].assignments, results["packed"].assignments
    )
    assert list(times["packed"][0]) == [
        "total",
        "degree",
        "clustering",
        "mapping",
        "prepartition",
        "partitioning",
    ]
    other_k = SimpleNamespace(k=5, alpha=1.05)
    runs["k5"] = partition_run(TwoPhasePartitioner, stream, other_k)
    with pytest.raises(SystemExit, match="k5 in round 1"):
        interleaved_rounds("test", runs, 1)
