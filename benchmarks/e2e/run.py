"""End-to-end benchmark of the 2PS-L pipeline, layer by layer.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 1
    python3 benchmarks/e2e/run.py --workload mem-dense --seed 1 --seconds 10 --trace 0

Without ``--workload`` every workload runs in its own fresh subprocess.
A run sets up its inputs from ``--seed``, times a closed loop of
operations for at least ``--seconds`` seconds (and at least the
workload's minimum count), checks every output, and prints each metric
by name with its unit.  Timings are reported at a reference CPU speed
(see ``cpuspeed.py``).  ``--trace 1`` adds one traced repetition after
the timed ones and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metrics in it are the
``end_to_end`` (``--trace 0``) or ``per_layer`` (``--trace 1``) lists of
``BENCHMARK.json``.  The exit status is non-zero when any check failed.

``--out DIR`` writes every metric of the run as JSON into ``DIR`` (the
input of ``compare.py``); ``--spans DIR`` writes the traced repetition's
spans as JSONL.  ``--scale`` shrinks the graphs (the self-test uses 10).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
# Import the benchmark's modules as the ``e2e`` package (its own
# ``trace.py`` must not shadow the standard library's ``trace``).
if sys.path and Path(sys.path[0]).resolve() == HERE:
    sys.path[0] = str(HERE.parent)
elif str(HERE.parent) not in sys.path:
    sys.path.insert(0, str(HERE.parent))

WORKLOADS = ("mem-dense", "file-packed", "sharded-2w", "serve")

#: End-to-end metrics: name -> (unit, better, bound).  The bound is the
#: share of the parent's median by which the metric may get worse before
#: a change counts as a regression.  Timings get 25% because, even at
#: the reference CPU speed, the ten-seed spread of ``ops_per_s`` is about
#: 0.1 on ``mem-dense`` (set by the graphs) and host noise remains
#: (README.md, "Timings are at a reference CPU speed").
END_TO_END = {
    "ops_per_s": ("1/s", "higher", 0.25),
    "edges_per_s": ("edges/s", "higher", 0.25),
    "replication_factor": ("ratio", "lower", 0.15),
    "balance_alpha": ("ratio", "lower", 0.05),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "setup_s": ("s", "lower", 0.25),
    "failed_frac": ("ratio", "lower", 0.0),
    "lookup_p50_us": ("us", "lower", 0.25),
    "edge_lookup_p50_us": ("us", "lower", 0.25),
    "batched_lookups_per_s": ("lookups/s", "higher", 0.25),
}

#: Metrics that must not move at all between two commits run on the
#: same seeds (their bound above only covers the spread across seeds).
EXACT = frozenset({"replication_factor", "balance_alpha", "failed_frac"})

#: Per-layer metrics: name -> (unit, better).  Not gated.
PER_LAYER = {
    "graph.input_s": ("s", "lower"),
    "host.slowdown": ("ratio", "lower"),
    "kernels.degree_s": ("s", "lower"),
    "kernels.clustering_s": ("s", "lower"),
    "kernels.prepartition_s": ("s", "lower"),
    "kernels.remaining_s": ("s", "lower"),
    "kernels.merge_s": ("s", "lower"),
    "streaming.wait_s": ("s", "lower"),
    "streaming.edges": ("count", "lower"),
    "core.mapping_s": ("s", "lower"),
    "core.driver_self_s": ("s", "lower"),
    "core.partition_s": ("s", "lower"),
    "core.clusters": ("count", "lower"),
    "runners.open_s": ("s", "lower"),
    "runners.phase1_s": ("s", "lower"),
    "runners.bind_s": ("s", "lower"),
    "runners.prepartition_s": ("s", "lower"),
    "runners.remaining_s": ("s", "lower"),
    "runners.close_s": ("s", "lower"),
    "runners.syncs": ("count", "lower"),
    "runners.phase1_syncs": ("count", "lower"),
    "runners.barrier_cells_ratio": ("ratio", "lower"),
    "runners.worker_peak_rss_mb": ("MB", "lower"),
    "serving.write_s": ("s", "lower"),
    "serving.open_s": ("s", "lower"),
    "serving.verify_s": ("s", "lower"),
    "serving.batch_s": ("s", "lower"),
    "serving.cache_hit_ratio": ("ratio", "higher"),
    "serving.lookup_p99_us": ("us", "lower"),
    "kernels.remaining_edges": ("count", "lower"),
    "kernels.prepartition_ratio": ("ratio", "higher"),
    "kernels.score_evaluations": ("count", "lower"),
    "kernels.hash_evaluations": ("count", "lower"),
    "state.replica_bytes": ("bytes", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.reconcile_err": ("ratio", "lower"),
}


def stop_resource_tracker(timeout: float = 10.0) -> None:
    """Stop the ``multiprocessing`` resource tracker, if this process
    started one (the process runner does), and wait until it has exited.

    Left alone, the tracker outlives the run by a second or more.  It is
    killed if it does not stop within ``timeout`` seconds.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    pid = tracker._pid
    if pid is None:
        return
    stopper = threading.Thread(target=tracker._stop, daemon=True)
    stopper.start()
    stopper.join(timeout)
    if stopper.is_alive():
        os.kill(pid, signal.SIGKILL)
        stopper.join()


def unit_of(name: str) -> str:
    return (END_TO_END.get(name) or PER_LAYER[name])[0]


def load_contract() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def contract_line(metrics: dict, trace: int, checks) -> dict:
    """The last output line: the ``BENCHMARK.json`` metrics of this mode."""
    listed = load_contract()["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in listed]
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit_of(name)}
            for name in names
        },
    }


def format_metrics(metrics: dict) -> str:
    lines = []
    for title, table in (("end-to-end", END_TO_END), ("per-layer", PER_LAYER)):
        rows = [name for name in table if name in metrics]
        if rows:
            lines.append(title)
            lines.extend(
                f"  {name:<30} {metrics[name]:>18.6f} {unit_of(name)}"
                for name in rows
            )
    return "\n".join(lines)


def run_one(args) -> int:
    src = REPO / "src"
    if not (src / "repro").is_dir():
        print(f"benchmark needs the package sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from e2e.cpuspeed import Timed

    with Timed() as imported:
        from e2e import trace as tracing
        from e2e import workloads

    workload = workloads.WORKLOADS[args.workload]
    scratch = REPO / ".e2e_work"
    work = scratch / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = workloads.RunContext(work, args.scale, args.seed, args.seconds, args.trace)
    try:
        metrics, samples = workload.run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    checks, spans = ctx.checks, ctx.spans
    metrics["setup_s"] += imported.at_reference
    metrics["failed_frac"] = checks.failed / checks.attempted

    print(
        f"== {args.workload}  seed={args.seed}  scale={args.scale}  "
        f"trace={args.trace}"
    )
    print(format_metrics(metrics))
    if spans:
        print(tracing.format_table(tracing.summarize(spans)))
    for reason in checks.reasons:
        print(f"CHECK FAILED: {reason}")
    tag = f"{args.workload}-seed{args.seed}"
    if args.spans and spans:
        Path(args.spans).mkdir(parents=True, exist_ok=True)
        tracing.write_jsonl(spans, Path(args.spans) / f"{tag}.jsonl")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stamp = time.time_ns()
        record = {
            "workload": args.workload,
            "time_ns": stamp,
            "seed": args.seed,
            "scale": args.scale,
            "trace": args.trace,
            "seconds": args.seconds,
            "correct": checks.failed == 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "reasons": checks.reasons,
            "metrics": {
                name: {"value": float(value), "unit": unit_of(name)}
                for name, value in metrics.items()
            },
            "samples": samples,
        }
        path = out / f"{tag}-trace{args.trace}-{stamp}.json"
        path.write_text(json.dumps(record, indent=1))
    print(json.dumps(contract_line(metrics, args.trace, checks)))
    return 0 if checks.failed == 0 else 1


def run_all(argv: list[str]) -> int:
    """Every workload in a fresh subprocess; sums their checks."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), *argv, "--workload", name]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            total["correct"] = False
            continue
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="measured seconds per run (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=16, help="R-MAT scale")
    parser.add_argument("--out", help="directory for the run's JSON record")
    parser.add_argument("--spans", help="directory for the traced spans (JSONL)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_contract()["run_seconds"]
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    if args.workload is None:
        return run_all(argv)
    try:
        return run_one(args)
    finally:
        stop_resource_tracker()


if __name__ == "__main__":
    sys.exit(main())
