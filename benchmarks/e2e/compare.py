"""Compare two sets of end-to-end benchmark runs (parent vs change).

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the run JSONs ``run.py --out DIR`` wrote.  For every
workload x metric the table shows each side's median and quartiles, the
share of pairs the change wins (runs paired in the order they were made;
ties count for neither side) and a verdict:

- ``improved``: the change wins at least nine tenths of the pairs and its
  median beats the parent's by more than the parent's own quartile
  spread;
- ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound (by any amount for exact metrics);
- ``unresolved``: the parent's quartile spread is wider than the bound,
  and not every change run beats every parent run;
- ``within bound``: otherwise.

Per-layer metrics have no bound; they get ``improved`` or ``-``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE.parent) not in sys.path:
    sys.path.insert(0, str(HERE.parent))

from e2e.run import END_TO_END, EXACT, PER_LAYER, unit_of  # noqa: E402


def load_runs(directory) -> dict[str, list[dict]]:
    """Workload -> run records in the order they were made."""
    records = [json.loads(p.read_text()) for p in Path(directory).glob("*.json")]
    runs: dict[str, list[dict]] = {}
    for record in sorted(records, key=lambda r: r["time_ns"]):
        runs.setdefault(record["workload"], []).append(record)
    return runs


def values(runs: list[dict], name: str) -> list[float]:
    """``name``'s value in each run that reports it."""
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def quartiles(side: list[float]) -> tuple[float, float, float]:
    if len(side) < 2:
        return side[0], side[0], side[0]
    q1, _, q3 = statistics.quantiles(side, n=4)
    return q1, statistics.median(side), q3


def verdict(name: str, parent: list[float], change: list[float]) -> tuple[float, str]:
    """``(share of pairs the change wins, verdict)`` for one metric."""
    better = (END_TO_END.get(name) or PER_LAYER[name])[1]
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (cm - pm)
    if share >= 0.9 and gain > p3 - p1:
        return share, "improved"
    if name not in END_TO_END:
        return share, "-"
    bound = 0.0 if name in EXACT else END_TO_END[name][2]
    if -gain > bound * abs(pm):
        return share, "regressed"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if p3 - p1 > bound * abs(pm) and not all_better:
        return share, "unresolved"
    return share, "within bound"


def compare(parent_dir, change_dir) -> list[str]:
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    rows = [
        f"{'workload':<12} {'metric':<30} {'unit':<9} "
        f"{'parent median [q1, q3]':<40} {'change median [q1, q3]':<40} "
        f"{'wins':>5}  verdict"
    ]
    for workload in sorted(set(parent_runs) & set(change_runs)):
        for name in (*END_TO_END, *PER_LAYER):
            parent = values(parent_runs[workload], name)
            change = values(change_runs[workload], name)
            if not parent or not change:
                continue
            share, word = verdict(name, parent, change)
            unit = unit_of(name)
            cells = []
            for side in (parent, change):
                q1, med, q3 = quartiles(side)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(side)}")
            rows.append(
                f"{workload:<12} {name:<30} {unit:<9} {cells[0]:<40} "
                f"{cells[1]:<40} {share:>5.2f}  {word}"
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="directory of the parent's run JSONs")
    parser.add_argument("change", help="directory of the change's run JSONs")
    args = parser.parse_args(argv)
    rows = compare(args.parent, args.change)
    print("\n".join(rows))
    return 1 if any(row.endswith("regressed") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
