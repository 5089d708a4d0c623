"""Figure 2: 2PS-L vs HDRF vs DBH on OK across partition counts.

Paper claims reproduced here:

- (a) replication factor: 2PS-L lowest at every k, HDRF in the middle,
  DBH worst (and DBH misses the balance constraint — alpha annotation);
- (b) run-time: DBH flat and fastest; HDRF grows ~linearly with k;
  2PS-L flat in k (the headline linear-run-time claim) and far below HDRF
  at large k.

Run-time shape is asserted on the machine-neutral operation-count model
(``model_s``); wall-clock is reported alongside.
"""

from __future__ import annotations

from repro.experiments.common import (
    FIGURE2_PARTITIONERS,
    ExperimentResult,
    run_one,
)

DEFAULT_KS = (4, 32, 128, 256)


def run(scale: float = 1.0, ks=DEFAULT_KS, dataset: str = "OK") -> ExperimentResult:
    """Sweep k for the three partitioners on the OK stand-in."""
    rows = []
    for k in ks:
        for name in FIGURE2_PARTITIONERS:
            rows.append(run_one(name, dataset, k, scale=scale))
    return ExperimentResult(
        experiment="figure2",
        title=f"Figure 2: RF and run-time on {dataset} (scale={scale})",
        rows=rows,
        paper_reference=(
            "at k=256 on OK: HDRF >5 min, DBH 7 s, 2PS-L 21 s; RF(2PS-L) < "
            "RF(HDRF) < RF(DBH) with DBH at alpha=1.26"
        ),
        notes=(
            "Run-time shape claims hold on model_s (operation counts); "
            "2PS-L model_s is flat in k while HDRF grows linearly."
        ),
    )
