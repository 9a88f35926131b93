"""Compare two result files of ``run.py --all --json``.

    python3 bench/compare.py OLD.json NEW.json

prints one row per workload and end-to-end metric: each side's median with
its minimum and maximum, the change, and a verdict against the metric's
bound in ``BENCHMARK.json``:

- ``regression``  the new median is worse than the old by more than the bound;
- ``unresolved``  either side's spread between quartiles, as a share of its
  median, exceeds the bound, so the runs cannot tell (unless every new run
  is better than every old run);
- ``better``      every new run is better than every old run;
- ``ok``          otherwise.

Exits 1 when any row is a regression.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(old: List[float], new: List[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if max(sign * v for v in new) < min(sign * v for v in old):
        return "better"
    if max(spread(old), spread(new)) > bound:
        return "unresolved"
    old_median = statistics.median(old)
    worsening = sign * (statistics.median(new) - old_median) / abs(old_median)
    return "regression" if worsening > bound else "ok"


def compare(old: Dict[str, Dict[str, List[float]]],
            new: Dict[str, Dict[str, List[float]]],
            end_to_end: List[Dict[str, object]]) -> List[List[str]]:
    rows = []
    for workload in old:
        if workload not in new:
            continue
        for metric in end_to_end:
            name = str(metric["name"])
            a, b = old[workload].get(name), new[workload].get(name)
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            rows.append([
                workload, name, str(metric["unit"]),
                f"{med_a:.6g} [{min(a):.6g}, {max(a):.6g}]",
                f"{med_b:.6g} [{min(b):.6g}, {max(b):.6g}]",
                f"{(med_b - med_a) / abs(med_a):+.1%}",
                f"{float(metric['bound']):.0%}",
                verdict(a, b, str(metric["better"]), float(metric["bound"])),
            ])
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in args:
        with open(path, encoding="utf-8") as fh:
            documents.append(json.load(fh))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    header = ["workload", "metric", "unit", "old median [min, max]",
              "new median [min, max]", "change", "bound", "verdict"]
    rows = compare(documents[0], documents[1], end_to_end)
    widths = [max(len(row[i]) for row in [header] + rows)
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    return 1 if any(row[-1] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
