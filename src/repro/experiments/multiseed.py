"""Multi-seed robustness pass over the headline tradeoff (E3/E4).

Single-seed tables can mislead; this experiment repeats the K sweep over
several seeds and reports mean +/- 95% confidence intervals for the two
headline quantities — failure-free hold time and post-crash rollback
scope — verifying that the paper's shape claims are not seed artifacts.

Run: ``python -m repro.experiments.multiseed`` (slower than the others).
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.stats import is_monotone, summarize
from repro.experiments.runner import Sweep
from repro.failures.injector import FailureSchedule
from repro.workloads.random_peers import RandomPeersWorkload

DURATION = 800.0


def mean_ci(name: str):
    """A column of ``name``'s mean +/- 95% CI over the row's seeds."""
    def column(*runs):
        return str(summarize([getattr(m, name) for m in runs]))
    return column


SWEEP = Sweep(
    "E3/E4 robustness - K sweep over 5 seeds (mean +/- 95% CI)",
    params=dict(n=6, ks=(0, 2, 4, 6), seeds=(1, 2, 3, 4, 5)),
    duration=DURATION,
    workload=RandomPeersWorkload(rate=0.6, min_hops=3, max_hops=8),
    failures=lambda p: FailureSchedule.single(p.duration / 2, 1),
    rows=lambda p: [({"K": k, "seeds": len(p.seeds)},
                     *[dict(n=p.n, k=k, seed=seed) for seed in p.seeds])
                    for k in p.ks],
    columns=("K", ("hold", mean_ci("mean_send_hold")),
             ("undone", mean_ci("intervals_undone")),
             ("procs_rb", mean_ci("processes_rolled_back")), "seeds"),
)
run = SWEEP.run


def check_shapes(rows: List[Dict[str, object]]) -> List[str]:
    """The mean curves must still show the paper's shape.

    Neighbouring K values can be statistically indistinguishable (their
    confidence intervals overlap), so monotonicity is checked with a
    tolerance of 20% of each curve's range — enough to absorb sampling
    noise, far too small to mask a reversed trend.
    """
    holds = [float(str(r["hold"]).split(" ")[0]) for r in rows]
    undone = [float(str(r["undone"]).split(" ")[0]) for r in rows]
    problems = []
    hold_tol = 0.2 * (max(holds) - min(holds)) if holds else 0.0
    undone_tol = 0.2 * (max(undone) - min(undone)) if undone else 0.0
    if not is_monotone(holds, decreasing=True, tolerance=hold_tol):
        problems.append(f"hold not decreasing in K: {holds}")
    if not is_monotone(undone, tolerance=undone_tol):
        problems.append(f"rollback scope not increasing in K: {undone}")
    if holds and holds[0] <= holds[-1]:
        problems.append(f"hold endpoints reversed: {holds}")
    if undone and undone[-1] <= undone[0]:
        problems.append(f"rollback endpoints reversed: {undone}")
    return problems


def main() -> None:
    problems = check_shapes(SWEEP.main())
    print("shape check:", problems or "both curves monotone in the mean")


if __name__ == "__main__":
    main()
