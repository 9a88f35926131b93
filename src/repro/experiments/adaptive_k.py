"""E15 — adaptive-K control vs static K under open-loop heavy traffic.

Section 4.2 licenses per-message K; :mod:`repro.control` turns that into
a runtime control loop.  This experiment quantifies what the loop buys:
one scenario (open-loop heavy-tailed arrivals with diurnal modulation
and burst episodes, two mid-run crash clusters) is run once with the
controller on, and once per static K point — **same seed, same arrival
schedule, same failure schedule** — so every difference in the table is
attributable to the K policy alone.

Reported per policy: output-commit latency percentiles (end-to-end,
injection to commit), SLO attainment, revoked intervals (the optimism
cost), and the controller's decision trace summary.  The headline claim
is the trade-off escape: a static K must pick one point on the
latency/revocation curve for the whole run, while the controller rides
the front — full optimism while the system is healthy, pessimistic
retreat during the crash cluster — and lands better p99 latency at no
higher revocation count than the best static point.

Run: ``python -m repro.experiments.adaptive_k``
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import print_experiment
from repro.failures.injector import CrashEvent, FailureSchedule
from repro.runtime.config import SimConfig
from repro.runtime.harness import SimulationHarness
from repro.runtime.metrics import RunMetrics
from repro.workloads.openloop import OpenLoopWorkload

N = 16
#: The K the run declares: the controller's ceiling.
K_CEILING = 8
#: Static K points swept against the controller.
STATIC_KS: Sequence[int] = (0, 1, 2, 4, K_CEILING)
DURATION = 600.0
#: ``(fraction of the duration, pid)``.  Two clusters of closely spaced
#: crashes: a reactive controller cannot dodge the first crash of a
#: cluster, but the retreat it triggers shields the rest of the cluster —
#: the regime where adaptive K beats every static point.
CRASHES: Sequence[Tuple[float, int]] = (
    (0.35, 3), (0.38, 9), (0.41, 13), (0.44, 5),
    (0.68, 12), (0.71, 2), (0.74, 7))


def build(scale: float = 1.0, static_k: Optional[int] = None,
          **overrides: Any) -> Tuple[SimulationHarness, float]:
    """A ready-to-run harness for the scenario and its duration: the
    controller under ``K_CEILING``, or a fixed ``static_k`` in its place.
    ``overrides`` replace ``SimConfig`` fields (``seed``, ``dep_trace``)."""
    duration = max(DURATION * scale, 40.0)
    fields: Dict[str, Any] = dict(
        n=N, k=K_CEILING, seed=7, retransmit_window=32,
        slo_output_latency=90.0)
    if static_k is None:
        fields.update(adaptive_k=True, k_max=K_CEILING, control_interval=10.0)
    else:
        fields["k"] = static_k
    fields.update(overrides)
    workload = OpenLoopWorkload(rate=1.2)
    harness = SimulationHarness(
        SimConfig(**fields), workload.behavior(),
        failures=FailureSchedule(
            [CrashEvent(duration * fraction, pid)
             for fraction, pid in CRASHES]))
    workload.install(harness, until=duration * 0.8)
    return harness, duration


def _run(scale: float, static_k: Optional[int] = None) -> RunMetrics:
    harness, duration = build(scale, static_k)
    try:
        harness.run(duration)
        return harness.metrics()
    finally:
        harness.close()


def _row(policy: str, metrics: RunMetrics) -> Dict[str, object]:
    row: Dict[str, object] = {
        "policy": policy,
        "outputs": metrics.outputs_committed,
        "p50": round(metrics.output_latency_p50, 2),
        "p95": round(metrics.output_latency_p95, 2),
        "p99": round(metrics.output_latency_p99, 2),
        "slo_attained": round(metrics.slo_attained, 4),
        "revoked": metrics.rolled_back_intervals,
        "out_discard": metrics.outputs_discarded,
        "violations": len(metrics.violations),
    }
    if metrics.adaptive_k:
        row["k_mean"] = round(metrics.k_mean, 2)
        row["k_decisions"] = metrics.k_decisions
    return row


def run_sweep(scale: float = 1.0,
              static_ks: Sequence[int] = STATIC_KS) -> List[Dict[str, object]]:
    """The controller and every static point on one arrival schedule."""
    rows = [_row("adaptive", _run(scale))]
    for k in static_ks:
        rows.append(_row(f"static K={k}", _run(scale, k)))
    return rows


def best_static(rows: List[Dict[str, object]]) -> Optional[Dict[str, object]]:
    """The static row with the lowest p99 (ties broken by revocations)."""
    static = [r for r in rows if str(r["policy"]).startswith("static")]
    if not static:
        return None
    return min(static, key=lambda r: (float(r["p99"]), int(r["revoked"])))


def main(scale: float = 1.0) -> None:
    rows = run_sweep(scale)
    print_experiment(
        "E15 - Adaptive-K controller vs static K "
        "(open-loop heavy traffic + crash cluster; identical arrival and "
        "failure schedules)",
        rows,
        notes="""
The controller starts fully optimistic, collapses K multiplicatively
when the crash cluster produces revocation evidence, and climbs back
once the system is healthy again.  A static K pays for the whole run
what the controller only pays during the storm: low static K holds
latency hostage in the healthy phase, high static K inflates revoked
work during the cluster.  All runs are oracle-checked (violations
column); the per-message K path keeps every receiver correct while K
moves (Theorem 2 / Section 4.2).
""",
    )
    champion = best_static(rows)
    if champion is not None:
        adaptive = rows[0]
        print(f"best static: {champion['policy']} "
              f"(p99={champion['p99']}, revoked={champion['revoked']}) | "
              f"adaptive: p99={adaptive['p99']}, "
              f"revoked={adaptive['revoked']}")


if __name__ == "__main__":
    main()
