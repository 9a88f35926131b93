"""E13 — the protocol on an unreliable network.

The paper assumes reliable channels (footnote 3 scopes out lost
in-transit messages; recovery announcements use reliable broadcast).
This experiment drops both assumptions and shows that the guarantees
survive on top of the ack/retransmit layer:

- **E13a** sweeps message loss from 1% to 10% (with duplication and
  reordering alongside) and reports the repair traffic: timer-driven
  retransmissions of messages and of announcement copies, duplicates
  suppressed.  Every run is oracle-checked — Theorem 4 holds at every
  release and no committed output is ever revoked.
- **E13b** runs the acceptance scenario: 5% loss, one crash, one
  partition.  It asserts that the run is violation-free, that every
  enqueued output eventually commits, and that the same seed yields
  bit-identical traces across two runs (the fault model draws from
  named RNG streams, so injected faults are deterministic too).

Run: ``python -m repro.experiments.unreliable``
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.experiments.runner import print_experiment, simulate
from repro.failures.injector import (
    CrashEvent,
    FailureSchedule,
    HealEvent,
    PartitionEvent,
)
from repro.runtime.config import SimConfig
from repro.runtime.harness import SimulationHarness
from repro.runtime.metrics import RunMetrics
from repro.workloads.random_peers import RandomPeersWorkload
from repro.workloads.telecom import TelecomWorkload

#: E13 runs shorter than the default horizon: retransmission timers add
#: events, and the shapes show up well before 1200 time units.
DURATION = 600.0


def run_loss_sweep(
    n: int = 6,
    k: int = 2,
    loss_rates: Sequence[float] = (0.0, 0.01, 0.02, 0.05, 0.10),
    seed: int = 42,
    duration: float = DURATION,
) -> List[Dict[str, object]]:
    """Message loss vs repair traffic (duplication/reordering ride along)."""
    rows = []
    for loss in loss_rates:
        config = SimConfig(
            n=n, k=k, seed=seed,
            drop_rate=loss,
            duplicate_rate=loss / 2,
            reorder_rate=loss,
            trace_enabled=False,
        )
        metrics = simulate(config, RandomPeersWorkload(rate=0.6, min_hops=2,
                                                       max_hops=6),
                           duration=duration)
        rows.append({
            "loss": loss,
            "delivered": metrics.messages_delivered,
            "drops": metrics.app_drops + metrics.control_drops,
            "rexmit": metrics.timer_retransmissions,
            "acks": metrics.acks_received,
            "ctl_rexmit": metrics.ctl_retransmits,
            "dups_dropped": metrics.duplicates_dropped,
            "budget_exh": (metrics.retransmit_budget_exhausted
                           + metrics.ctl_budget_exhausted),
        })
    return rows


def _acceptance_harness(seed: int, duration: float) -> SimulationHarness:
    config = SimConfig(
        n=6, k=2, seed=seed,
        drop_rate=0.05, duplicate_rate=0.02, reorder_rate=0.05,
        trace_enabled=True,
        check_invariants=True,
    )
    schedule = FailureSchedule([
        CrashEvent(duration * 0.4, 1),
        PartitionEvent(duration * 0.6, ((4, 5),)),
        HealEvent(duration * 0.75),
    ])
    workload = TelecomWorkload(rate=0.8)
    harness = SimulationHarness(config, workload.behavior(),
                                failures=schedule)
    workload.install(harness, until=duration * 0.8)
    return harness


def run_safety_check(
    seed: int = 7, duration: float = DURATION
) -> Tuple[RunMetrics, bool]:
    """The acceptance scenario: 5% loss + crash + partition.

    Returns the metrics of the first run and whether a second run with
    the same seed produced a bit-identical trace.  Raises if the oracle
    found a violation or any enqueued output failed to commit.
    """
    first = _acceptance_harness(seed, duration)
    first.run(duration)
    metrics = first.metrics()
    if metrics.violations:
        raise AssertionError(
            f"invariant violations under loss: {metrics.violations[:3]}"
        )
    if metrics.outputs_pending:
        raise AssertionError(
            f"{metrics.outputs_pending} outputs never committed"
        )
    second = _acceptance_harness(seed, duration)
    second.run(duration)
    deterministic = first.tracer.events == second.tracer.events
    if not deterministic:
        raise AssertionError("same seed produced diverging traces")
    return metrics, deterministic


def main() -> None:
    print_experiment(
        "E13a - Repair traffic vs message loss rate (N=6, K=2, "
        "random peers; duplication and reordering enabled)",
        run_loss_sweep(),
        notes="""
Retransmissions and suppressed duplicates grow with the loss rate while
delivery stays near the loss-free count: the ack/retransmit layer turns
an unreliable network back into the reliable one the paper assumes.
budget_exh > 0 would flag a message abandoned past its retry budget.
""",
    )
    metrics, deterministic = run_safety_check()
    print_experiment(
        "E13b - Acceptance: 5% loss + crash + partition (telecom, "
        "oracle-checked)",
        [{
            "delivered": metrics.messages_delivered,
            "outputs": metrics.outputs_committed,
            "outputs_pending": metrics.outputs_pending,
            "rollbacks": metrics.rollbacks,
            "partition_time": round(metrics.partition_time, 1),
            "part_drops": metrics.partition_drops,
            "rexmit": metrics.timer_retransmissions,
            "ctl_rexmit": metrics.ctl_retransmits,
            "violations": len(metrics.violations),
            "deterministic": deterministic,
        }],
        notes="""
Every enqueued output committed, no invariant was violated, and the run
is bit-for-bit reproducible: the same seed drives workload, latencies,
faults, and partitions alike.
""",
    )


if __name__ == "__main__":
    main()
