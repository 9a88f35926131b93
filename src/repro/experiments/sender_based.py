"""E12 — three ways to be pessimistic (reference [1] vs K=0).

The paper's introduction: "Pessimistic logging either synchronously logs
each message upon receiving it, or logs all delivered messages before
sending a message."  Reference [1] (Borg et al.) is the third classic
discipline: log at the *sender*, in volatile memory, with an RSN ack
round-trip instead of a disk write.

All three guarantee that no failure ever revokes a message; they pay for
it in different currencies:

- **receiver-based sync** — one synchronous disk write per delivery;
- **K=0-optimistic** (this paper's 0 end) — messages held until their
  dependencies are known stable (flush + notification lag);
- **sender-based** — an ack and a confirmation per app message, and a
  send held for that round-trip.

All three run on one harness with the inline certifier, and every row
reads the same metrics.

Run: ``python -m repro.experiments.sender_based``
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.baselines import PessimisticProcess, SenderBasedProcess
from repro.core.protocol import KOptimisticProcess
from repro.experiments.runner import print_experiment, simulate
from repro.failures.injector import FailureSchedule
from repro.runtime.config import SimConfig
from repro.workloads.random_peers import RandomPeersWorkload

DURATION = 800.0

DISCIPLINES = (
    ("receiver-based sync", PessimisticProcess),
    ("K=0 optimistic", KOptimisticProcess),
    ("sender-based (ref [1])", SenderBasedProcess),
)


def run(n: int = 6, seed: int = 42, duration: float = DURATION,
        crash_pid: int = 1) -> List[Dict[str, object]]:
    failures = FailureSchedule.single(duration / 2, crash_pid)
    rows = []
    for name, protocol in DISCIPLINES:
        m = simulate(
            SimConfig(n=n, k=0, seed=seed, trace_enabled=False),
            RandomPeersWorkload(rate=0.6, min_hops=3, max_hops=8,
                                output_fraction=0.0),
            failures=failures, protocol=protocol, duration=duration)
        rows.append({
            "discipline": name,
            "sync_w": m.sync_writes,
            "ctl_msgs": m.control_messages,
            "latency_cost": round(m.mean_send_hold, 2),
            "procs_rb": m.processes_rolled_back,
            "lost": m.intervals_lost,
            "revokers": m.max_release_revokers,
        })
    return rows


def main() -> None:
    rows = run()
    print_experiment(
        "E12 - Three pessimistic disciplines (N=6, one crash; "
        "latency_cost = mean send hold)",
        rows,
        notes="""
Same guarantee, three different bills.  Receiver-based sync pays a disk
write per delivery but adds no message latency; K=0-optimistic batches its
writes and pays in hold time governed by the stability lag (A6); the
sender-based scheme of reference [1] pays neither - it pays an ack and a
confirmation per app message and holds each send for that round-trip (two
control latencies).  All three keep every failure local to the failed
process: no other process rolls back and no message leaves with a
potential revoker.  K=0 loses the failed process's unflushed intervals,
whose sends were still held; the other two replay every interval.  The
paper's K generalizes the *second* discipline because it is the one with a
tunable risk budget.
""",
    )


if __name__ == "__main__":
    main()
