"""E6 — the protocol family, side by side.

One workload, one failure schedule, five recovery layers:

- **pessimistic** — synchronous receiver-based logging (the industrial
  default the paper describes: localized recovery, highest overhead);
- **0-optimistic** — the K=0 end of this paper's spectrum (sender-side
  "log all delivered messages before sending");
- **K=N/2-optimistic** — a mid-spectrum point;
- **N-optimistic** — classical optimistic logging with the paper's three
  improvements;
- **Strom & Yemini** — classical optimistic logging without them;
- **fully asynchronous** — Section 2's decoupled protocol.

Run: ``python -m repro.experiments.comparison``
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.baselines import (
    FullyAsyncProcess,
    PessimisticProcess,
    StromYeminiProcess,
)
from repro.core.protocol import KOptimisticProcess
from repro.experiments.runner import DURATION, print_experiment, simulate
from repro.failures.injector import FailureSchedule
from repro.runtime.config import SimConfig
from repro.workloads.random_peers import RandomPeersWorkload


def run(n: int = 8, seed: int = 42, duration: float = DURATION,
        crash_pid: int = 1) -> List[Dict[str, object]]:
    failures = FailureSchedule.single(duration / 2, crash_pid)
    workload = RandomPeersWorkload(rate=0.8, min_hops=3, max_hops=8)
    variants = [
        ("pessimistic", 0, PessimisticProcess, False),
        ("K=0 optimistic", 0, KOptimisticProcess, False),
        (f"K={n // 2} optimistic", n // 2, KOptimisticProcess, False),
        (f"K={n} optimistic", n, KOptimisticProcess, False),
        ("strom-yemini", None, StromYeminiProcess, True),
        ("fully-async", None, FullyAsyncProcess, False),
    ]
    rows = []
    for name, k, protocol, fifo in variants:
        config = SimConfig(n=n, k=k, seed=seed, fifo=fifo, trace_enabled=False)
        metrics = simulate(config, workload, failures=failures,
                           protocol=protocol, duration=duration)
        rows.append({
            "protocol": name,
            "sync_w": metrics.sync_writes,
            "async_w": metrics.async_writes,
            "stor_cost": round(metrics.storage_cost, 1),
            "hold": round(metrics.mean_send_hold, 2),
            "pgb": round(metrics.mean_piggyback_entries, 2),
            "rollbacks": metrics.rollbacks,
            "procs_rb": metrics.processes_rolled_back,
            "undone": metrics.intervals_undone,
            "orphans": metrics.orphans_discarded,
            "outputs": metrics.outputs_committed,
        })
    return rows


def main() -> None:
    rows = run()
    print_experiment(
        "E6 - Protocol family comparison (N=8, random peers, one crash)",
        rows,
        notes="""
Expected shape: pessimistic logging pays roughly one synchronous stable-
storage write per delivery but confines every failure to the failed
process.  The optimistic protocols batch their writes (async_w) and pay at
recovery time instead; rollback scope and orphan counts grow with the
degree of optimism.  Strom & Yemini matches K=N recovery behaviour but
carries systematically larger vectors (no Theorem 2); the fully
asynchronous baseline is cheapest in failure-free coupling but spreads the
most orphans.
""",
    )


if __name__ == "__main__":
    main()
