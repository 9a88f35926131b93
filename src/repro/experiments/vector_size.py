"""E5 — commit dependency tracking shrinks the vector (Theorem 2).

The paper's core technical result: "dependencies on stable state intervals
are redundant and can be omitted", so the piggybacked vector carries only
non-stable dependencies and its size no longer scales with N.  Two sweeps
demonstrate it:

1. **notification period** — the fresher the stability information, the
   smaller the vector (and the closer the protocol gets to the minimum);
2. **protocol** — Strom & Yemini's size-N tracking vs the improved
   protocol vs the fully asynchronous per-incarnation tracking, on the
   same workload.

Run: ``python -m repro.experiments.vector_size``
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.baselines import FullyAsyncProcess, StromYeminiProcess
from repro.core.protocol import KOptimisticProcess
from repro.experiments.runner import DURATION, print_experiment, simulate
from repro.failures.injector import FailureSchedule
from repro.runtime.config import SimConfig
from repro.workloads.random_peers import RandomPeersWorkload


def run_notification_sweep(
    n: int = 8,
    periods: Sequence[float] = (2.5, 10.0, 40.0, 160.0, 640.0),
    seed: int = 42,
    duration: float = 2000.0,
) -> List[Dict[str, object]]:
    # Moderate traffic: stability information must have time to propagate
    # between a process's deliveries for Theorem 2 to have anything to omit.
    rows = []
    for period in periods:
        config = SimConfig(n=n, k=None, seed=seed, notify_interval=period,
                           trace_enabled=False)
        metrics = simulate(config, RandomPeersWorkload(rate=0.15, min_hops=2,
                                                       max_hops=4),
                           duration=duration)
        rows.append({
            "notify_period": period,
            "pgb_mean": round(metrics.mean_piggyback_entries, 3),
            "control_msgs": metrics.control_messages,
            "out_lat": round(metrics.mean_output_latency, 2),
        })
    return rows


def run_protocol_sweep(
    n: int = 8,
    seed: int = 42,
    duration: float = DURATION,
) -> List[Dict[str, object]]:
    # A mid-run crash makes multiple incarnations coexist, which is what
    # separates per-incarnation tracking from single-entry tracking.
    failures = FailureSchedule.single(duration / 2, 1)
    workload = RandomPeersWorkload(rate=0.8, min_hops=3, max_hops=8)
    variants = [
        ("k-optimistic (Thm 2)", None, KOptimisticProcess, False),
        ("strom-yemini (size-N)", None, StromYeminiProcess, True),
        ("fully-async (per-inc)", None, FullyAsyncProcess, False),
    ]
    rows = []
    for name, k, protocol, fifo in variants:
        config = SimConfig(n=n, k=k, seed=seed, fifo=fifo, trace_enabled=False)
        metrics = simulate(config, workload, protocol=protocol,
                           failures=failures, duration=duration)
        rows.append({
            "protocol": name,
            "pgb_mean": round(metrics.mean_piggyback_entries, 3),
            "n": n,
        })
    return rows


def main() -> None:
    print_experiment(
        "E5a - Piggybacked vector size vs logging-progress notification period "
        "(N=8, K=N)",
        run_notification_sweep(),
        notes="""
Fresher stability information means more Theorem-2 omissions: the mean
vector size falls well below N when notifications are frequent, and decays
toward full transitive tracking as they become rare.  The cost is control
traffic; out_lat shows the same freshness also speeds up output commit.
""",
    )
    print_experiment(
        "E5b - Vector size by protocol (same workload, N=8)",
        run_protocol_sweep(),
        notes="""
Strom & Yemini carry (close to) one entry per process; the fully
asynchronous protocol of Section 2 carries one entry per *incarnation* and
can exceed N after failures; commit dependency tracking carries only
non-stable dependencies and stays smallest.
""",
    )


if __name__ == "__main__":
    main()
