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

from repro.core.baselines import FullyAsyncProcess, StromYeminiProcess
from repro.experiments.runner import DURATION, Sweep
from repro.failures.injector import FailureSchedule
from repro.workloads.random_peers import RandomPeersWorkload

# Moderate traffic: stability information must have time to propagate
# between a process's deliveries for Theorem 2 to have anything to omit.
E5A = Sweep(
    "E5a - Piggybacked vector size vs logging-progress notification period "
    "(N=8, K=N)",
    params=dict(n=8, periods=(2.5, 10.0, 40.0, 160.0, 640.0), seed=42,
                duration=2000.0),
    workload=RandomPeersWorkload(rate=0.15, min_hops=2, max_hops=4),
    rows=lambda p: [({"notify_period": period},
                     dict(n=p.n, seed=p.seed, notify_interval=period))
                    for period in p.periods],
    columns=("notify_period", "pgb_mean", "control_msgs", "out_lat"),
    notes="""
Fresher stability information means more Theorem-2 omissions: the mean
vector size falls well below N when notifications are frequent, and decays
toward full transitive tracking as they become rare.  The cost is control
traffic; out_lat shows the same freshness also speeds up output commit.
""",
)
PROTOCOLS = (
    ("k-optimistic (Thm 2)", {}),
    ("strom-yemini (size-N)", dict(protocol=StromYeminiProcess, fifo=True)),
    ("fully-async (per-inc)", dict(protocol=FullyAsyncProcess)),
)
# A mid-run crash makes multiple incarnations coexist, which is what
# separates per-incarnation tracking from single-entry tracking.
E5B = Sweep(
    "E5b - Vector size by protocol (same workload, N=8)",
    params=dict(n=8, seed=42, duration=DURATION),
    workload=RandomPeersWorkload(rate=0.8, min_hops=3, max_hops=8),
    failures=lambda p: FailureSchedule.single(p.duration / 2, 1),
    rows=lambda p: [({"protocol": name}, dict(run, n=p.n, seed=p.seed))
                    for name, run in PROTOCOLS],
    columns=("protocol", "pgb_mean", ("n", "n")),
    notes="""
Strom & Yemini carry (close to) one entry per process; the fully
asynchronous protocol of Section 2 carries one entry per *incarnation* and
can exceed N after failures; commit dependency tracking carries only
non-stable dependencies and stays smallest.
""",
)
run_notification_sweep = E5A.run
run_protocol_sweep = E5B.run


def main() -> None:
    for sweep in (E5A, E5B):
        sweep.main()


if __name__ == "__main__":
    main()
