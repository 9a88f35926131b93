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

from repro.core.baselines import (FullyAsyncProcess, PessimisticProcess,
                                  StromYeminiProcess)
from repro.experiments.runner import DURATION, Sweep
from repro.failures.injector import FailureSchedule
from repro.workloads.random_peers import RandomPeersWorkload


def _protocols(n):
    return (("pessimistic", dict(k=0, protocol=PessimisticProcess)),
            ("K=0 optimistic", dict(k=0)),
            (f"K={n // 2} optimistic", dict(k=n // 2)),
            (f"K={n} optimistic", dict(k=n)),
            ("strom-yemini", dict(protocol=StromYeminiProcess, fifo=True)),
            ("fully-async", dict(protocol=FullyAsyncProcess)))


SWEEP = Sweep(
    "E6 - Protocol family comparison (N=8, random peers, one crash)",
    params=dict(n=8, seed=42, duration=DURATION, crash_pid=1),
    workload=RandomPeersWorkload(rate=0.8, min_hops=3, max_hops=8),
    failures=lambda p: FailureSchedule.single(p.duration / 2, p.crash_pid),
    rows=lambda p: [({"protocol": name}, dict(run, n=p.n, seed=p.seed))
                    for name, run in _protocols(p.n)],
    columns=("protocol", "sync_w", "async_w", ("stor_cost", "storage_cost", 1),
             "hold", "pgb", "rollbacks", "procs_rb", "undone", "orphans",
             "outputs"),
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
run = SWEEP.run
main = SWEEP.main

if __name__ == "__main__":
    main()
