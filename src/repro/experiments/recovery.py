"""E4 — recovery cost as a function of the degree of optimism K.

The other side of the paper's tradeoff: "given any message m in a
K-optimistic logging system, K is the maximum number of processes whose
failures can revoke m" — so a failure in a high-K system can revoke more
state.  We inject the *same* crash (same process, same time, same
workload) into runs that differ only in K and report the rollback scope:

- ``rollbacks``   non-failed processes' Rollback executions,
- ``procs_rb``    distinct processes rolled back,
- ``undone``      state intervals undone at non-failed processes,
- ``lost``        intervals lost at the failed process itself,
- ``orphans``     orphan messages discarded anywhere,
- ``requeued``    logged messages re-delivered in a new incarnation,
- ``span``        time from the crash to the last induced rollback.

Run: ``python -m repro.experiments.recovery``
"""

from repro.experiments.runner import DURATION, Sweep
from repro.failures.injector import CrashEvent, FailureSchedule
from repro.workloads.random_peers import RandomPeersWorkload

SWEEP = Sweep(
    "E4 - Recovery cost vs degree of optimism K "
    "(N=8, random peers, one crash of P1 mid-run)",
    params=dict(n=8, ks=None, seed=42, crash_time=DURATION / 2, crash_pid=1,
                duration=DURATION, extra_crashes=()),
    workload=RandomPeersWorkload(rate=0.8, min_hops=3, max_hops=8),
    failures=lambda p: FailureSchedule(
        [CrashEvent(p.crash_time, p.crash_pid), *p.extra_crashes]),
    rows=lambda p: [({}, dict(n=p.n, k=k, seed=p.seed)) for k in
                    (p.ks if p.ks is not None else [0, 1, 2, 4, 6, p.n])],
    columns=("K", "rollbacks", "procs_rb", "undone", "lost", "orphans",
             ("requeued", "messages_requeued"),
             ("span", "mean_recovery_span", 2), "hold"),
    notes="""
Expected shape: at K=0 recovery is fully localized (no other process rolls
back, no orphans); rollback scope, orphan counts, and the failure's blast
radius grow with K.  The last column shows the price paid for that
localization in failure-free hold time - the two sides of the knob.
""",
)
run = SWEEP.run
main = SWEEP.main

if __name__ == "__main__":
    main()
