"""E9 — direct vs transitive dependency tracking (Section 5 related work).

"Direct dependency tracking techniques piggyback only the sender's current
state interval index, and so are in general more scalable.  The tradeoff
is that, at the time of output commit and recovery, the system needs to
assemble direct dependencies to obtain transitive dependencies."

Measured here: the piggyback saving (exactly one entry per message) against
the recovery-time price — cascaded rollback announcements and repeated
rollback rounds, since orphanhood can only be discovered one dependency hop
per announcement.  Commit dependency tracking (this paper) sits in
between: transitive information, but only its non-stable part.

The workload emits no outputs: output commit under direct tracking needs a
closure-assembly sub-protocol that is out of scope (see
``core/baselines/direct.py``).

Run: ``python -m repro.experiments.direct_tracking``
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.baselines import DirectDependencyProcess, StromYeminiProcess
from repro.core.protocol import KOptimisticProcess
from repro.experiments.runner import print_experiment, simulate
from repro.failures.injector import FailureSchedule
from repro.runtime.config import SimConfig
from repro.workloads.random_peers import RandomPeersWorkload

DURATION = 400.0


def run(n: int = 4, seed: int = 1) -> List[Dict[str, object]]:
    # Deliberately small: direct tracking's recovery cascade grows so fast
    # with scale and load that larger configurations take minutes of
    # announcement ping-pong to quiesce — which is itself the measured
    # point (transitive tracking recovers in one round).
    workload = RandomPeersWorkload(rate=0.3, min_hops=2, max_hops=4,
                                   output_fraction=0.0)
    failures = FailureSchedule.single(DURATION / 2, 1)
    variants = [
        ("direct (1 entry/msg)", DirectDependencyProcess, False),
        ("transitive, commit-dep (K=N)", KOptimisticProcess, False),
        ("transitive, size-N (S&Y)", StromYeminiProcess, True),
    ]
    rows = []
    for name, protocol, fifo in variants:
        config = SimConfig(n=n, k=None, seed=seed, fifo=fifo,
                           trace_enabled=False)
        metrics = simulate(config, workload, failures=failures,
                           protocol=protocol, duration=DURATION)
        rows.append({
            "scheme": name,
            "pgb": round(metrics.mean_piggyback_entries, 2),
            "rollbacks": metrics.rollbacks,
            "undone": metrics.intervals_undone,
            "orphans": metrics.orphans_discarded,
            "control_msgs": metrics.control_messages,
            "span": round(metrics.mean_recovery_span, 1),
        })
    return rows


def main() -> None:
    rows = run()
    print_experiment(
        "E9 - Direct vs transitive dependency tracking "
        "(N=4, one crash, output-free workload)",
        rows,
        notes="""
Direct tracking achieves the minimum piggyback (exactly 1 entry) but pays
at recovery: orphan elimination cascades announcement by announcement, so
one crash triggers an order of magnitude more rollbacks, undone intervals
and recovery traffic than transitive tracking, and recovery takes longer
to quiesce.  Commit dependency tracking keeps transitive one-shot recovery
while shrinking the vector toward the direct scheme's size - the middle
ground this paper contributes.
""",
    )


if __name__ == "__main__":
    main()
