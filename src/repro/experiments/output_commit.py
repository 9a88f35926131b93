"""E7 — output commit latency (the telecom scenario).

Outputs are 0-optimistic messages (Section 4.2): they are released only
when *every* dependency entry is NULL, whatever K the system runs with.
The experiment runs the telecom workload (calls routed through switch
chains, a billing record emitted at the egress switch) and reports, per K
and per notification period, how long billing records wait before they may
be shown to the outside world.

Run: ``python -m repro.experiments.output_commit``
"""

from repro.experiments.runner import DURATION, Sweep
from repro.failures.injector import FailureSchedule
from repro.workloads.telecom import TelecomWorkload

E7A = Sweep(
    "E7a - Output commit latency vs K (N=8, telecom calls + billing)",
    params=dict(n=8, ks=None, seed=42, duration=DURATION),
    workload=TelecomWorkload(rate=1.0),
    rows=lambda p: [({}, dict(n=p.n, k=k, seed=p.seed)) for k in
                    (p.ks if p.ks is not None else [0, 2, 4, p.n])],
    columns=("K", "outputs", "out_lat", "hold"),
    notes="""
Outputs are always 0-optimistic, so their commit latency is governed by
stability propagation, not by K; low-K systems even see *lower* output
latency because incoming messages arrive pre-stabilized.  What K buys is
the message hold column - the service's responsiveness.
""",
)
E7B = Sweep(
    "E7b - Output commit latency vs notification period",
    params=dict(n=8, periods=(5.0, 20.0, 80.0), seed=42, duration=DURATION),
    workload=TelecomWorkload(rate=1.0),
    rows=lambda p: [({"notify_period": period},
                     dict(n=p.n, seed=p.seed, notify_interval=period))
                    for period in p.periods],
    columns=("notify_period", "out_lat", "outputs"),
    notes="Fresher logging-progress notifications commit outputs sooner.",
)
# With crashes: outputs still commit, and none is ever revoked (the
# oracle inside the runner enforces it).
E7C = Sweep(
    "E7c - Billing records under failures (oracle-checked: none revoked)",
    params=dict(n=8, seed=42, duration=DURATION),
    workload=TelecomWorkload(rate=1.0),
    failures=lambda p: FailureSchedule.single(p.duration / 2, 2),
    rows=lambda p: [({}, dict(n=p.n, k=k, seed=p.seed)) for k in (0, p.n)],
    columns=("K", "outputs", ("outputs_discarded", "outputs_discarded"),
             ("crashes", "crashes"), "rollbacks"),
)
run_k_sweep = E7A.run
run_notification_sweep = E7B.run
run_crash_safety = E7C.run


def main() -> None:
    for sweep in (E7A, E7B, E7C):
        sweep.main()


if __name__ == "__main__":
    main()
