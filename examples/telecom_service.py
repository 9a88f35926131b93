"""The paper's motivating scenario: a telecom switch fabric.

"A telecommunications system needs to choose a parameter to control the
overhead so that it can be responsive during normal operation, and also
control the rollback scope so that it can recover reasonably fast upon a
failure."

This example runs the same call-routing + billing workload under three
operating points — pessimistic (the industry default the paper cites),
mid-spectrum K-optimistic, and fully optimistic — injects the same switch
failure into each, and prints the service-quality scorecard an operator
would look at:

- call-setup responsiveness (message hold time),
- storage-synchronization load,
- billing latency (output commit),
- blast radius of the switch failure.

Run:  python examples/telecom_service.py
"""

from repro.core.baselines import PessimisticProcess
from repro.core.protocol import KOptimisticProcess
from repro.failures.injector import FailureSchedule
from repro.runtime.config import SimConfig
from repro.runtime.harness import SimulationHarness
from repro.workloads.telecom import TelecomWorkload

N = 8
DURATION = 900.0


def run_operating_point(name, k, protocol=KOptimisticProcess):
    config = SimConfig(n=N, k=k, seed=21)
    workload = TelecomWorkload(rate=1.2)
    harness = SimulationHarness(
        config,
        workload.behavior(),
        failures=FailureSchedule.single(DURATION / 2, pid=3),
        protocol=protocol,
    )
    workload.install(harness, until=DURATION * 0.8)
    harness.run(DURATION)
    metrics = harness.metrics()
    assert not metrics.violations, metrics.violations
    return name, metrics


def main() -> None:
    points = [
        run_operating_point("pessimistic (industry default)", 0,
                            PessimisticProcess),
        run_operating_point("K=2 optimistic", 2),
        run_operating_point(f"K={N} fully optimistic", N),
    ]

    print(f"{'operating point':34} {'hold':>6} {'sync_w':>7} "
          f"{'bill_lat':>9} {'procs_rb':>9} {'undone':>7} {'bills':>6}")
    print("-" * 78)
    for name, m in points:
        print(f"{name:34} {m.mean_send_hold:6.2f} {m.sync_writes:7d} "
              f"{m.mean_output_latency:9.2f} {m.processes_rolled_back:9d} "
              f"{m.intervals_undone:7d} {m.outputs_committed:6d}")

    print("""
Reading the scorecard:
 * pessimistic: every delivery costs a synchronous disk write (sync_w ~ one
   per routed call leg), but the switch failure stays contained — no other
   switch rolls back, and billing latency is minimal.
 * K=8: zero added call-setup latency and ~10x fewer synchronous writes,
   but the failure ripples: several switches roll back and re-route.
 * K=2 sits between them — this is the fine-grained knob the paper
   proposes, chosen per release as features consume the capacity headroom.
Billing records are outputs (0-optimistic): the oracle verified none was
ever revoked, in all three configurations.""")


if __name__ == "__main__":
    main()
