"""A long-running scientific computation with rare failures.

The paper's other motivating application class: "for long-running
scientific applications, the primary performance measure is typically the
total execution time.  Since hardware failures are rare events in most
systems, minimizing failure-free overhead is more important than improving
recovery efficiency.  Therefore, optimistic logging is usually a better
choice."

This example runs a staged computation pipeline twice — once under
pessimistic logging and once under N-optimistic logging — with one rare
failure, and compares total overhead: storage-synchronization cost paid
on *every* item versus recovery work paid *once*.

Run:  python examples/scientific_pipeline.py
"""

from repro.core.baselines import PessimisticProcess
from repro.core.protocol import KOptimisticProcess
from repro.failures.injector import FailureSchedule
from repro.runtime.config import ASYNC_WRITE_COST, SYNC_WRITE_COST, SimConfig
from repro.runtime.harness import SimulationHarness
from repro.workloads.pipeline import PipelineWorkload

N = 6
DURATION = 1500.0


def run(name, protocol=KOptimisticProcess, k=None):
    # The storage_cost column prices writes at the default constants.
    config = SimConfig(n=N, k=k, seed=33)
    workload = PipelineWorkload(rate=1.0)
    harness = SimulationHarness(
        config,
        workload.behavior(),
        failures=FailureSchedule.single(DURATION / 2, pid=2),
        protocol=protocol,
    )
    workload.install(harness, until=DURATION * 0.8)
    harness.run(DURATION)
    metrics = harness.metrics()
    assert not metrics.violations
    return name, metrics


def main() -> None:
    runs = [
        run("pessimistic", protocol=PessimisticProcess, k=0),
        run("optimistic (K=N)", k=N),
    ]
    print(f"{'configuration':20} {'items':>6} {'sync_w':>7} {'async_w':>8} "
          f"{'storage_cost':>13} {'redone':>7}")
    print("-" * 68)
    for name, m in runs:
        redone = m.intervals_undone + m.messages_requeued
        print(f"{name:20} {m.outputs_committed:6d} {m.sync_writes:7d} "
              f"{m.async_writes:8d} {m.storage_cost:13.1f} {redone:7d}")

    pess = runs[0][1]
    opt = runs[1][1]
    saving = pess.storage_cost - opt.storage_cost
    print(f"""
Total-execution-time view (storage cost model: sync={SYNC_WRITE_COST}, \
async={ASYNC_WRITE_COST}):
 * optimistic logging saved {saving:.0f} cost units of synchronous storage
   traffic over the whole run;
 * the one failure cost it {opt.intervals_undone} undone intervals and
   {opt.messages_requeued} re-deliveries — work that is re-executed once.
With failures rare, the per-item saving dominates: exactly why the paper
recommends the optimistic end of the spectrum for this workload class.""")


if __name__ == "__main__":
    main()
