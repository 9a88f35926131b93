"""The whole zoo on one workload: six recovery schemes, one crash.

Runs the logging schemes in the repository side by side on the same
random-peers traffic with the same mid-run crash, every one on the
simulation harness with the inline certifier, and prints a live version of
the docs/FAMILIES.md table.  (Direct dependency tracking is excluded here
and measured in experiment E9: its recovery cascade needs its own scale.)

Run:  python examples/compare_families.py   (~1 second)
"""

from repro.core.baselines import (
    FullyAsyncProcess,
    PessimisticProcess,
    SenderBasedProcess,
    StromYeminiProcess,
)
from repro.core.protocol import KOptimisticProcess
from repro.failures.injector import FailureSchedule
from repro.runtime.config import SimConfig
from repro.runtime.harness import SimulationHarness
from repro.workloads.random_peers import RandomPeersWorkload

N = 4
DURATION = 400.0
CRASH = FailureSchedule.single(DURATION / 2, 1)


def run_logging(name, protocol=KOptimisticProcess, k=None, fifo=False):
    config = SimConfig(n=N, k=k, seed=11, fifo=fifo, trace_enabled=False)
    wl = RandomPeersWorkload(rate=0.3, min_hops=2, max_hops=4,
                             output_fraction=0.0)
    harness = SimulationHarness(config, wl.behavior(), failures=CRASH,
                                protocol=protocol)
    wl.install(harness, until=DURATION * 0.8)
    harness.run(DURATION)
    m = harness.metrics()
    assert not m.violations, (name, m.violations[:2])
    return (name, f"{m.mean_piggyback_entries:.1f}", m.sync_writes,
            f"{m.mean_send_hold:.1f}", m.processes_rolled_back,
            m.intervals_undone)


def main() -> None:
    rows = [
        run_logging("K=2 optimistic (the paper)", k=2),
        run_logging("K=N optimistic", k=N),
        run_logging("receiver-based pessimistic", PessimisticProcess, k=0),
        run_logging("sender-based pessimistic", SenderBasedProcess, k=0),
        run_logging("Strom-Yemini", StromYeminiProcess, fifo=True),
        run_logging("fully asynchronous", FullyAsyncProcess),
    ]
    header = (f"{'scheme':30} {'pgb':>6} {'writes':>7} {'latency':>8} "
              f"{'procs_rb':>9} {'undone':>7}")
    print(header)
    print("-" * len(header))
    for name, pgb, writes, latency, procs, undone in rows:
        print(f"{name:30} {pgb:>6} {writes:>7} {latency:>8} "
              f"{procs:>9} {undone:>7}")
    print("""
Columns: pgb = mean piggybacked entries; writes = sync stable-storage ops;
latency = mean per-message send hold; procs_rb = processes rolled back by
the crash; undone = intervals undone by rollbacks.  See docs/FAMILIES.md
for the reading guide.""")


if __name__ == "__main__":
    main()
