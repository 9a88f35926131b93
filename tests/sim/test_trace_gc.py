"""Trace rows of atomic values stay out of the cyclic collector.

A run keeps tens of thousands of trace records that nothing reads while
it runs.  Each row is a flat tuple of atomic values, so the collector
untracks it and never walks it again.  A dict or object added to a row
would keep it tracked and would cost every later collection a walk over
the whole trace: this test names that regression instead of leaving it
to show up as benchmark drift.
"""

import gc

from repro.failures.injector import CrashEvent, FailureSchedule
from repro.runtime.config import SimConfig
from repro.runtime.harness import SimulationHarness
from repro.workloads.random_peers import RandomPeersWorkload

#: Categories recorded once per message or output: the bulk of a trace.
BULK = ("msg.", "net.", "output.")


def test_bulk_rows_are_untracked_after_collection():
    config = SimConfig(n=4, k=2, seed=11, drop_rate=0.05,
                       duplicate_rate=0.02, reorder_rate=0.05)
    workload = RandomPeersWorkload(rate=0.5, min_hops=2, max_hops=5)
    harness = SimulationHarness(
        config, workload.behavior(),
        failures=FailureSchedule([CrashEvent(60.0, 1), CrashEvent(90.0, 2)]))
    workload.install(harness, until=120.0)
    try:
        harness.run(150.0)
        bulk = [row for row in harness.tracer._rows
                if row[1].startswith(BULK)]
        assert len(bulk) > 500
        assert {row[1] for row in bulk} >= {
            "msg.release", "msg.deliver", "net.send", "net.drop",
            "output.commit"}
        gc.collect()
        gc.collect()
        tracked = [row for row in bulk if gc.is_tracked(row)]
        assert tracked == []
    finally:
        harness.close()
