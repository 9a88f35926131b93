"""Small behaviours not covered elsewhere: introspection, repr formats,
scale sanity."""

from repro.core.entry import Entry
from repro.core.tables import EntrySetTable
from helpers import deliver_env, make_proc


class TestIntrospection:
    def test_stable_interval_tracks_flush(self):
        proc = make_proc()
        deliver_env(proc)
        deliver_env(proc)
        # The own row of the log table: only the initial checkpoint ...
        assert proc.log.lookup(proc.pid, 0) == 1
        proc.flush()
        # ... until the flush makes both deliveries stable.
        assert proc.log.lookup(proc.pid, 0) == 3

    def test_repr_mentions_k_and_current(self):
        proc = make_proc(pid=2, k=3)
        text = repr(proc)
        assert "P2" in text and "K=3" in text and "(0,1)" in text

    def test_table_repr(self):
        table = EntrySetTable(3)
        table.insert(1, Entry(0, 4))
        assert "P1" in repr(table)
        assert "(0,4)" in repr(table)


class TestScaleSanity:
    def test_thirty_two_processes(self):
        # A quick guard against accidental O(N^2)-per-event blowups.
        from repro.runtime.config import SimConfig
        from repro.runtime.harness import SimulationHarness
        from repro.workloads.random_peers import RandomPeersWorkload

        config = SimConfig(n=32, k=4, seed=2, trace_enabled=False,
                           check_invariants=False)
        workload = RandomPeersWorkload(rate=2.0)
        harness = SimulationHarness(config, workload.behavior())
        workload.install(harness, until=80.0)
        harness.run(120.0)
        metrics = harness.metrics()
        assert metrics.messages_delivered > 100
        assert metrics.max_piggyback_entries <= 4

    def test_single_process_system(self):
        # Degenerate n=1: no peers to send to, but the machinery holds up.
        from repro.runtime.config import SimConfig
        from repro.runtime.harness import SimulationHarness
        from repro.app.behavior import EchoBehavior
        from repro.failures.injector import FailureSchedule

        config = SimConfig(n=1, k=0, seed=0, trace_enabled=False)
        harness = SimulationHarness(config, EchoBehavior(),
                                    failures=FailureSchedule.single(50.0, 0))
        for t in (10.0, 20.0, 30.0):
            harness.inject_at(t, 0, {"tick": t})
        harness.run(100.0)
        metrics = harness.metrics()
        assert metrics.crashes == 1
        assert metrics.violations == []
