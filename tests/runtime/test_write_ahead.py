"""The write-ahead rule: one durability barrier per protocol step.

Synchronous storage writes only mark the journal; the effect executor
commits them once, before the step's first effect is interpreted.  These
tests pin the three things that rule promises: the fsync budget of each
kind of step, the invariant itself (checked by the ``ProbeSet`` probe on
every protocol variant, shown to bite on a host that skips the barrier,
and checked at the transport, where nothing may leave a process ahead of
its barrier), and the clean fail-stop when the device dies at the barrier.
"""

import pytest

from repro.check.probes import ProbeSet
from repro.core.baselines import (
    DirectDependencyProcess,
    FullyAsyncProcess,
    PessimisticProcess,
    SenderBasedProcess,
    StromYeminiProcess,
)
from repro.core.effects import BroadcastAnnouncement
from repro.core.entry import Entry
from repro.core.protocol import KOptimisticProcess
from repro.core.tables import LoggingProgressTable
from repro.failures.injector import CrashEvent, FailureSchedule
from repro.net.message import LogProgressNotification
from repro.runtime.executor import EffectExecutor
from repro.sim.trace import Tracer
from repro.storage.backend import StableBackend
from repro.storage.filelog import FileLogBackend
from repro.workloads.random_peers import RandomPeersWorkload
from helpers import Scripted, build_sim, make_announcement, make_msg

N = 3


class ScriptedWorkload:
    def behavior(self):
        return Scripted()


def filelog_sim(k=0, **config):
    """A filelog harness with no traffic and no timers: the test is the
    only thing that steps it."""
    return build_sim(n=N, k=k, workload=ScriptedWorkload(), until=None,
                     storage_backend="filelog", **config)


def notification(src, triples):
    table = LoggingProgressTable(N)
    for pid, inc, sii in triples:
        table.insert(pid, Entry(inc, sii))
    return LogProgressNotification(src, table.snapshot_columns())


@pytest.fixture
def sim():
    harness = filelog_sim()
    yield harness
    harness.close()


def fsyncs_of(step, storage):
    before = storage.fsyncs
    step()
    assert not storage.sync_due
    return storage.fsyncs - before


class TestFsyncBudget:
    """What each kind of step costs, in fsyncs, on host 0."""

    def test_flush_of_twenty_records_is_one(self, sim):
        host, storage = sim.hosts[0], sim.hosts[0].protocol.storage
        for _ in range(20):
            sim.inject_now(0, {})
        assert storage.fsyncs == 1      # the initial checkpoint, nothing since
        assert fsyncs_of(host.flush, storage) == 1
        assert storage.log_size == 20

    def test_checkpoint_with_volatile_records_is_one(self, sim):
        host, storage = sim.hosts[0], sim.hosts[0].protocol.storage
        for _ in range(7):
            sim.inject_now(0, {})
        assert fsyncs_of(host.checkpoint, storage) == 1
        assert storage.messages_logged == 7
        assert storage.checkpoints_taken == 2

    def test_rollback_is_one(self, sim):
        host, storage = sim.hosts[0], sim.hosts[0].protocol.storage
        sim.inject_now(0, {})
        host.incoming(make_msg(1, 0, n=N, entries={1: Entry(0, 5)}))
        # P1 announces that its incarnation 0 ended at interval 3: the
        # delivery above is an orphan.  Announcement record, forced log,
        # checkpoint discard, log pop and incarnation marker: one commit.
        rollback = lambda: host.incoming(make_announcement(1, 0, 3))
        assert fsyncs_of(rollback, storage) == 1
        assert host.protocol.stats.rollbacks == 1
        assert storage.highest_incarnation_marker() == 1

    def test_three_outputs_of_one_notification_batch_are_one(self, sim):
        host, storage = sim.hosts[0], sim.hosts[0].protocol.storage
        host.incoming(make_msg(1, 0, n=N, entries={1: Entry(0, 2)},
                               payload={"outputs": ["a", "b", "c"]}))
        host.flush()                    # own interval stable; P1's is not
        assert host.protocol.stats.outputs_committed == 0

        def notify():
            host.incoming(notification(1, [(1, 0, 2)]))
            host.incoming(notification(2, [(1, 0, 1)]))
            sim.engine.run()            # the same-tick drain event

        assert fsyncs_of(notify, storage) == 1
        assert host.protocol.stats.outputs_committed == 3
        assert len(sim.committed_outputs) == 3

    def test_flush_that_commits_outputs_is_at_most_two(self, sim):
        host, storage = sim.hosts[0], sim.hosts[0].protocol.storage
        sim.inject_now(0, {"outputs": ["a", "b"]})
        # The batch's tolerant commit decides the frontier; the commit
        # records that decision releases ride the barrier.
        assert fsyncs_of(host.flush, storage) <= 2
        assert host.protocol.stats.outputs_committed == 2

    def test_steps_without_sync_writes_are_free(self, sim):
        host, storage = sim.hosts[0], sim.hosts[0].protocol.storage
        deliver = lambda: sim.inject_now(0, {"sends": [(1, None)]})
        assert fsyncs_of(deliver, storage) == 0
        assert fsyncs_of(host.notify, storage) == 0


CRASHES = FailureSchedule([CrashEvent(60.0, 1), CrashEvent(95.0, 3)])


class TestWriteAheadProbe:
    @pytest.mark.parametrize("protocol, k, outputs, config", [
        (KOptimisticProcess, 2, 0.25, {}),
        (PessimisticProcess, 0, 0.25, {}),
        (SenderBasedProcess, 0, 0.25, {}),
        (StromYeminiProcess, None, 0.25, {"fifo": True}),
        (FullyAsyncProcess, None, 0.25, {}),
        # Direct dependency tracking reproduces no output commit, and its
        # announcement cascade leaves an orphan surviving on many
        # schedules (direct.py's "fair warning"): a seed and load on
        # which it settles consistent (re-pinned whenever the schedules
        # move: with counter-based draws seed 2 no longer does).
        (DirectDependencyProcess, None, 0.0,
         {"seed": 9, "rate": 0.5}),
    ], ids=["k_optimistic", "pessimistic", "sender_based", "strom_yemini",
            "fully_async", "direct"])
    def test_every_variant_keeps_the_rule(self, protocol, k, outputs, config):
        config = dict(config)
        workload = RandomPeersWorkload(rate=config.pop("rate", 1.0),
                                       output_fraction=outputs)
        harness = build_sim(n=4, k=k, seed=config.pop("seed", 7),
                            workload=workload, until=100.0,
                            failures=CRASHES, protocol=protocol,
                            flush_interval=10.0, checkpoint_interval=40.0,
                            storage_backend="filelog", **config)
        probes = ProbeSet()
        # This probe alone: the others model K-optimistic vectors.
        harness.add_effect_probe(probes.write_ahead)
        try:
            harness.run(160.0)
            storages = [h.protocol.storage for h in harness.hosts]
            assert all(isinstance(s, FileLogBackend) for s in storages)
            assert sum(s.recoveries for s in storages) == 2
            assert bool(harness.committed_outputs) == bool(outputs)
            assert sum(s.sync_writes for s in storages) > 8
            assert probes.violations == []
            assert harness.violations == []
        finally:
            harness.close()

    def test_a_host_that_skips_the_barrier_is_flagged(self):
        harness = filelog_sim()
        probes = ProbeSet()
        probes.install(harness)
        try:
            host = harness.hosts[0]
            # The test-only breakage: this host's executor commits nothing.
            host.executor.storage = StableBackend(0)
            harness.inject_now(0, {"outputs": ["a"]})
            host.flush()
            # The probe judges each effect on its own, and reports are
            # keyed by effect type: this one is the first CommitOutput's.
            assert [v for v in probes.violations
                    if "write-ahead violated: P0 interpreted CommitOutput"
                    in v]

            probes.violations.clear()
            host.crash()
            host.restart()
            assert [v for v in probes.violations
                    if "write-ahead violated: P0 interpreted "
                       "BroadcastAnnouncement" in v]
            # The hosts that do run the barrier stay clean.
            harness.hosts[1].flush()
            assert all("P0" in v for v in probes.violations)
        finally:
            harness.close()


class TestNothingLeavesAheadOfTheBarrier:
    def test_no_transport_call_while_a_sync_write_awaits_the_barrier(self):
        """Every send — acks included — is an effect the executor
        interprets after the barrier: pessimistic logging's per-delivery
        sync record is durable before the delivery is acked."""
        harness = build_sim(
            n=4, k=0, seed=3, protocol=PessimisticProcess,
            workload=RandomPeersWorkload(rate=0.5, output_fraction=0.5),
            until=120.0, failures=FailureSchedule([CrashEvent(60.0, 1)]),
            storage_backend="filelog", retransmit_timeout=4.0)
        network, hosts = harness.network, harness.hosts
        calls, early = [], []

        def watched(name, send):
            def wrapper(*args, **kwargs):
                src = args[0].src if name == "send_app" else args[0]
                calls.append(name)
                if hosts[src].protocol.storage.sync_due:
                    early.append((name, src, args[-1]))
                return send(*args, **kwargs)
            return wrapper

        for name in ("send_app", "send_control", "broadcast_control",
                     "multicast_control"):
            setattr(network, name, watched(name, getattr(network, name)))
        try:
            harness.run(160.0)
            assert calls.count("send_control") > 100   # the acks among them
            assert sum(h.protocol.storage.sync_writes for h in hosts) > 100
            assert early == []
            assert harness.violations == []
        finally:
            harness.close()


class RecordingStorage(StableBackend):
    def __init__(self, log):
        super().__init__(0)
        self.log = log

    def barrier(self):
        self.log.append("barrier")


class RecordingTransport:
    def __init__(self, log):
        self.log = log

    def broadcast_control(self, src, payload):
        self.log.append("broadcast")


class TestChokePoint:
    def test_executor_commits_before_the_first_effect(self):
        """The executor is what the sim host, the parallel worker and the
        asyncio worker share: the barrier is its first act."""
        log = []
        executor = EffectExecutor(
            0, storage=RecordingStorage(log),
            transport=RecordingTransport(log), schedule=None,
            now_fn=lambda: 0.0, tracer=Tracer(enabled=False),
            on_retransmit=None)
        executor.execute(
            [BroadcastAnnouncement(make_announcement(0, 0, 1))],
            probe=lambda effect: log.append("probe"))
        assert log == ["barrier", "probe", "broadcast"]
        executor.execute([])            # a step with no effects still commits
        assert log[-1] == "barrier"


class TestDeadAtTheBarrier:
    def test_effects_of_the_dying_step_never_run(self):
        harness = filelog_sim(trace_enabled=True)
        try:
            host, storage = harness.hosts[0], harness.hosts[0].protocol.storage
            harness.inject_now(0, {"outputs": ["a"]})
            # The flush's own commit is fsync 1; the barrier's is fsync 2.
            storage.injector.arm("crash_after_fsyncs", count=2)
            host.flush()
            assert host.down and host.storage_deaths == 1
            assert harness.committed_outputs == []
            assert not harness.tracer.select("output.commit")
            assert harness.tracer.select("storage.dead")

            harness.engine.run()        # restart after the configured delay
            assert not host.down
            # The commit record did reach the disk before the device died:
            # replay sees it and does not commit the output a second time.
            assert storage.output_committed(
                next(iter(storage._committed_outputs)))
            assert harness.committed_outputs == []
        finally:
            harness.close()

    def test_restart_that_dies_at_its_barrier_fail_stops_again(self):
        harness = filelog_sim(trace_enabled=True)
        try:
            host, storage = harness.hosts[0], harness.hosts[0].protocol.storage
            host.crash()
            storage.injector.arm("crash_after_fsyncs", count=1)
            host.restart()
            # Restart's announcement record was its step's only sync write;
            # the device died on that commit: no broadcast, down again.
            assert host.down and host.storage_deaths == 1
            assert not harness.tracer.select("ann.broadcast")
            assert not harness.tracer.select("recovery.restart")
            harness.engine.run()
            assert not host.down
            assert len(harness.tracer.select("recovery.restart")) == 1
            assert harness.violations == []
        finally:
            harness.close()
