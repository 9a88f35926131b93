"""Sender-based message logging (reference [1]) as a K = 0 baseline: the
sans-IO process, and whole runs on the simulation harness."""

from repro.app.behavior import AppBehavior
from repro.check.explorer import RandomExplorer, RandomScenarioSampler
from repro.core.baselines.sender_based import (
    SBAck,
    SBCheckpointNote,
    SBConfirm,
    SBLogReply,
    SBLogRequest,
    SenderBasedProcess,
)
from repro.core.depvec import DependencyVector
from repro.core.effects import (
    BroadcastAnnouncement,
    MessageDelivered,
    ReleaseMessage,
    RestartPerformed,
    SendControl,
    StableProgress,
)
from repro.core.entry import Entry
from repro.failures.injector import CrashEvent, FailureSchedule
from repro.net.message import AppMessage
from repro.runtime.config import SimConfig
from repro.runtime.harness import SimulationHarness
from repro.types import MessageId
from repro.workloads.random_peers import RandomPeersWorkload
from helpers import deliver_env, effects_of, make_proc


class Forwarder(AppBehavior):
    """Counts deliveries, records each payload's ``tag`` and sends to the
    payload's ``to``."""

    def initial_state(self, pid, n):
        return {"count": 0, "tags": []}

    def on_message(self, state, payload, ctx):
        state["count"] += 1
        if "tag" in payload:
            state["tags"].append(payload["tag"])
        if "to" in payload:
            ctx.send(payload["to"], {})
        return state


def proc(pid=0, n=3):
    return make_proc(pid=pid, n=n, k=0, cls=SenderBasedProcess,
                     behavior=Forwarder())


def peer_msg(src, dst, seq=0, payload=None, n=3):
    """A released peer message: the send gate left its vector empty."""
    return AppMessage(msg_id=MessageId(src, 0, 1, seq), src=src, dst=dst,
                      payload=payload or {}, tdv=DependencyVector(n),
                      send_interval=Entry(0, 1))


def controls(effects, kind):
    """``(dst, payload)`` of every control message of type ``kind``."""
    return [(e.dst, e.payload) for e in effects_of(effects, SendControl)
            if isinstance(e.payload, kind)]


def released(effects):
    return [e.message for e in effects_of(effects, ReleaseMessage)]


def reply_to(process, requester, after=0):
    """The copies ``process`` answers a log request with."""
    ((_dst, reply),) = controls(
        process.on_control(SBLogRequest(requester, 1, after)), SBLogReply)
    return reply


def restart(process):
    """Crash and restart ``process``: returns its log request."""
    process.crash()
    requests = controls(process.restart(), SBLogRequest)
    assert [dst for dst, _r in requests] == [
        pid for pid in range(process.n) if pid != process.pid]
    return requests[0][1]


def answer(process, request, replies):
    """Feed ``process`` one reply per peer: ``replies`` maps a peer to its
    ``(copies, acks)``; unlisted peers answer empty."""
    effects = []
    for peer in range(process.n):
        if peer != process.pid:
            copies, acks = replies.get(peer, ((), ()))
            effects += process.on_control(SBLogReply(
                peer, request.round, tuple(copies), tuple(acks)))
    return effects


class TestDataPath:
    def test_delivery_assigns_rsn_and_acks(self):
        p = proc()
        msg = peer_msg(1, 0)
        effects = p.on_receive(msg)
        assert p.current == Entry(0, 2)
        assert controls(effects, SBAck) == [(1, SBAck(0, msg.msg_id,
                                                      Entry(0, 2)))]
        assert not effects_of(effects, StableProgress)

    def test_environment_input_force_logged_no_ack(self):
        p = proc()
        before = p.storage.sync_writes
        effects = deliver_env(p)
        assert p.storage.sync_writes == before + 1
        assert p.storage.log_size == 1
        assert not controls(effects, SBAck)
        assert effects_of(effects, StableProgress) == [
            StableProgress(0, Entry(0, 2))]

    def test_send_gate_blocks_until_confirm(self):
        p = proc()
        msg = peer_msg(1, 0, payload={"to": 2})
        assert not released(p.on_receive(msg))  # unconfirmed: gate closed
        assert len(p.send_buffer) == 1
        effects = p.on_control(SBConfirm((msg.msg_id,)))
        (sent,) = released(effects)
        assert sent.dst == 2 and sent.piggyback_size() == 0
        # The interval is stable before anything leaves it.
        assert isinstance(effects[0], StableProgress)
        # The sender log keeps the copy, not yet stamped.
        assert reply_to(p, 2).copies == ((sent, None),)

    def test_stability_waits_for_every_earlier_delivery(self):
        p = proc()
        first = peer_msg(1, 0)
        p.on_receive(first)
        # An input is logged at once, but the interval before it is not
        # recoverable until its sender confirms.
        assert not released(deliver_env(p, {"to": 2}))
        effects = p.on_control(SBConfirm((first.msg_id,)))
        assert effects_of(effects, StableProgress) == [
            StableProgress(0, Entry(0, 3))]
        assert len(released(effects)) == 1

    def test_input_triggered_send_released_immediately(self):
        p = proc()
        (sent,) = released(deliver_env(p, {"to": 2}))
        assert sent.piggyback_size() == 0

    def test_sender_records_rsn_and_confirms(self):
        sender = proc(pid=1)
        (msg,) = released(deliver_env(sender, {"to": 0}))
        effects = sender.on_control(SBAck(0, msg.msg_id, Entry(0, 7)))
        assert controls(effects, SBConfirm) == [(0, SBConfirm((msg.msg_id,)))]
        assert reply_to(sender, 0, after=3).copies == ((msg, Entry(0, 7)),)

    def test_duplicate_delivery_suppressed(self):
        p = proc()
        msg = peer_msg(1, 0)
        p.on_receive(msg)
        p.on_receive(msg)
        assert p.stats.deliveries == 1
        assert p.stats.duplicates_dropped == 1


class TestRecovery:
    def test_crash_restores_checkpoint_and_enters_recovery(self):
        p = proc()
        deliver_env(p)
        p.checkpoint()
        deliver_env(p)
        request = restart(p)
        assert p.app_state["count"] == 1
        assert request.after == 2
        # Not quiescent, and arrivals wait, until every peer answered.
        assert p.unacked_count == 2
        p.on_receive(peer_msg(1, 0))
        assert p.app_state["count"] == 1
        effects = answer(p, request, {})
        assert p.app_state["count"] == 3  # the logged input, then the arrival
        assert p.unacked_count == 0
        (performed,) = effects_of(effects, RestartPerformed)
        assert performed.replayed == 1
        assert performed.announcement.end == Entry(0, 3)
        assert effects_of(effects, BroadcastAnnouncement)

    def test_finish_recovery_replays_in_rsn_order(self):
        p = proc()
        deliver_env(p, {"tag": "a"})  # logged at interval 2
        request = restart(p)
        b = peer_msg(1, 0, payload={"tag": "b"})
        c = peer_msg(2, 0, payload={"tag": "c"})
        d = peer_msg(2, 0, seq=1, payload={"tag": "d"})
        effects = answer(p, request, {
            1: ([(b, Entry(0, 4))], ()),
            2: ([(d, None), (c, Entry(0, 3))], ()),
        })
        # RSN order, own logged input included; the unacked copy comes last
        # as a new delivery.
        assert p.app_state["tags"] == ["a", "c", "b", "d"]
        delivered = effects_of(effects, MessageDelivered)
        assert [e.replay for e in delivered] == [True, True, True, False]
        (performed,) = effects_of(effects, RestartPerformed)
        assert performed.announcement.end == Entry(0, 4)

    def test_finish_recovery_requires_recovery_mode(self):
        p = proc()
        assert p.on_control(SBLogReply(1, 1, (), ())) == []
        # A reply to a request a later crash overtook is ignored too.
        request = restart(p)
        assert p.on_control(SBLogReply(1, request.round - 1, (), ())) == []
        assert p.unacked_count == 2

    def test_log_request_returns_unacked_and_post_checkpoint_copies(self):
        sender = proc(pid=1)
        (first,) = released(deliver_env(sender, {"to": 0}))
        (second,) = released(deliver_env(sender, {"to": 0}))
        sender.on_control(SBAck(0, first.msg_id, Entry(0, 5)))
        assert reply_to(sender, 0, after=3).copies == (
            (first, Entry(0, 5)), (second, None))
        # The stamped copy is at or below the requester's checkpoint.
        assert reply_to(sender, 0, after=5).copies == ((second, None),)

    def test_messages_during_recovery_buffered(self):
        p = proc()
        request = restart(p)
        msg = peer_msg(1, 0, seq=9)
        assert p.on_receive(msg) == []
        assert p.stats.deliveries == 0
        effects = answer(p, request, {})
        assert p.stats.deliveries == 1  # delivered after the replay
        assert controls(effects, SBAck) == [(1, SBAck(0, msg.msg_id,
                                                      Entry(1, 3)))]

    def test_reack_unconfirmed_for_recovered_sender(self):
        p = proc()
        from_1, from_2 = peer_msg(1, 0), peer_msg(2, 0)
        p.on_receive(from_1)
        p.on_receive(from_2)
        # The reply re-acks what it delivered from the requester since its
        # checkpoint ...
        assert reply_to(p, 1).acks == ((from_1.msg_id, Entry(0, 2)),)
        # ... and the restarting sender stamps and confirms it.
        sender = proc(pid=1)
        request = restart(sender)
        effects = sender.on_control(SBLogReply(
            0, request.round, (), ((from_1.msg_id, Entry(0, 2)),)))
        assert controls(effects, SBConfirm) == [(0, SBConfirm((from_1.msg_id,)))]
        assert p.on_control(SBConfirm((from_1.msg_id,))) == [
            StableProgress(0, Entry(0, 2))]

    def test_replay_regenerates_identical_send_ids(self):
        sender = proc(pid=1)
        (before,) = released(deliver_env(sender, {"to": 0}))
        request = restart(sender)
        (after,) = released(answer(sender, request, {}))
        assert after.msg_id == before.msg_id


class TestGarbageCollection:
    def test_checkpoint_note_prunes_confirmed_copies(self):
        sender = proc(pid=1)
        (first,) = released(deliver_env(sender, {"to": 0}))
        (second,) = released(deliver_env(sender, {"to": 0}))
        sender.on_control(SBAck(0, first.msg_id, Entry(0, 2)))
        assert sender.on_control(SBCheckpointNote(0, 2)) == []
        assert reply_to(sender, 0).copies == ((second, None),)  # unacked: kept

    def test_checkpoint_stabilizes_and_notes_every_peer(self):
        p = proc()
        p.on_receive(peer_msg(1, 0, payload={"to": 2}))
        effects = p.checkpoint()
        assert effects_of(effects, StableProgress) == [
            StableProgress(0, Entry(0, 2))]
        assert len(released(effects)) == 1
        assert controls(effects, SBCheckpointNote) == [
            (1, SBCheckpointNote(0, 2)), (2, SBCheckpointNote(0, 2))]


def run(failures=None, seed=42, duration=500.0, n=5, outputs=0.2):
    config = SimConfig(n=n, k=0, seed=seed, trace_enabled=False)
    workload = RandomPeersWorkload(rate=0.6, min_hops=2, max_hops=5,
                                   output_fraction=outputs)
    harness = SimulationHarness(config, workload.behavior(),
                                failures=failures,
                                protocol=SenderBasedProcess)
    workload.install(harness, until=duration * 0.8)
    harness.run(duration)
    return harness


class TestSimulation:
    def test_failure_free_run(self):
        harness = run()
        m = harness.metrics()
        assert m.messages_delivered > 200
        assert m.sync_writes < m.messages_delivered / 2
        assert m.violations == [] and m.max_release_revokers == 0
        assert m.outputs_committed > 0 and m.outputs_pending == 0
        assert harness.quiescent()

    def test_crash_recovers_all_confirmed_work(self):
        harness = run(failures=FailureSchedule.single(250.0, 1))
        m = harness.metrics()
        assert m.crashes == 1
        assert harness.hosts[1].protocol.stats.replayed_deliveries > 0
        assert m.violations == []
        assert m.intervals_lost == 0 and m.processes_rolled_back == 0
        assert harness.quiescent()

    def test_overlapping_crashes_rejected(self):
        # A sender and its receiver fail inside one recovery window: the
        # receiver's replay misses copies the sender lost, and the certifier
        # names the orphans that survive.
        harness = run(n=3, failures=FailureSchedule([CrashEvent(150.0, 1),
                                                     CrashEvent(151.0, 2)]))
        m = harness.metrics()
        assert m.intervals_lost > 0
        assert any("orphan" in v for v in m.violations), m.violations[:3]

    def test_sequential_crashes_ok(self):
        harness = run(failures=FailureSchedule([CrashEvent(150.0, 1),
                                                CrashEvent(300.0, 2)]))
        m = harness.metrics()
        assert m.crashes == 2
        assert m.violations == [] and m.intervals_lost == 0

    def test_gc_bounds_sender_logs(self):
        harness = run()
        assert harness.metrics().messages_released > 800
        for host in harness.hosts:
            assert len(host.protocol._copies) < 50

    def test_determinism(self):
        assert run(seed=7).metrics().as_row() == run(seed=7).metrics().as_row()

    def test_random_explorer_with_one_crash(self):
        sampler = RandomScenarioSampler(
            seed=5, k_choices=(0,), crash_probability=1.0, max_crashes=1,
            partition_probability=0.0)
        stats = RandomExplorer(sampler, runs=20,
                               protocol=SenderBasedProcess).explore()
        assert not stats.found, stats.result.violations
        assert stats.max_release_revokers == 0

    def test_experiment_api(self):
        from repro.experiments.sender_based import run as e12

        # simulate() raises on any violation, so every row certified clean.
        rows = {r["discipline"]: r for r in e12(n=4, duration=250.0)}
        rb = rows["receiver-based sync"]
        k0 = rows["K=0 optimistic"]
        sb = rows["sender-based (ref [1])"]
        assert all(r["revokers"] == 0 for r in rows.values())
        assert sb["procs_rb"] == 0
        assert rb["sync_w"] > sb["sync_w"]
        assert sb["ctl_msgs"] > rb["ctl_msgs"]
        assert k0["latency_cost"] > sb["latency_cost"]
