"""Tests for the paper's in-text extensions: per-message K (Section 4.2),
output-driven logging (Section 2) and its no-flush form, the fanout-mode
pull of logging progress, and the periodic notify tick that pushes or
pulls it."""

from repro.app.behavior import AppBehavior
from repro.core.effects import (
    CommitOutput,
    MulticastControl,
    ReleaseMessage,
    SendControl,
)
from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.core.protocol import KOptimisticProcess
from repro.core.stability import StabilityIndex
from repro.core.tables import LoggingProgressTable
from repro.net.message import LoggingRequest
from helpers import Scripted, deliver_env, effects_of, make_msg, make_proc


class PerMessageKBehavior(AppBehavior):
    """Sends one normal message and one 'precious' k=0 message."""

    def initial_state(self, pid, n):
        return {}

    def on_message(self, state, payload, ctx):
        if isinstance(payload, dict) and "to" in payload:
            ctx.send(payload["to"], {"class": "normal"})
            ctx.send(payload["to"], {"class": "precious"}, k=payload.get("k", 0))
        return state


class OutputBehavior(AppBehavior):
    def initial_state(self, pid, n):
        return {}

    def on_message(self, state, payload, ctx):
        if isinstance(payload, dict) and "output" in payload:
            ctx.output(payload["output"])
        return state


class TestPerMessageK:
    def test_mixed_k_in_one_system(self):
        # System K=N releases the normal message immediately; the k=0
        # message waits for full stability (Section 4.2: different K values
        # for different messages in the same system).
        proc = make_proc(pid=0, n=4, k=4, behavior=PerMessageKBehavior())
        effects = deliver_env(proc, {"to": 1, "k": 0})
        released = [e.message.payload["class"]
                    for e in effects_of(effects, ReleaseMessage)]
        assert released == ["normal"]
        assert len(proc.send_buffer) == 1
        assert proc.send_buffer[0].payload["class"] == "precious"

    def test_precious_message_released_on_stability(self):
        proc = make_proc(pid=0, n=4, k=4, behavior=PerMessageKBehavior())
        deliver_env(proc, {"to": 1, "k": 0})
        effects = proc.checkpoint()  # own interval becomes stable
        released = [e.message.payload["class"]
                    for e in effects_of(effects, ReleaseMessage)]
        assert released == ["precious"]
        assert effects_of(effects, ReleaseMessage)[0].message.tdv.non_null_count() == 0

    def test_per_message_k_looser_than_system(self):
        # A message may also be *more* optimistic than the system default.
        proc = make_proc(pid=0, n=4, k=0, behavior=PerMessageKBehavior())
        effects = deliver_env(proc, {"to": 1, "k": 4})
        released = [e.message.payload["class"]
                    for e in effects_of(effects, ReleaseMessage)]
        assert released == ["precious"]  # k=4 escapes the K=0 hold
        assert proc.send_buffer[0].payload["class"] == "normal"

    def test_negative_per_message_k_rejected(self):
        import pytest

        from repro.app.behavior import AppContext

        ctx = AppContext(0, 4, 0, 2, seed=0)
        with pytest.raises(ValueError):
            ctx.send(1, {}, k=-1)

    def test_outputs_equal_k0_messages(self):
        # An output and a k=0 message to a peer commit/release at the same
        # stability point — the paper's "an output can be viewed as a
        # 0-optimistic message".
        proc = make_proc(pid=0, n=4, k=4, behavior=PerMessageKBehavior())
        deliver_env(proc, {"to": 1, "k": 0})
        assert len(proc.send_buffer) == 1
        effects = proc.flush()
        assert effects_of(effects, ReleaseMessage)


def logging_requests(effects):
    """``(target, request)`` for each logging request the effects send."""
    return [(e.dst, e.payload) for e in effects_of(effects, SendControl)
            if isinstance(e.payload, LoggingRequest)]


class TestOutputDrivenLogging:
    def test_request_emitted_for_dependencies(self):
        proc = make_proc(pid=0, n=4, k=4, behavior=OutputBehavior(),
                         output_driven_logging=True)
        effects = proc.on_receive(make_msg(2, 0, entries={2: Entry(0, 7),
                                                          3: Entry(0, 4)},
                                           payload={"output": "X"}))
        # One send per process the output depends on, each with the
        # flush bit (Section 2's request).
        assert sorted(logging_requests(effects)) == [
            (2, LoggingRequest(0, flush=True)),
            (3, LoggingRequest(0, flush=True))]

    def test_no_request_without_flag(self):
        proc = make_proc(pid=0, n=4, k=4, behavior=OutputBehavior())
        effects = proc.on_receive(make_msg(2, 0, entries={2: Entry(0, 7)},
                                           payload={"output": "X"}))
        assert not logging_requests(effects)

    def test_no_request_when_no_remote_dependencies(self):
        proc = make_proc(pid=0, n=4, k=4, behavior=OutputBehavior(),
                         output_driven_logging=True)
        effects = deliver_env(proc, {"output": "X"})
        assert not logging_requests(effects)

    def test_request_handler_flushes_and_replies(self):
        server = make_proc(pid=2, n=4, k=4)
        deliver_env(server)  # something to flush
        effects = server.on_logging_request(LoggingRequest(origin=0))
        replies = effects_of(effects, SendControl)
        assert len(replies) == 1
        assert replies[0].dst == 0
        assert replies[0].payload.table.rows()[2]  # own progress included
        assert server.storage.async_writes == 1

    def test_round_trip_commits_output(self):
        # Requester -> target flush -> notification -> commit.
        requester = make_proc(pid=0, n=4, k=4, behavior=OutputBehavior(),
                              output_driven_logging=True)
        target = make_proc(pid=2, n=4, k=4)
        deliver_env(target)  # target's interval (0,2) exists but is volatile
        effects = requester.on_receive(
            make_msg(2, 0, entries={2: Entry(0, 2)}, payload={"output": "X"}))
        assert logging_requests(effects) == [(2, LoggingRequest(0))]
        requester.flush()  # own side stable
        reply = effects_of(
            target.on_logging_request(LoggingRequest(origin=0)),
            SendControl)[0]
        effects = requester.on_log_notification(reply.payload)
        assert effects_of(effects, CommitOutput)

    def test_harness_end_to_end(self):
        from repro.runtime.config import SimConfig
        from repro.runtime.harness import SimulationHarness
        from repro.workloads.telecom import TelecomWorkload

        def run(flag):
            config = SimConfig(n=6, k=None, seed=9, notify_interval=200.0,
                               flush_interval=200.0, trace_enabled=False,
                               output_driven_logging=flag)
            workload = TelecomWorkload(rate=0.5)
            harness = SimulationHarness(config, workload.behavior())
            workload.install(harness, until=400.0)
            harness.run(600.0)
            return harness.metrics()

        lazy = run(False)
        driven = run(True)
        assert driven.violations == [] and lazy.violations == []
        # With rare periodic notifications, output-driven logging commits
        # outputs dramatically sooner.
        assert driven.mean_output_latency < lazy.mean_output_latency / 2


class TestAwaitedOwners:
    def test_nobody_is_awaited_before_anything_is_held_or_depended_on(self):
        proc = make_proc(pid=0, n=6, k=0, behavior=Scripted())
        assert proc.awaited_owners() == []
        deliver_env(proc, {"sends": [(1, None)], "outputs": ["X"]})
        # Held on its own unflushed interval only: nobody else to ask.
        assert proc.send_buffer and len(proc.output_buffer)
        assert proc.awaited_owners() == []

    def test_watched_position_owners_and_own_vector_minus_self(self):
        proc = make_proc(pid=0, n=6, k=0, behavior=Scripted())
        proc.on_receive(make_msg(2, 0, n=6,
                                 entries={2: Entry(0, 7), 3: Entry(0, 4)},
                                 payload={"sends": [(1, None)]}))
        proc.on_receive(make_msg(4, 0, n=6, entries={4: Entry(0, 2)}))
        assert proc.awaited_owners() == [2, 3, 4]
        # P3 is awaited through the held send alone, P4 through the own
        # vector alone (the send was enqueued before P4 was heard of).
        proc.tdv.nullify(3)
        assert 3 not in proc.tdv.processes()
        assert 4 not in proc.send_buffer[0].tdv.processes()
        assert proc.awaited_owners() == [2, 3, 4]

    def test_progress_takes_an_owner_off_the_list(self):
        proc = make_proc(pid=0, n=6, k=0, behavior=Scripted())
        proc.on_receive(make_msg(2, 0, n=6,
                                 entries={2: Entry(0, 7), 3: Entry(0, 4)},
                                 payload={"outputs": ["X"]}))
        owner = make_proc(pid=3, n=6, k=0, gossip_log_tables=False)
        owner.log.insert(3, Entry(0, 4))
        proc.on_log_notification(owner.make_log_notification())
        assert proc.awaited_owners() == [2]

    def test_positions_whose_waiters_were_all_dropped_are_ignored(self):
        n = 6
        index, log, woken = StabilityIndex(), LoggingProgressTable(n), []
        gone = index.watch("a", DependencyVector(
            n, {1: Entry(0, 3), 2: Entry(0, 3)}), log, woken)
        index.watch("b", DependencyVector(
            n, {2: Entry(0, 5), 3: Entry(0, 1)}), log, woken)
        index.watch("c", DependencyVector(n, {4: Entry(1, 2)}), log, woken)
        assert index.awaited_owners() == {1, 2, 3, 4}
        index.drop(gone)
        # The stale entries are still on the heaps (no sweep yet) ...
        assert len(index) == 5 and index.watched_positions() == 4
        # ... but nobody waits on P1 any more; P2 still has a live waiter.
        assert index.awaited_owners() == {2, 3, 4}


class TestLoggingProgressPull:
    def test_answer_goes_to_the_asker_alone_without_flushing(self):
        owner = make_proc(pid=2, n=4, k=4)
        deliver_env(owner)  # an unflushed interval
        effects = owner.on_logging_request(LoggingRequest(1, flush=False))
        (reply,) = effects
        assert isinstance(reply, SendControl) and reply.dst == 1
        assert reply.payload.origin == 2
        assert owner.storage.async_writes == 0
        # What is already logged, not what a flush would add.
        assert reply.payload.table.rows()[2] == {0: 1}

    def test_the_flush_bit_flushes_first(self):
        owner = make_proc(pid=2, n=4, k=4)
        deliver_env(owner)
        effects = owner.on_logging_request(LoggingRequest(1, flush=True))
        (reply,) = effects_of(effects, SendControl)
        assert owner.storage.async_writes == 1
        assert reply.payload.table.rows()[2] == {0: 2}
        assert LoggingRequest(1).flush  # the default is Section 2's request

    def test_answer_is_the_full_table_or_the_own_row(self):
        request = LoggingRequest(0, flush=False)
        answers = []
        for gossip in (True, False):
            owner = make_proc(pid=2, n=4, k=4, gossip_log_tables=gossip)
            owner.log.insert(3, Entry(0, 9))
            answers += owner.on_logging_request(request)
        full, own = answers
        assert full.payload.table.rows()[3] == {0: 9}
        assert own.payload.table.rows()[3] == {}
        assert own.payload.table.rows()[2] == full.payload.table.rows()[2]

    def test_answers_advance_the_askers_own_delta_cursor(self):
        owner = make_proc(pid=2, n=4, k=4, delta_notifications=True)
        request = LoggingRequest(0, flush=False)
        (first,) = owner.on_logging_request(request)
        assert first.payload.table.rows()[2] == {0: 1}
        owner.log.insert(3, Entry(0, 9))
        (second,) = owner.on_logging_request(request)
        assert not second.payload.table.full
        assert sorted(second.payload.table.entries) == [(3, 0, 9)]
        # Another asker has its own cursor: first contact is a full table.
        (other,) = owner.on_logging_request(LoggingRequest(1, flush=False))
        assert other.payload.table.rows()[2] == {0: 1}
        assert other.payload.table.rows()[3] == {0: 9}


class TestNotifyTick:
    """``notify`` returns the whole tick as effects: one broadcast, one
    delta per peer, or one multicast ask."""

    def test_push_is_one_broadcast_of_the_table(self):
        proc = make_proc(pid=1, n=4)
        proc.log.insert(3, Entry(0, 9))
        (push,) = proc.notify()
        assert isinstance(push, MulticastControl) and push.dsts is None
        assert push.payload.origin == 1
        assert push.payload.table.rows()[3] == {0: 9}

    def test_delta_mode_sends_each_peer_its_own_notification(self):
        proc = make_proc(pid=1, n=4, delta_notifications=True)
        first = proc.notify()                        # full snapshots
        assert [(type(e), e.dst) for e in first] == [
            (SendControl, 0), (SendControl, 2), (SendControl, 3)]
        proc.log.insert(3, Entry(0, 9))
        second = proc.notify()
        assert not any(e.payload.table.full for e in second)
        assert [sorted(e.payload.table.entries) for e in second] == [
            [(3, 0, 9)]] * 3

    def test_pull_asks_the_awaited_owners_in_one_multicast(self):
        proc = make_proc(pid=0, n=6, k=0, behavior=Scripted(),
                         notify_fanout=2)
        assert proc.notify() == []                   # awaiting nobody
        proc.on_receive(make_msg(2, 0, n=6,
                                 entries={2: Entry(0, 7), 3: Entry(0, 4)},
                                 payload={"outputs": ["X"]}))
        proc.on_receive(make_msg(4, 0, n=6, entries={4: Entry(0, 2)},
                                 payload={}))
        assert proc.notify() == [
            MulticastControl([2, 3], LoggingRequest(0, flush=False))]
        # More owners than the budget: the next tick carries on behind.
        assert proc.notify() == [
            MulticastControl([4, 2], LoggingRequest(0, flush=False))]
