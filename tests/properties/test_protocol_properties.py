"""Property-based tests on the protocol state machine.

Hypothesis drives one protocol instance through random event sequences
(receives, announcements, notifications, flushes, checkpoints, crashes)
and asserts structural invariants after every step.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.app.behavior import EchoBehavior
from repro.core.entry import Entry
from repro.core.protocol import KOptimisticProcess
from helpers import log_notification, make_announcement, make_msg

N = 4

entry_st = st.builds(Entry, inc=st.integers(0, 2), sii=st.integers(1, 15))

receive_op = st.tuples(
    st.just("receive"),
    st.integers(1, N - 1),                 # sender
    st.dictionaries(st.integers(1, N - 1), entry_st, max_size=N - 1),
)
announce_op = st.tuples(
    st.just("announce"),
    st.integers(1, N - 1),                 # origin
    st.integers(0, 2),                     # incarnation
    st.integers(1, 12),                    # end index
)
notify_op = st.tuples(
    st.just("notify"),
    st.integers(1, N - 1),
    st.integers(0, 2),
    st.integers(1, 15),
)
simple_op = st.sampled_from([("flush",), ("checkpoint",), ("crash",)])

ops = st.lists(st.one_of(receive_op, announce_op, notify_op, simple_op),
               max_size=40)


def apply_op(proc, op):
    kind = op[0]
    if kind == "receive":
        _, sender, entries = op
        entries = dict(entries)
        entries.setdefault(sender, Entry(0, 1))
        proc.on_receive(make_msg(sender, 0, n=N, entries=entries))
    elif kind == "announce":
        _, origin, inc, sii = op
        proc.on_failure_announcement(make_announcement(origin, inc, sii))
    elif kind == "notify":
        _, origin, inc, sii = op
        rows = [{} for _ in range(N)]
        rows[origin] = {inc: sii}
        proc.on_log_notification(log_notification(origin, rows))
    elif kind == "flush":
        proc.flush()
    elif kind == "checkpoint":
        proc.checkpoint()
    elif kind == "crash":
        proc.crash()
        proc.restart()


def check_invariants(proc):
    # Interval indices never run backwards past the stable prefix, and the
    # incarnation never exceeds what storage could reconstruct + 1.
    assert proc.current.sii >= 1
    assert proc.current.inc >= 0
    # The own tdv entry, when present, is exactly the current interval.
    own = proc.tdv.get(proc.pid)
    assert own is None or own == proc.current
    # Dependencies the protocol knows to be stable are never carried.
    for pid, entry in proc.tdv.items():
        if pid != proc.pid:
            assert not proc.log.covers(pid, entry), (pid, entry)
    # Nothing in any buffer is a known orphan.
    for msg in proc.receive_buffer + proc.send_buffer:
        assert not proc._is_orphan_message(msg)
    # Volatile buffer positions are strictly increasing and beyond the log.
    positions = [r.position for r in proc.volatile.records]
    assert positions == sorted(set(positions))
    if positions:
        assert positions[0] > max(
            (r.position for r in proc.storage.logged_after(0)), default=0)


class TestRandomOperationSequences:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops)
    def test_invariants_hold_throughout(self, operations):
        proc = KOptimisticProcess(0, N, 2, EchoBehavior())
        proc.initialize()
        for op in operations:
            apply_op(proc, op)
            check_invariants(proc)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops, st.integers(0, N))
    def test_released_messages_respect_k(self, operations, k):
        from repro.core.effects import ReleaseMessage

        class Chatty(EchoBehavior):
            def on_message(self, state, payload, ctx):
                state = super().on_message(state, payload, ctx)
                ctx.send((ctx.pid + 1) % N, {"reply": True})
                return state

        proc = KOptimisticProcess(0, N, k, Chatty())
        proc.initialize()
        for op in operations:
            effects = []
            try:
                kind = op[0]
                if kind == "receive":
                    _, sender, entries = op
                    entries = dict(entries)
                    entries.setdefault(sender, Entry(0, 1))
                    effects = proc.on_receive(
                        make_msg(sender, 0, n=N, entries=entries))
                elif kind == "announce":
                    effects = proc.on_failure_announcement(
                        make_announcement(op[1], op[2], op[3]))
                elif kind == "notify":
                    rows = [{} for _ in range(N)]
                    rows[op[1]] = {op[2]: op[3]}
                    effects = proc.on_log_notification(
                        log_notification(op[1], rows))
                elif kind == "flush":
                    effects = proc.flush()
                elif kind == "checkpoint":
                    effects = proc.checkpoint()
                elif kind == "crash":
                    proc.crash()
                    effects = proc.restart()
            finally:
                for effect in effects:
                    if isinstance(effect, ReleaseMessage):
                        assert effect.message.tdv.non_null_count() <= k

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops)
    def test_crash_replay_reaches_stable_prefix(self, operations):
        proc = KOptimisticProcess(0, N, N, EchoBehavior())
        proc.initialize()
        for op in operations:
            apply_op(proc, op)
        stable_count = proc.storage.log_size
        delivered_before = proc.app_state["delivered"]
        volatile = len(proc.volatile)
        orphans_before = proc.stats.orphans_discarded
        requeued_before = proc.stats.messages_requeued
        proc.crash()
        proc.restart()
        # Everything logged survives *unless recovery legitimately sets it
        # aside*: replay stops at the first logged message the announcement
        # tables mark as an orphan (stability and orphanhood are orthogonal
        # — a stable interval can still be lost), discarding orphans and
        # requeueing the non-orphan remainder for ordinary re-delivery.
        # Everything volatile is gone: what the buffer holds now are the
        # re-deliveries of requeued messages (popped from the log, or taken
        # back from the checkpoint's receive buffer).
        discarded = proc.stats.orphans_discarded - orphans_before
        requeued = proc.stats.messages_requeued - requeued_before
        assert (proc.app_state["delivered"]
                >= delivered_before - volatile - discarded - requeued)
        assert len(proc.volatile) <= requeued
