"""Protocol conformance: Send_message / Check_send_buffer and the K bound
(Figure 2, Theorem 4's mechanism)."""

from repro.app.behavior import AppBehavior
from repro.core.effects import ReleaseMessage
from repro.core.entry import Entry
from helpers import (
    deliver_env,
    effects_of,
    log_notification,
    make_announcement,
    make_msg,
    make_proc,
)


class ForwardingBehavior(AppBehavior):
    """Sends one message to the payload's 'to' process on each delivery."""

    def initial_state(self, pid, n):
        return {}

    def on_message(self, state, payload, ctx):
        if isinstance(payload, dict) and "to" in payload:
            ctx.send(payload["to"], payload.get("inner", {}))
        return state


def notification(n, pid, inc, sii):
    rows = [{} for _ in range(n)]
    rows[pid] = {inc: sii}
    return log_notification(pid, rows)


class TestSendBuffering:
    def test_send_enters_buffer(self):
        proc = make_proc(k=0, behavior=ForwardingBehavior())
        effects = deliver_env(proc, payload={"to": 1})
        # K=0 and the own-interval entry is non-NULL: the message is held.
        assert not effects_of(effects, ReleaseMessage)
        assert len(proc.send_buffer) == 1
        assert proc.stats.messages_enqueued == 1

    def test_large_k_releases_immediately(self):
        proc = make_proc(k=4, behavior=ForwardingBehavior())
        effects = deliver_env(proc, payload={"to": 1})
        released = effects_of(effects, ReleaseMessage)
        assert len(released) == 1
        assert proc.stats.messages_released == 1

    def test_released_message_carries_dependency_vector(self):
        proc = make_proc(pid=0, k=4, behavior=ForwardingBehavior())
        proc.on_receive(make_msg(2, 0, entries={2: Entry(0, 7), 3: Entry(1, 2)},
                                 payload={"to": 1}))
        msg = effects_of(proc._check_send_buffer() or [], ReleaseMessage)
        # Already released during delivery; inspect the network-bound copy.
        # Re-derive: the send interval is (0,2) and the vector holds the
        # merged dependencies plus the sender's own entry.
        sent = proc.stats.messages_released
        assert sent == 1

    def test_message_vector_snapshot_includes_own_interval(self):
        proc = make_proc(pid=0, k=4, behavior=ForwardingBehavior())
        effects = deliver_env(proc, payload={"to": 1})
        msg = effects_of(effects, ReleaseMessage)[0].message
        assert msg.tdv.get(0) == Entry(0, 2)
        assert msg.send_interval == Entry(0, 2)

    def test_k_counts_non_null_entries(self):
        # Message depends on three processes; K=2 holds it, K=3 releases.
        for k, expect_release in ((2, False), (3, True)):
            proc = make_proc(pid=0, n=4, k=k, behavior=ForwardingBehavior())
            effects = proc.on_receive(
                make_msg(2, 0, entries={2: Entry(0, 7), 3: Entry(1, 2)},
                         payload={"to": 1}))
            assert bool(effects_of(effects, ReleaseMessage)) is expect_release


class TestCheckSendBufferNullification:
    def test_log_notification_nullifies_and_releases(self):
        proc = make_proc(pid=0, n=4, k=1, behavior=ForwardingBehavior())
        proc.on_receive(make_msg(2, 0, entries={2: Entry(0, 7)},
                                 payload={"to": 1}))
        # Held: entries for P2 (0,7) and own (0,2) -> 2 > K=1.
        assert len(proc.send_buffer) == 1
        effects = proc.on_log_notification(notification(4, 2, 0, 7))
        released = effects_of(effects, ReleaseMessage)
        assert len(released) == 1
        assert released[0].message.tdv.get(2) is None  # nullified in place

    def test_failure_announcement_is_stability_info_for_send_buffer(self):
        # Corollary 1: the announcement (t,x') marks (t,x') stable and can
        # release held messages.
        proc = make_proc(pid=0, n=4, k=1, behavior=ForwardingBehavior())
        proc.on_receive(make_msg(2, 0, entries={2: Entry(0, 7)},
                                 payload={"to": 1}))
        effects = proc.on_failure_announcement(make_announcement(2, 0, 7))
        assert effects_of(effects, ReleaseMessage)

    def test_own_checkpoint_releases_corollary_2(self):
        proc = make_proc(pid=0, n=4, k=0, behavior=ForwardingBehavior())
        deliver_env(proc, payload={"to": 1})
        assert len(proc.send_buffer) == 1  # own entry non-NULL
        effects = proc.checkpoint()
        assert effects_of(effects, ReleaseMessage)
        assert not proc.send_buffer

    def test_own_flush_releases_when_enabled(self):
        proc = make_proc(pid=0, n=4, k=0, behavior=ForwardingBehavior())
        deliver_env(proc, payload={"to": 1})
        effects = proc.flush()
        assert effects_of(effects, ReleaseMessage)

    def test_flush_does_not_release_when_strict(self):
        proc = make_proc(pid=0, n=4, k=0, behavior=ForwardingBehavior(),
                         nullify_own_on_flush=False)
        deliver_env(proc, payload={"to": 1})
        effects = proc.flush()
        assert not effects_of(effects, ReleaseMessage)
        # Only a checkpoint (Corollary 2) drops the own entry.
        effects = proc.checkpoint()
        assert effects_of(effects, ReleaseMessage)

    def test_partial_stability_not_enough(self):
        proc = make_proc(pid=0, n=5, k=1, behavior=ForwardingBehavior())
        proc.on_receive(make_msg(2, 0,
                                 n=5,
                                 entries={2: Entry(0, 7), 3: Entry(0, 4)},
                                 payload={"to": 1}))
        # Three non-NULL entries (P2, P3, own). One notification is not
        # enough for K=1...
        effects = proc.on_log_notification(notification(5, 2, 0, 7))
        assert not effects_of(effects, ReleaseMessage)
        # ...nullifying the second external entry still leaves own + none:
        # 1 <= K, so it releases.
        effects = proc.on_log_notification(notification(5, 3, 0, 4))
        assert effects_of(effects, ReleaseMessage)

    def test_hold_time_recorded(self):
        clock = {"now": 0.0}
        proc = make_proc(pid=0, n=4, k=0, behavior=ForwardingBehavior(),
                         now_fn=lambda: clock["now"])
        deliver_env(proc, payload={"to": 1})
        clock["now"] = 7.5
        proc.flush()
        assert proc.stats.messages_released == 1
        assert proc.stats.send_hold_time_total == 7.5


class TestDegenerateCases:
    def test_k0_released_messages_have_empty_vectors(self):
        # K=0 semantics: a released message can never be revoked.
        proc = make_proc(pid=0, n=4, k=0, behavior=ForwardingBehavior())
        deliver_env(proc, payload={"to": 1})
        effects = proc.checkpoint()
        for release in effects_of(effects, ReleaseMessage):
            assert release.message.tdv.non_null_count() == 0

    def test_kn_never_holds(self):
        proc = make_proc(pid=0, n=4, k=4, behavior=ForwardingBehavior())
        for _ in range(5):
            deliver_env(proc, payload={"to": 1})
        assert proc.stats.messages_released == 5
        assert not proc.send_buffer
