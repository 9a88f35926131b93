"""Regression tests for buffer bookkeeping (wait-time dicts) and the
deliver-loop rewrite.

The bookkeeping bugs: ``_scrub_orphans`` popped ``_send_enqueue_times``
for send-buffer discards but leaked ``_receive_times`` entries for
receive-buffer discards forever, and ``_rollback`` pruned neither dict.
"""

from repro.app.behavior import AppBehavior
from repro.core.effects import MessageDelivered, MessageDiscarded
from repro.core.entry import Entry
from helpers import (
    deliver_env,
    log_notification,
    effects_of,
    make_announcement,
    make_msg,
    make_proc,
)


class ForwardingBehavior(AppBehavior):
    def initial_state(self, pid, n):
        return {}

    def on_message(self, state, payload, ctx):
        if isinstance(payload, dict) and "to" in payload:
            ctx.send(payload["to"], payload.get("inner", {}))
        return state


def held_receive(proc, src=1):
    """Put one message into proc's receive buffer and keep it there.

    First a delivery establishes ``tdv[src]`` at incarnation 0; a second
    message from ``src``'s incarnation 1 then trips Check_deliverability
    (two incarnations, smaller one not known stable) and is buffered.
    """
    proc.on_receive(make_msg(src, proc.pid, entries={src: Entry(0, 2)}))
    held = make_msg(src, proc.pid, entries={src: Entry(1, 5)})
    proc.on_receive(held)
    assert held in proc.receive_buffer
    return held


class TestScrubBookkeeping:
    def test_receive_buffer_discard_pops_receive_times(self):
        proc = make_proc()
        held = held_receive(proc)
        assert held.wire_id in proc._receive_times
        # Announce that src's incarnation 1 ended at 3: the held message
        # (which depends on (1,5) of src) becomes an orphan.
        effects = proc.on_failure_announcement(make_announcement(1, 1, 3))
        discarded = effects_of(effects, MessageDiscarded)
        assert [d.message for d in discarded] == [held]
        assert held not in proc.receive_buffer
        # The regression: this entry used to leak forever.
        assert held.wire_id not in proc._receive_times

    def test_send_buffer_discard_pops_enqueue_times(self):
        proc = make_proc(k=0, behavior=ForwardingBehavior())
        msg = make_msg(1, 0, entries={1: Entry(0, 4)}, payload={"to": 2})
        proc.on_receive(msg)
        (pending,) = proc.send_buffer
        assert pending.wire_id in proc._send_enqueue_times
        proc.on_failure_announcement(make_announcement(1, 0, 2))
        assert proc.send_buffer == []
        assert pending.wire_id not in proc._send_enqueue_times

    def test_rollback_prunes_both_wait_dicts(self):
        proc = make_proc(behavior=ForwardingBehavior(), k=0)
        # Deliver a message that makes our state depend on P1's (0, 5);
        # its triggered send is held (K=0) in the send buffer.
        proc.on_receive(make_msg(1, 0, entries={1: Entry(0, 5)},
                                 payload={"to": 2}))
        held = make_msg(2, 0, entries={2: Entry(0, 2), 1: Entry(1, 9)})
        proc.on_receive(held)  # two incarnations of P1 in play: buffered
        assert proc.send_buffer and held in proc.receive_buffer
        # P1's incarnation 0 ended at 3: our state (dep on (0,5)) is an
        # orphan, so Rollback runs; the held receive-buffer message
        # (dep on P1 (1,9)) survives the iet check and is kept.
        proc.on_failure_announcement(make_announcement(1, 0, 3))
        assert set(proc._send_enqueue_times) == {
            m.wire_id for m in proc.send_buffer
        }
        assert set(proc._receive_times) <= {
            m.wire_id for m in proc.receive_buffer
        }


class TestDeliverLoop:
    def test_single_pass_cascade(self):
        """A delivery can unlock a message buffered *before* it without
        restarting the scan: the second message merges P1's incarnation-1
        entry into our vector, making the held message's entry same-inc."""
        proc = make_proc()
        proc.on_receive(make_msg(1, 0, entries={1: Entry(0, 2)}))
        held = make_msg(1, 0, entries={1: Entry(1, 5)})
        proc.on_receive(held)
        assert held in proc.receive_buffer
        # Stability of (1, (0,2)) lets the held message through.
        rows = [{} for _ in range(proc.n)]
        rows[1] = {0: 2}
        effects = proc.on_log_notification(log_notification(1, rows))
        delivered = effects_of(effects, MessageDelivered)
        assert [d.message for d in delivered] == [held]
        assert proc.receive_buffer == []

    def test_multi_round_delivery_converges(self):
        """Messages whose deliverability is unlocked by a later delivery in
        the same call are all delivered; undeliverable ones stay put."""
        proc = make_proc(n=6, k=6)
        proc.on_receive(make_msg(1, 0, n=6, entries={1: Entry(0, 2)}))
        blocked = make_msg(1, 0, n=6, entries={1: Entry(1, 7)})
        proc.on_receive(blocked)
        stuck = make_msg(2, 0, n=6, entries={2: Entry(0, 3)})
        proc.on_receive(stuck)
        proc.on_receive(make_msg(2, 0, n=6, entries={2: Entry(1, 9)}))
        assert len(proc.receive_buffer) == 2
        # Stability for P1 unlocks `blocked`; P2's gap stays open.
        rows = [{} for _ in range(6)]
        rows[1] = {0: 2}
        effects = proc.on_log_notification(log_notification(1, rows))
        delivered = [d.message for d in effects_of(effects, MessageDelivered)]
        assert blocked in delivered
        assert [m.msg_id for m in proc.receive_buffer] != []

    def test_deliveries_count_matches(self):
        proc = make_proc()
        for sii in (2, 3, 4):
            deliver_env(proc)
        assert proc.stats.deliveries == 3
        assert proc.receive_buffer == []
