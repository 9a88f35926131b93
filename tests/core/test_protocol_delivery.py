"""Protocol conformance: Receive_message, Deliver_message,
Check_deliverability (Figure 2)."""

import pytest

from repro.core.effects import DuplicateDropped, MessageDelivered, MessageDiscarded
from repro.core.entry import Entry
from helpers import (
    deliver_env,
    effects_of,
    log_notification,
    make_announcement,
    make_msg,
    make_proc,
)


class TestInitialize:
    def test_corollary_3_no_dependency_entries(self):
        proc = make_proc()
        assert proc.tdv.non_null_count() == 0

    def test_first_interval_is_0_1(self):
        proc = make_proc()
        assert proc.current == Entry(0, 1)

    def test_initial_checkpoint_written(self):
        proc = make_proc()
        assert proc.storage.checkpoints_taken == 1
        assert proc.storage.checkpoints[-1].entry == Entry(0, 1)

    def test_first_interval_recorded_stable(self):
        # "the first state interval is always stable".
        proc = make_proc()
        assert proc.log.covers(proc.pid, Entry(0, 1))

    def test_double_initialize_rejected(self):
        proc = make_proc()
        with pytest.raises(RuntimeError):
            proc.initialize()

    def test_use_before_initialize_rejected(self):
        from repro.app.behavior import EchoBehavior
        from repro.core.protocol import KOptimisticProcess

        proc = KOptimisticProcess(0, 4, 4, EchoBehavior())
        with pytest.raises(RuntimeError):
            proc.on_receive(make_msg(1, 0))

    def test_negative_k_rejected(self):
        from repro.app.behavior import EchoBehavior
        from repro.core.protocol import KOptimisticProcess

        with pytest.raises(ValueError):
            KOptimisticProcess(0, 4, -1, EchoBehavior())


class TestDeliverMessage:
    def test_delivery_starts_next_interval(self):
        proc = make_proc()
        deliver_env(proc)
        assert proc.current == Entry(0, 2)

    def test_own_entry_tracks_current(self):
        proc = make_proc()
        deliver_env(proc)
        assert proc.tdv.get(proc.pid) == Entry(0, 2)

    def test_piggybacked_dependencies_merged(self):
        proc = make_proc(pid=0, n=4)
        msg = make_msg(1, 0, entries={1: Entry(0, 5), 2: Entry(1, 3)})
        proc.on_receive(msg)
        assert proc.tdv.get(1) == Entry(0, 5)
        assert proc.tdv.get(2) == Entry(1, 3)

    def test_merge_is_lexicographic_max(self):
        proc = make_proc(pid=0, n=4)
        proc.on_receive(make_msg(1, 0, entries={2: Entry(0, 9)}))
        proc.on_receive(make_msg(1, 0, entries={1: Entry(0, 6), 2: Entry(0, 4)}))
        assert proc.tdv.get(2) == Entry(0, 9)

    def test_delivery_effect_emitted(self):
        proc = make_proc()
        effects = deliver_env(proc)
        delivered = effects_of(effects, MessageDelivered)
        assert len(delivered) == 1
        assert delivered[0].interval == Entry(0, 2)
        assert not delivered[0].replay

    def test_delivery_appends_to_volatile_buffer(self):
        proc = make_proc()
        deliver_env(proc)
        deliver_env(proc)
        assert len(proc.volatile) == 2

    def test_app_handler_runs(self):
        proc = make_proc()
        deliver_env(proc, payload={"x": 1})
        assert proc.app_state["delivered"] == 1
        assert proc.app_state["log"] == [{"x": 1}]

    def test_duplicate_dropped(self):
        proc = make_proc()
        msg = make_msg(1, 0, entries={1: Entry(0, 2)})
        proc.on_receive(msg)
        effects = proc.on_receive(msg)
        assert effects_of(effects, DuplicateDropped)
        assert proc.stats.duplicates_dropped == 1
        assert proc.stats.deliveries == 1


class TestCheckDeliverability:
    """Delay only when two incarnations of the same process conflict and the
    smaller one is not known stable."""

    def test_no_conflict_delivers_immediately(self):
        proc = make_proc(pid=0, n=4)
        effects = proc.on_receive(make_msg(1, 0, entries={1: Entry(0, 5)}))
        assert effects_of(effects, MessageDelivered)

    def test_corollary_1_no_local_entry_means_no_delay(self):
        # The P5/m7 case: a dependency on a *newer* incarnation of P1 is
        # adopted without waiting because there is nothing to overwrite.
        proc = make_proc(pid=5, n=6)
        m7 = make_msg(1, 5, n=6, entries={1: Entry(1, 5)})
        effects = proc.on_receive(m7)
        assert effects_of(effects, MessageDelivered)
        assert proc.tdv.get(1) == Entry(1, 5)

    def test_conflicting_incarnations_delay(self):
        # The P4/m6 case: local (0,4)_1 vs incoming (1,5)_1, with (0,4)_1
        # not yet known stable: hold the message.
        proc = make_proc(pid=4, n=6)
        proc.on_receive(make_msg(3, 4, n=6, entries={1: Entry(0, 4)}))
        m6 = make_msg(2, 4, n=6, entries={1: Entry(1, 5)})
        effects = proc.on_receive(m6)
        assert not effects_of(effects, MessageDelivered)
        assert len(proc.receive_buffer) == 1

    def test_held_message_released_by_failure_announcement(self):
        # r1 doubles as a logging progress notification for (0,4)_1
        # (Corollary 1), which unblocks m6.
        proc = make_proc(pid=4, n=6)
        proc.on_receive(make_msg(3, 4, n=6, entries={1: Entry(0, 4)}))
        proc.on_receive(make_msg(2, 4, n=6, entries={1: Entry(1, 5)}))
        effects = proc.on_failure_announcement(make_announcement(1, 0, 4))
        assert effects_of(effects, MessageDelivered)
        assert proc.tdv.get(1) == Entry(1, 5)  # lexicographic max applied
        assert not proc.receive_buffer

    def test_held_message_released_by_log_notification(self):
        proc = make_proc(pid=4, n=6)
        proc.on_receive(make_msg(3, 4, n=6, entries={1: Entry(0, 4)}))
        proc.on_receive(make_msg(2, 4, n=6, entries={1: Entry(1, 5)}))
        rows = [{} for _ in range(6)]
        rows[1] = {0: 4}  # incarnation 0 of P1 stable through 4
        effects = proc.on_log_notification(log_notification(1, rows))
        assert effects_of(effects, MessageDelivered)

    def test_smaller_incoming_incarnation_also_gated(self):
        # Local (1,5)_1, incoming (0,9)_1: the *incoming* entry is smaller
        # and must be known stable before delivery.
        proc = make_proc(pid=4, n=6)
        proc.on_receive(make_msg(3, 4, n=6, entries={1: Entry(1, 5)}))
        late = make_msg(2, 4, n=6, entries={1: Entry(0, 9)})
        effects = proc.on_receive(late)
        assert not effects_of(effects, MessageDelivered)

    def test_same_incarnation_never_delays(self):
        proc = make_proc(pid=4, n=6)
        proc.on_receive(make_msg(3, 4, n=6, entries={1: Entry(0, 4)}))
        effects = proc.on_receive(make_msg(2, 4, n=6, entries={1: Entry(0, 9)}))
        assert effects_of(effects, MessageDelivered)
        assert proc.tdv.get(1) == Entry(0, 9)

    def test_deliver_loop_cascades(self):
        # Delivering one message can unblock another held one.
        proc = make_proc(pid=4, n=6)
        proc.on_receive(make_msg(3, 4, n=6, entries={1: Entry(0, 4)}))
        held = proc.on_receive(make_msg(2, 4, n=6, entries={1: Entry(1, 5)}))
        assert not effects_of(held, MessageDelivered)
        # Announcement unblocks; both the announcement handler's delivery
        # loop and subsequent receives keep draining the buffer.
        proc.on_failure_announcement(make_announcement(1, 0, 4))
        effects = proc.on_receive(make_msg(2, 4, n=6, entries={1: Entry(1, 6)}))
        assert effects_of(effects, MessageDelivered)
        assert not proc.receive_buffer
