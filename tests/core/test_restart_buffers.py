"""What a checkpoint owes survives a crash after it.

Replay regenerates only what the intervals after the restored checkpoint
send and output.  Everything the intervals up to it still owed when it
was taken — a pending output, a held send, a message received but not yet
delivered, a send released but not yet acknowledged — lives in volatile
buffers that a crash wipes; a Restart from that checkpoint must take them
back from the checkpoint itself, or they are lost for good.  The last
class is footnote 3's window retransmission, which must ride the ack
timer like any release.

Each scenario runs on both backends: the file log's checkpoint record
crosses the journal codec and a REDO scan.
"""

import pytest

from repro.core.effects import (
    CommitOutput,
    DuplicateDropped,
    MessageDelivered,
    ReleaseMessage,
    ScheduleRetransmit,
)
from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.core.tables import LoggingProgressTable
from repro.net.message import Ack, LogProgressNotification
from repro.storage.filelog import FileLogBackend
from repro.storage.stable import ModelBackend
from repro.types import MessageId
from helpers import Scripted, effects_of, make_announcement, make_msg, make_proc

N = 3


@pytest.fixture(params=["model", "filelog"])
def storage(request, tmp_path):
    if request.param == "model":
        yield ModelBackend(0)
    else:
        backend = FileLogBackend(0, str(tmp_path / "p0"))
        yield backend
        backend.close()


def proc_over(storage, k=2, **kwargs):
    return make_proc(0, n=N, k=k, behavior=Scripted(), storage=storage,
                     **kwargs)


def step(proc, effects):
    """What the executor does first with every step: the write-ahead
    barrier (a no-op on the model)."""
    proc.storage.barrier()
    return effects


def notification(origin, *triples):
    table = LoggingProgressTable(N)
    for pid, inc, sii in triples:
        table.insert(pid, Entry(inc, sii))
    return LogProgressNotification(origin, table.snapshot_columns())


def crash_and_restart(proc):
    proc.crash()
    return step(proc, proc.restart())


def released(effects):
    return [e.message.msg_id for e in effects_of(effects, ReleaseMessage)]


class TestCheckpointKeepsWhatItOwes:
    def test_pending_output(self, storage):
        proc = proc_over(storage)
        # The output depends on P1's interval (0, 5), not yet stable.
        step(proc, proc.on_receive(make_msg(
            1, 0, n=N, entries={1: Entry(0, 5)}, payload={"outputs": ["o"]})))
        step(proc, proc.checkpoint())
        assert len(proc.output_buffer) == 1
        crash_and_restart(proc)
        assert len(proc.output_buffer) == 1
        effects = step(proc, proc.on_log_notification(
            notification(1, (1, 0, 5))))
        (commit,) = effects_of(effects, CommitOutput)
        assert commit.record.payload == "o"
        assert proc.stats.outputs_committed == 1

    def test_committed_output_is_not_taken_back(self, storage):
        proc = proc_over(storage)
        step(proc, proc.on_receive(make_msg(
            1, 0, n=N, entries={1: Entry(0, 5)}, payload={"outputs": ["o"]})))
        step(proc, proc.checkpoint())
        step(proc, proc.on_log_notification(notification(1, (1, 0, 5))))
        assert proc.stats.outputs_committed == 1
        crash_and_restart(proc)
        assert len(proc.output_buffer) == 0

    def test_held_send(self, storage):
        proc = proc_over(storage, k=0)
        step(proc, proc.on_receive(make_msg(
            1, 0, n=N, entries={1: Entry(0, 5)}, payload={"sends": [(2, None)]})))
        step(proc, proc.checkpoint())
        (held,) = proc.send_buffer
        enqueued = proc.stats.messages_enqueued
        crash_and_restart(proc)
        assert [m.msg_id for m in proc.send_buffer] == [held.msg_id]
        assert proc.stats.messages_enqueued == enqueued + 1
        effects = step(proc, proc.on_log_notification(
            notification(1, (1, 0, 5))))
        assert released(effects) == [held.msg_id]
        assert proc.stats.messages_released <= proc.stats.messages_enqueued

    def test_received_undelivered(self, storage):
        proc = proc_over(storage)
        step(proc, proc.on_receive(make_msg(
            1, 0, n=N, entries={1: Entry(0, 5)})))
        # P1's incarnation 1 while we depend on its incarnation 0, which no
        # one has reported stable: Check_deliverability holds the message.
        waiting = make_msg(2, 0, n=N, entries={1: Entry(1, 7),
                                               2: Entry(0, 3)})
        assert not effects_of(step(proc, proc.on_receive(waiting)),
                              MessageDelivered)
        step(proc, proc.checkpoint())
        crash_and_restart(proc)
        # A retransmission is a duplicate: only the checkpoint's copy is left.
        assert effects_of(proc.on_receive(waiting), DuplicateDropped)
        effects = step(proc, proc.on_log_notification(
            notification(1, (1, 0, 5))))
        (delivered,) = effects_of(effects, MessageDelivered)
        assert delivered.message.msg_id == waiting.msg_id

    def test_received_then_delivered_and_logged_is_not_taken_back(self,
                                                                  storage):
        proc = proc_over(storage)
        step(proc, proc.on_receive(make_msg(
            1, 0, n=N, entries={1: Entry(0, 5)})))
        waiting = make_msg(2, 0, n=N, entries={1: Entry(1, 7)})
        step(proc, proc.on_receive(waiting))
        step(proc, proc.checkpoint())
        step(proc, proc.on_log_notification(notification(1, (1, 0, 5))))
        step(proc, proc.flush())            # the delivery is logged
        deliveries = proc.stats.deliveries
        effects = crash_and_restart(proc)
        # Replayed from the log, once; nothing left to deliver again.
        assert [e.message.msg_id for e in effects_of(effects, MessageDelivered)
                ] == [waiting.msg_id]
        assert proc.receive_buffer == []
        assert proc.stats.deliveries == deliveries + 1

    def test_released_unacked_send_on_a_lossy_channel(self, storage):
        proc = proc_over(storage, k=N, retransmit_timeout=4.0)
        effects = step(proc, proc.on_receive(make_msg(
            1, 0, n=N, entries={1: Entry(0, 5)},
            payload={"sends": [(2, None)]})))
        (lost,) = released(effects)        # and the channel drops it
        step(proc, proc.checkpoint())
        assert proc.unacked_count == 1
        effects = crash_and_restart(proc)
        assert released(effects) == [lost]
        # The Restart's announcement copies are pending too.
        assert [e.key for e in effects_of(effects, ScheduleRetransmit)
                if isinstance(e.key, MessageId)] == [lost]
        assert lost in proc.retransmit.pending

    def test_orphaned_buffers_are_not_taken_back(self, storage):
        proc = proc_over(storage, k=0)
        step(proc, proc.on_receive(make_msg(
            1, 0, n=N, entries={1: Entry(0, 5)},
            payload={"sends": [(2, None)], "outputs": ["o"]})))
        (held,) = proc.send_buffer
        (pending,) = proc.output_buffer.pending
        # A recovery point whose own vector is clean, while what it owes
        # depends on P1's interval (0, 5) ...
        proc.storage.write_checkpoint(
            proc.current, proc.app_state, DependencyVector(N),
            proc.received_ids,
            receive_buffer=[make_msg(1, 0, n=N, entries={1: Entry(0, 6)})],
            sends=[held], outputs=[(pending.record, pending.tdv)])
        # ... which P1's announcement then makes an orphan.
        proc.storage.log_announcement(make_announcement(1, 0, 4))
        step(proc, [])
        crash_and_restart(proc)
        assert proc.receive_buffer == [] and proc.send_buffer == []
        assert len(proc.output_buffer) == 0


class TestWindowRetransmissionRidesTheAckTimer:
    def test_a_dropped_window_retransmission_is_retried(self, storage):
        proc = proc_over(storage, k=N, retransmit_window=4,
                         retransmit_timeout=4.0)
        effects = step(proc, proc.on_receive(make_msg(
            1, 0, n=N, payload={"sends": [(2, None)]})))
        (msg_id,) = released(effects)
        step(proc, proc.on_ack(Ack(msg_id, 2, 0)))
        assert proc.unacked_count == 0
        # P2 restarts: footnote 3 re-sends the window to it ...
        effects = step(proc, proc.on_failure_announcement(
            make_announcement(2, 0, 0)))
        assert released(effects) == [msg_id]
        # ... and the re-send stays pending until acked, so a drop on the
        # way is retried.
        assert [e.key for e in effects_of(effects, ScheduleRetransmit)] \
            == [msg_id]
        assert released(step(proc, proc.on_retransmit_timer(msg_id))) \
            == [msg_id]

    def test_a_still_pending_message_keeps_its_one_timer(self, storage):
        proc = proc_over(storage, k=N, retransmit_window=4,
                         retransmit_timeout=4.0)
        effects = step(proc, proc.on_receive(make_msg(
            1, 0, n=N, payload={"sends": [(2, None)]})))
        (msg_id,) = released(effects)
        effects = step(proc, proc.on_failure_announcement(
            make_announcement(2, 0, 0)))
        assert released(effects) == [msg_id]
        assert not effects_of(effects, ScheduleRetransmit)
