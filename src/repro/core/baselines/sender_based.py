"""Sender-based message logging (Borg et al. [1]; Johnson & Zwaenepoel).

The paper's reference [1] keeps each message in its **sender's volatile
memory** instead of forcing it to the receiver's disk.  The receiver tells
the sender the *receive sequence number* (RSN) it assigned — here the
interval the delivery started, whose ``sii`` counts deliveries:

1. the sender releases m and keeps a copy (:meth:`_release`);
2. the receiver delivers m and acks (m, RSN) (:class:`SBAck`);
3. the sender stamps its copy with the RSN and confirms (:class:`SBConfirm`);
4. the receiver's interval becomes stable once every delivery up to it is
   confirmed (:meth:`_advance_stability`).  At K = 0 a message leaves
   only from a stable interval, so the classic send gate *is* the K = 0
   release rule, and no failure ever revokes a message.

Outside-world inputs have no logging sender: the receiver force-logs them
(one synchronous write).  A checkpoint makes every interval up to it
stable, stores the sender log with the state and tells every peer how far
it reached (:class:`SBCheckpointNote`), so they can drop their copies.

Restart restores the checkpoint, asks every peer for its copies
(:class:`SBLogRequest`), replays the stamped ones and its own logged
inputs in RSN order, delivers unstamped copies afterwards as new messages,
and only then announces.  A reply also re-acks every delivery the peer
made from the requester since its last checkpoint, which gives the
restored copies their stamps back and confirms what the crash left
unconfirmed.

The scheme tolerates one failure at a time.  A sender and a receiver that
fail inside one recovery window lose copies the receiver needs: its replay
stops short of intervals others depend on, and the certifier reports the
orphans that survive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.baselines.pessimistic import PessimisticProcess
from repro.core.effects import Effect, SendControl, StableProgress
from repro.core.entry import Entry
from repro.core.protocol import KOptimisticProcess
from repro.net.message import AppMessage, ControlMessage
from repro.storage.stable import LoggedMessage
from repro.types import MessageId, ProcessId


@dataclass(frozen=True)
class SBAck(ControlMessage):
    """Receiver -> sender: ``msg_id`` was delivered starting interval ``at``."""

    receiver: ProcessId
    msg_id: MessageId
    at: Entry


@dataclass(frozen=True)
class SBConfirm(ControlMessage):
    """Sender -> receiver: the RSNs of ``msg_ids`` are recorded."""

    msg_ids: Tuple[MessageId, ...]


@dataclass(frozen=True)
class SBCheckpointNote(ControlMessage):
    """Receiver -> everyone: checkpointed through interval index ``through``."""

    receiver: ProcessId
    through: int


@dataclass(frozen=True)
class SBLogRequest(ControlMessage):
    """Restarting receiver -> everyone: send the copies it delivers after
    interval index ``after`` (its restored checkpoint's)."""

    requester: ProcessId
    round: int
    after: int


@dataclass(frozen=True)
class SBLogReply(ControlMessage):
    """Peer -> restarting receiver: its copies with their RSNs (``None``
    when never acked), and the RSN of every delivery it made from the
    receiver since its own last checkpoint."""

    sender: ProcessId
    round: int
    copies: Tuple[Tuple[AppMessage, Optional[Entry]], ...]
    acks: Tuple[Tuple[MessageId, Entry], ...]


class SenderBasedProcess(PessimisticProcess):
    """0-risk logging with the message log at the sender.

    Run it with ``SimConfig(k=0)`` on a reliable network: the certifier
    then judges its releases at K = 0, and a lossy network leaves runs
    unquiescent."""

    def __init__(self, pid, n, k=0, behavior=None, **kwargs):
        super().__init__(pid, n, 0, behavior, **kwargs)
        #: The sender log: copies of released messages, and the RSN each
        #: receiver acked for them.
        self._copies: Dict[MessageId, AppMessage] = {}
        self._rsn: Dict[MessageId, Entry] = {}
        #: Peer deliveries since the last checkpoint (re-acked to their
        #: restarting sender), and those not yet confirmed, in delivery
        #: order.
        self._delivered: Dict[MessageId, Entry] = {}
        self._unconfirmed: Dict[MessageId, Entry] = {}
        #: While Restart collects the peers' copies: their replies.
        self._replies: Optional[Dict[ProcessId, SBLogReply]] = None
        self._round = 0

    # The gate needs the own entry on every held message.
    _piggyback_vector = KOptimisticProcess._piggyback_vector

    def _peers(self) -> List[ProcessId]:
        return [pid for pid in range(self.n) if pid != self.pid]

    # -- the send gate -------------------------------------------------------

    def _post_delivery_effects(self) -> List[Effect]:
        (record,) = self.volatile.drain()
        msg = record.message
        if msg.src < 0:
            # No sender logs an outside-world input: log it here.
            self.storage.append_log([record], sync=True)
            return self._advance_stability()
        self._delivered[msg.msg_id] = self.current
        self._unconfirmed[msg.msg_id] = self.current
        return [SendControl(msg.src, SBAck(self.pid, msg.msg_id, self.current))]

    def _advance_stability(self) -> List[Effect]:
        """Extend the own log row through the last interval whose every
        delivery is confirmed or logged here."""
        current = self.current
        sii = (next(iter(self._unconfirmed.values())).sii - 1
               if self._unconfirmed else current.sii)
        through = Entry(current.inc, sii)
        if self.log.covers(self.pid, through):
            return []
        self.log.insert(self.pid, through)
        if sii == current.sii:
            self.tdv.nullify(self.pid)
        return [StableProgress(self.pid, through)]

    def _release(self, msg: AppMessage) -> List[Effect]:
        self._copies[msg.msg_id] = msg
        return super()._release(msg)

    def _deliverable(self, msg: AppMessage) -> bool:
        # Mid-Restart, arrivals wait behind the replay.
        return self._replies is None and super()._deliverable(msg)

    # -- control traffic ------------------------------------------------------

    def on_control(self, payload: ControlMessage) -> List[Effect]:
        self._require_running()
        if isinstance(payload, SBAck):
            self._rsn[payload.msg_id] = payload.at
            return [SendControl(payload.receiver, SBConfirm((payload.msg_id,)))]
        if isinstance(payload, SBConfirm):
            for msg_id in payload.msg_ids:
                self._unconfirmed.pop(msg_id, None)
            effects = self._advance_stability()
            if not effects:
                return effects
            effects += self._check_send_buffer()
            effects += self._update_output_buffer()
            return effects
        if isinstance(payload, SBCheckpointNote):
            for msg_id in [
                    msg_id for msg_id, msg in self._copies.items()
                    if msg.dst == payload.receiver and msg_id in self._rsn
                    and self._rsn[msg_id].sii <= payload.through]:
                del self._copies[msg_id], self._rsn[msg_id]
            return []
        if isinstance(payload, SBLogRequest):
            return self._answer(payload)
        if isinstance(payload, SBLogReply):
            return self._collect(payload)
        raise TypeError(f"unexpected payload {payload!r}")

    def _answer(self, request: SBLogRequest) -> List[Effect]:
        requester = request.requester
        copies = []
        for msg_id, msg in self._copies.items():
            at = self._rsn.get(msg_id)
            if msg.dst == requester and (at is None or at.sii > request.after):
                copies.append((msg, at))
        acks = tuple((msg_id, at) for msg_id, at in self._delivered.items()
                     if msg_id.sender == requester)
        effects: List[Effect] = [SendControl(requester, SBLogReply(
            self.pid, request.round, tuple(copies), acks))]
        if self._replies is not None and requester not in self._replies:
            # It was down when our own request went out: ask again.
            effects.append(SendControl(requester, SBLogRequest(
                self.pid, self._round, self.current.sii)))
        return effects

    # -- checkpoint, crash, restart -------------------------------------------

    def checkpoint(self) -> List[Effect]:
        """Every interval through ``current`` becomes recoverable from the
        checkpoint itself: stable, no longer gated on confirmations."""
        self._require_running()
        if self._replies is not None:
            return []  # mid-Restart: nothing new to save
        self._unconfirmed.clear()
        self._delivered.clear()
        effects = self._advance_stability()
        effects += self._check_send_buffer()
        effects += self._update_output_buffer()
        self.storage.write_checkpoint(
            self.current, self.app_state, self.tdv, self.received_ids,
            time_taken=self.now_fn(), sends=self._copies.values())
        if self.gc_on_checkpoint:
            self._garbage_collect()
        note = SBCheckpointNote(self.pid, self.current.sii)
        effects += [SendControl(peer, note) for peer in self._peers()]
        return effects

    def crash(self) -> None:
        super().crash()
        self._copies.clear()
        self._rsn.clear()
        self._delivered.clear()
        self._unconfirmed.clear()
        self._replies = None

    def restart(self) -> List[Effect]:
        """Restore the latest checkpoint and ask the peers for their copies;
        :meth:`_finish_restart` replays and announces once all answered."""
        self._recover_tables()
        checkpoints = self.storage.checkpoints
        checkpoint = self.storage.restore_checkpoint(len(checkpoints) - 1)
        self.app_state = checkpoint.app_state
        self.current = checkpoint.entry
        self.tdv = checkpoint.tdv
        self.received_ids = set(checkpoint.received_ids)
        self._highest_inc = max(self._highest_inc, checkpoint.entry.inc)
        self._copies = {msg.msg_id: msg for msg in checkpoint.sends}
        self.failed = False
        self._round += 1
        self._replies = {}
        if self.n == 1:
            return self._finish_restart()
        request = SBLogRequest(self.pid, self._round, checkpoint.entry.sii)
        return [SendControl(peer, request) for peer in self._peers()]

    def _collect(self, reply: SBLogReply) -> List[Effect]:
        if self._replies is None or reply.round != self._round:
            return []  # an answer to a request a crash overtook
        self._replies[reply.sender] = reply
        for msg_id, at in reply.acks:
            self._rsn[msg_id] = at
        effects: List[Effect] = []
        if reply.acks:
            effects.append(SendControl(reply.sender, SBConfirm(
                tuple(msg_id for msg_id, _at in reply.acks))))
        if len(self._replies) == self.n - 1:
            effects += self._finish_restart()
        return effects

    def _finish_restart(self) -> List[Effect]:
        replies, self._replies = self._replies, None
        # A restored copy its receiver did not re-ack was delivered before
        # that receiver's checkpoint: it is never needed again.
        self._copies = {msg_id: msg for msg_id, msg in self._copies.items()
                        if msg_id in self._rsn}
        stamped: Dict[int, LoggedMessage] = {}
        fresh: List[AppMessage] = []
        for peer in sorted(replies):
            for msg, at in replies[peer].copies:
                if at is None:
                    fresh.append(msg)
                else:
                    stamped[at.sii] = LoggedMessage(at.sii, at.inc, msg)
        for record in self.storage.logged_after(self.current.sii):
            stamped[record.position] = record
        # The first interval of each earlier incarnation starts no delivery.
        starts = {ann.end.sii + 1: ann.end.inc + 1
                  for ann in self.storage.announcements
                  if ann.origin == self.pid}

        effects: List[Effect] = []
        replayed = set()
        self._replay_backdate = self._down_since
        try:
            while True:
                sii = self.current.sii + 1
                if sii in stamped:
                    record = stamped.pop(sii)
                    msg = record.message
                    effects += self._deliver(msg, replay_record=record)
                    replayed.add(msg.msg_id)
                    if msg.src >= 0:
                        self._delivered[msg.msg_id] = self.current
                elif sii in starts:
                    self.current = Entry(starts[sii], sii)
                else:
                    break
        finally:
            self._replay_backdate = None
            self._down_since = None

        # Past a gap in the RSNs, and for copies never acked, the messages
        # are delivered anew, before what arrived during the collection.
        self.storage.pop_logged_after(self.current.sii)
        requeued = [stamped[sii].message for sii in sorted(stamped)] + fresh
        buffered = [msg for msg in self.receive_buffer
                    if msg.msg_id not in replayed]
        self.receive_buffer = []
        for msg in requeued:
            if msg.msg_id not in self.received_ids:
                self.received_ids.add(msg.msg_id)
                self.receive_buffer.append(msg)
        self.receive_buffer += buffered
        effects = self._announce_restart(effects, len(replayed))
        self._rsn = {msg_id: at for msg_id, at in self._rsn.items()
                     if msg_id in self._copies}
        return effects

    @property
    def unacked_count(self) -> int:
        """Also counts, while Restart collects copies, each peer yet to
        answer: the process is not quiescent before it has announced."""
        waiting = 0 if self._replies is None else self.n - 1 - len(self._replies)
        return super().unacked_count + waiting
