"""What a process sent that must still arrive, as one sans-IO component.

Footnote 3: lost in-transit messages "can be retrieved from the senders'
volatile logs".  A window of 0 disables that sent-log.  Timer-driven
ack/retransmit (for unreliable networks): every released message, and
every destination's copy of a failure announcement, stays pending until
the destination acks it; a timer (requested as a ScheduleRetransmit effect
and interpreted by the runtime) re-sends it with exponential backoff, up
to ``budget`` attempts.  A timeout of 0 disables.  Keys: a message's id,
or ``(announcement, destination)``.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Dict, Iterable, List, Mapping

from repro.core.effects import (BroadcastAnnouncement, Effect, ReleaseMessage,
                                ScheduleRetransmit, SendControl)
from repro.net.message import Ack, AppMessage, FailureAnnouncement
from repro.types import ProcessId


class _PendingSend:
    """What must arrive and awaits ``dst``'s ack: a released message, or
    one destination's copy of a failure announcement."""

    __slots__ = ("msg", "dst", "attempts", "next_delay", "sent_at")

    def __init__(self, msg: Any, dst: ProcessId, next_delay: float,
                 sent_at: float):
        self.msg = msg
        self.dst = dst
        self.attempts = 0
        self.next_delay = next_delay
        self.sent_at = sent_at


class Retransmission:
    """One process's sent-log and pending map; counters go to its stats."""

    #: Each retransmission of an unacked message waits this factor longer
    #: than the one before.
    RETRANSMIT_BACKOFF = 2.0

    def __init__(self, pid: ProcessId, n: int, stats: Any,
                 now_fn: Callable[[], float], window: int, timeout: float,
                 budget: int):
        self.pid = pid
        self.n = n
        self.stats = stats
        self.now_fn = now_fn
        self.window = window
        self.timeout = timeout
        self.budget = budget
        self._sent_log: Dict[ProcessId, List[AppMessage]] = {}
        self._unacked: Dict[Any, _PendingSend] = {}

    @property
    def pending(self) -> Mapping[Any, Any]:
        """What awaits an ack, by key (read-only)."""
        return MappingProxyType(self._unacked)

    @property
    def sent_log(self) -> Dict[ProcessId, List[AppMessage]]:
        """The footnote-3 copies, by destination."""
        return self._sent_log

    def unacked_messages(self) -> List[AppMessage]:
        """Released messages still awaiting an ack (a checkpoint owes them)."""
        return [p.msg for p in self._unacked.values()
                if isinstance(p.msg, AppMessage)]

    def record(self, msg: AppMessage) -> None:
        """Keep a copy of a message leaving the send buffer."""
        if self.window > 0:
            copies = self._sent_log.setdefault(msg.dst, [])
            copies.append(msg)
            del copies[: -self.window]

    def resend_to(self, dst: ProcessId,
                  is_orphan: Callable[[AppMessage], bool]) -> List[AppMessage]:
        """Footnote 3: the recent messages to re-send to a restarted
        process from the volatile sent-log; its receive buffer died with
        it.  Duplicates are harmless (receivers deduplicate by message id)
        and orphan copies are pruned here and discarded again on receipt."""
        if self.window <= 0:
            return []
        copies = self._sent_log.get(dst)
        if not copies:
            return []
        survivors = [m for m in copies if not is_orphan(m)]
        self._sent_log[dst] = survivors
        self.stats.retransmissions += len(survivors)
        return survivors

    def release(self, msg: AppMessage) -> List[Effect]:
        """Put ``msg`` on the wire; with timer-driven retransmission on, it
        then stays pending until acked (one timer per pending message)."""
        if self.timeout <= 0 or msg.msg_id in self._unacked:
            return [ReleaseMessage(msg)]
        return [ReleaseMessage(msg), self._pending(msg.msg_id, msg, msg.dst)]

    def broadcast(self, ann: FailureAnnouncement,
                  earlier: Iterable[FailureAnnouncement] = ()) -> List[Effect]:
        """Broadcast ``ann``; with timer-driven retransmission on, each
        destination's copy then stays pending until that destination acks
        it — the reliable broadcast Theorem 1's orphan detection needs.
        ``earlier`` are announcements of this process that a crash dropped
        the pending copies of: with acks on they go again first (receivers
        skip what they hold)."""
        effects: List[Effect] = []
        if self.timeout > 0:
            for old in earlier:
                if old.origin == self.pid and old != ann:
                    effects += self.broadcast(old)
        effects.append(BroadcastAnnouncement(ann))
        if self.timeout > 0:
            effects += [self._pending((ann, dst), ann, dst)
                        for dst in range(self.n) if dst != self.pid]
        return effects

    def _pending(self, key: Any, msg: Any, dst: ProcessId) -> ScheduleRetransmit:
        """Record ``msg`` as awaiting ``dst``'s ack; its first timer."""
        self._unacked[key] = _PendingSend(
            msg, dst, self.timeout * self.RETRANSMIT_BACKOFF, self.now_fn())
        return ScheduleRetransmit(key, self.timeout)

    def ack(self, dst: ProcessId, of: Any) -> List[Effect]:
        """With acks on, tell ``dst`` that ``of`` (a message id or an
        announcement) arrived."""
        if self.timeout <= 0:
            return []
        return [SendControl(dst, Ack(of, self.pid, dst))]

    def on_ack(self, ack: Ack) -> List[Effect]:
        """An ack arrived: its sender holds the message or announcement,
        so stop retransmitting it there.  Idempotent (acks may be
        duplicated, and one may outlive the entry it acks)."""
        if isinstance(ack.of, FailureAnnouncement):
            pending = self._unacked.pop((ack.of, ack.src), None)
            if pending is not None:
                self.stats.ctl_acked += 1
                self.stats.ack_rtt_total += self.now_fn() - pending.sent_at
        elif self._unacked.pop(ack.of, None) is not None:
            self.stats.acks_received += 1
        return []

    def on_timer(self, key: Any,
                 is_orphan: Callable[[AppMessage], bool]) -> List[Effect]:
        """A retransmission timer fired (the runtime interpreting an
        earlier :class:`ScheduleRetransmit`).

        Re-sends the message or announcement copy and re-arms the timer
        with exponential backoff unless it was acked in the meantime, the
        message became an orphan, or the bounded retry budget ran out.
        The re-release is safe: the receiver deduplicates by message id
        (an announcement by its end), and stability only grows, so
        Theorem 4's bound still holds at every re-release.
        """
        pending = self._unacked.get(key)
        if pending is None:
            return []
        msg = pending.msg
        released = isinstance(msg, AppMessage)
        if released and is_orphan(msg):
            del self._unacked[key]
            return []
        stats = self.stats
        if pending.attempts >= self.budget:
            del self._unacked[key]
            if released:
                stats.retransmit_budget_exhausted += 1
            else:
                stats.ctl_budget_exhausted += 1
            return []
        pending.attempts += 1
        delay = pending.next_delay
        pending.next_delay *= self.RETRANSMIT_BACKOFF
        if released:
            stats.timer_retransmissions += 1
            resend: Effect = ReleaseMessage(msg)
        else:
            stats.ctl_retransmits += 1
            resend = SendControl(pending.dst, msg)
        return [resend, ScheduleRetransmit(key, delay)]

    def scrub(self, is_orphan: Callable[[AppMessage], bool]) -> None:
        """Stop retransmitting orphans: pointless."""
        for key in [key for key, pending in self._unacked.items()
                    if isinstance(pending.msg, AppMessage)
                    and is_orphan(pending.msg)]:
            del self._unacked[key]

    def clear(self) -> None:
        """A crash: the sent-log and the pending map are volatile."""
        self._sent_log.clear()
        self._unacked.clear()
