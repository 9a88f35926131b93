"""Effects emitted by the sans-IO protocol core.

Protocol handlers return a list of effects instead of performing IO, so the
Figures 2-3 logic is testable in isolation.  The runtime interprets the
actionable effects (transmit, broadcast, commit); the informational ones
feed tracing, metrics, and the ground-truth oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.entry import Entry
from repro.net.message import AppMessage, FailureAnnouncement, OutputRecord


class Effect:
    """Marker base class for everything a protocol handler can request."""


# -- actionable ---------------------------------------------------------------


@dataclass
class ReleaseMessage(Effect):
    """Hand a message to the network (it left the Send_buffer)."""

    message: AppMessage


@dataclass
class BroadcastAnnouncement(Effect):
    """Broadcast a failure announcement to every other process."""

    announcement: FailureAnnouncement


@dataclass
class CommitOutput(Effect):
    """Release an output to the outside world (all its deps are stable).

    ``wait`` is the buffer residence time (enqueue to commit, in virtual
    units) — the raw material of output-commit latency accounting."""

    record: OutputRecord
    wait: float = 0.0


@dataclass
class SendControl(Effect):
    """Send one control message to process ``dst``: an ack, a retransmitted
    announcement copy, a logging request or the notification answering
    one, a delta-encoded notification, or a protocol variant's own
    :class:`~repro.net.message.ControlMessage`."""

    dst: int
    payload: Any


@dataclass
class MulticastControl(Effect):
    """Send one control message to several processes in one transport call:
    ``dsts`` in the order given, or every other process when ``dsts`` is
    None (a periodic notification's broadcast)."""

    dsts: Optional[List[int]]
    payload: Any


@dataclass
class ScheduleRetransmit(Effect):
    """Ask the runtime to fire :meth:`on_retransmit_timer` for ``key``
    after ``delay`` time units.

    ``key`` names an entry awaiting an ack: a released message's id, or
    ``(announcement, destination)`` for one copy of a failure
    announcement.  The protocol core is sans-IO, so it cannot own timers;
    it requests them as effects and the runtime calls back.  The handler
    is idempotent — if the entry was acked (or orphaned, or the process
    crashed) by the time the timer fires, nothing happens.
    """

    key: Any
    delay: float


# -- informational ----------------------------------------------------------


@dataclass
class StableProgress(Effect):
    """Every interval of this process up to ``through`` is now on stable
    storage (a flush, checkpoint, or forced log during recovery).

    Emitted *in stream order*, before any release that the new stability
    enables, so observers (oracle, metrics) never lag the protocol.
    """

    pid: int
    through: Entry


@dataclass
class MessageDelivered(Effect):
    """A message was delivered to the application, starting ``interval``.

    ``replay`` marks deterministic re-execution of an existing stable
    interval (after a failure), as opposed to a brand-new interval.
    ``sends`` (``(dst, payload, k)`` triples) and ``outputs`` are what the
    application handler produced in the interval, in order: piecewise
    determinism says a replay produces them again.
    """

    message: AppMessage
    interval: Entry
    replay: bool = False
    sends: Sequence[Tuple[int, Any, Optional[int]]] = ()
    outputs: Sequence[Any] = ()


@dataclass
class MessageDiscarded(Effect):
    """A message was discarded as an orphan (Check_orphan)."""

    message: AppMessage
    reason: str


@dataclass
class OutputDiscarded(Effect):
    """A buffered output was discarded because its interval is orphaned."""

    record: OutputRecord


@dataclass
class DuplicateDropped(Effect):
    """A duplicate transmission (replay re-send) was ignored on receipt."""

    message: AppMessage


@dataclass
class RollbackPerformed(Effect):
    """A non-failed process rolled back orphaned intervals (Rollback)."""

    pid: int
    restored_to: Entry
    new_current: Entry
    intervals_undone: int
    requeued: int


@dataclass
class RestartPerformed(Effect):
    """A failed process completed Restart."""

    pid: int
    announcement: FailureAnnouncement
    replayed: int
    new_current: Entry
