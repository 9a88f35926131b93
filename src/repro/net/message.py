"""Wire-level message types.

Three kinds of traffic exist in the paper's system:

- **application messages** (solid lines in Figure 1) — carry a payload plus
  the sender's piggybacked dependency vector ``m.tdv``;
- **rollback / failure announcements** (dotted lines, ``r_1``) — carry the
  ending index of a rolled-back incarnation;
- **logging progress notifications** — broadcast which state intervals have
  become stable.

Application messages are *mutable while buffered*: Check_send_buffer
nullifies entries of ``m.tdv`` in place as logging progress arrives, and the
message is released only when at most K non-NULL entries remain.  Once on
the wire the vector is never modified again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.types import MessageId, ProcessId

_wire_counter = itertools.count()


@dataclass
class AppMessage:
    """An application message with its piggybacked dependency vector."""

    msg_id: MessageId
    src: ProcessId
    dst: ProcessId
    payload: Any
    tdv: DependencyVector
    #: Interval the message was sent from (for tracing / the oracle).
    send_interval: Entry = None  # type: ignore[assignment]
    #: True when regenerated by deterministic replay after a failure.
    replayed: bool = False
    #: Unique per-transmission id (distinguishes duplicates in traces).
    wire_id: int = field(default_factory=lambda: next(_wire_counter))
    #: Per-message degree of optimism (Section 4.2); ``None`` = system K.
    k_limit: Optional[int] = None

    @classmethod
    def from_environment(cls, dst: ProcessId, n: int, payload: Any,
                         seq: int) -> "AppMessage":
        """An outside-world message for ``dst``: an empty dependency vector
        (the outside world has no rollback-able state) and an id drawn
        from the virtual sender ``-1``, made unique by the caller-assigned
        ``seq``."""
        return cls(msg_id=MessageId(-1, 0, 0, seq), src=-1, dst=dst,
                   payload=payload, tdv=DependencyVector(n))

    def piggyback_size(self) -> int:
        """Non-NULL entries carried — the per-message cost K controls."""
        return self.tdv.non_null_count()

    def __str__(self) -> str:
        return f"{self.msg_id}[{self.src}->{self.dst}] tdv={self.tdv!r}"


@dataclass(frozen=True)
class FailureAnnouncement:
    """A rollback announcement broadcast by a *failed* process (Theorem 1).

    ``end`` is the ending index of the failed incarnation: interval
    ``(end.inc, end.sii)`` is the last surviving (stable) interval; every
    interval beyond it — of that or any earlier incarnation — is lost.
    """

    origin: ProcessId
    end: Entry

    def __str__(self) -> str:
        return f"r[{self.origin}: inc {self.end.inc} ended at {self.end.sii}]"


@dataclass(frozen=True)
class LogProgressNotification:
    """A logging progress notification.

    ``table`` is a :class:`~repro.core.tables.TableSnapshot` of the
    sender's ``log`` table, in this process or off the wire alike: the
    serve codec ships its columns and rebuilds it on the receiving
    table's backend.  (A delta notification carries a
    :class:`~repro.core.tables.SparseSnapshot` instead; it never leaves a
    simulation.)  Receive_log merges every entry (the pseudo-code iterates
    over all ``j``), so notifications gossip stability information
    transitively.
    """

    origin: ProcessId
    table: Any  # TableSnapshot | SparseSnapshot

    def __str__(self) -> str:
        return f"log-progress[from P{self.origin}]"


@dataclass(frozen=True)
class LoggingRequest:
    """``origin`` is waiting on this process's logging progress and asks
    for it: the answer is a logging progress notification sent to
    ``origin`` alone.

    With ``flush`` set this is Section 2's output-driven logging — an
    output's commit is blocked, so flush now rather than at the next
    periodic flush, then answer.  Without it the request is a fanout-mode
    notify tick's pull (:meth:`ProcessHost.notify
    <repro.runtime.host.ProcessHost.notify>`): answer with what is already
    logged; the flush timer stays the logging policy."""

    origin: ProcessId
    flush: bool = True

    def __str__(self) -> str:
        return f"log-request[from P{self.origin}]"


@dataclass(frozen=True)
class ControlEnvelope:
    """Reliable-delivery wrapper for control traffic.

    When the network is unreliable, control messages that *must* arrive
    (failure announcements) are wrapped in an envelope carrying a
    per-sender sequence number.  The receiving transport endpoint
    acknowledges every envelope (including duplicates — the ack itself may
    have been lost) and deduplicates by ``(src, seq)`` before handing the
    payload to the protocol.
    """

    seq: int
    src: ProcessId
    dst: ProcessId
    payload: Any

    def __str__(self) -> str:
        return f"env#{self.seq}[{self.src}->{self.dst}] {self.payload}"


@dataclass(frozen=True)
class ControlAck:
    """Transport-level acknowledgement of a :class:`ControlEnvelope`."""

    seq: int
    src: ProcessId  # the acknowledging process
    dst: ProcessId  # the envelope's original sender

    def __str__(self) -> str:
        return f"ctl-ack#{self.seq}[{self.src}->{self.dst}]"


@dataclass(frozen=True)
class AppAck:
    """Transport-level acknowledgement of an application message.

    Sent by the destination's live transport endpoint on arrival; the
    sender's protocol layer stops the retransmission timer for
    ``msg_id`` when it arrives (``on_ack``).  A crashed destination acks
    nothing — its transport died with it — so the sender keeps retrying
    until the restarted process answers.
    """

    msg_id: MessageId
    src: ProcessId  # the acknowledging process
    dst: ProcessId  # the message's original sender

    def __str__(self) -> str:
        return f"app-ack[{self.msg_id}]"


@dataclass(frozen=True)
class OutputRecord:
    """An outside-world output waiting in (or released from) the
    Output_buffer.  Outputs are 0-optimistic messages (Section 4.2)."""

    output_id: Any
    process: ProcessId
    payload: Any
    send_interval: Entry

    def __str__(self) -> str:
        return f"{self.output_id} from {self.send_interval}_{self.process}"
