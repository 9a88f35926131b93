"""How logging progress leaves a process: one policy object it owns.

Receive_log is the same in every mode.  The policy decides what the
notify tick sends, how a request is answered and when an output asks for
progress: gossip the whole table or the own row only; push to everyone
(``notify_fanout`` None) or pull from at most ``notify_fanout`` awaited
owners, carrying on behind the last pid asked; delta-encode per peer, with
a changelog cursor each; with output-driven logging (Section 2), ask every
process an output depends on to flush now.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.effects import Effect, MulticastControl, SendControl
from repro.core.stability import StabilityIndex
from repro.core.tables import LoggingProgressTable
from repro.net.message import LoggingRequest, LogProgressNotification
from repro.types import ProcessId


class Dissemination:
    """One process's dissemination switches and per-peer state."""

    #: Every this-many delta notifications to a peer, send a full snapshot
    #: anyway — a cheap safety valve bounding the damage of any divergence.
    DELTA_FULL_REFRESH_EVERY = 16

    def __init__(self, pid: ProcessId, n: int, delta_notifications: bool,
                 gossip_log_tables: bool, notify_fanout: Optional[int],
                 output_driven_logging: bool):
        self.pid = pid
        self.n = n
        self.delta_notifications = delta_notifications
        self.gossip_log_tables = gossip_log_tables
        self.notify_fanout = notify_fanout
        self.output_driven_logging = output_driven_logging
        # Delta gossip: per-peer changelog cursor (epoch, offset,
        # deltas_since_full).
        self._delta_peers: Dict[ProcessId, Tuple[int, int, int]] = {}
        self._last_asked = pid

    def new_table(self) -> LoggingProgressTable:
        """An empty ``log``, keeping a changelog when deltas need one."""
        log = LoggingProgressTable(self.n)
        if self.delta_notifications:
            log.enable_changelog()
        return log

    def notification(self, log: LoggingProgressTable) -> LogProgressNotification:
        """Build a logging progress notification for broadcast.

        By default the full table is gossiped (Receive_log's signature
        iterates over all j, so transitive propagation is intended); with
        ``gossip_log_tables`` off it carries only this process's own row.
        """
        snapshot = log.snapshot_columns()
        if not self.gossip_log_tables:
            snapshot = snapshot.restrict(self.pid)
        return LogProgressNotification(self.pid, snapshot)

    def notification_for(self, log: LoggingProgressTable,
                         dst: ProcessId) -> LogProgressNotification:
        """Per-destination notification, delta-encoded when possible.

        With ``delta_notifications`` the changelog cursor acknowledged by
        the last notification to ``dst`` selects only the entries that
        changed since (:meth:`EntrySetTable.delta_since`); first contact, a
        stale cursor (changelog compaction), the periodic refresh, or a
        crashed peer (cursor dropped on its failure announcement) fall back
        to the full snapshot.  Sound only on reliable channels — a dropped
        delta would silently lose the acknowledged entries — which
        ``SimConfig.validate`` enforces.
        """
        if not self.delta_notifications:
            return self.notification(log)
        cursor_now = log.changelog_position
        state = self._delta_peers.get(dst)
        if state is not None and state[2] < self.DELTA_FULL_REFRESH_EVERY:
            delta = log.delta_since((state[0], state[1]))
            if delta is not None:
                if not self.gossip_log_tables:
                    delta = delta.restrict(self.pid)
                self._delta_peers[dst] = (cursor_now[0], cursor_now[1],
                                          state[2] + 1)
                return LogProgressNotification(self.pid, delta)
        notif = self.notification(log)
        self._delta_peers[dst] = (cursor_now[0], cursor_now[1], 0)
        return notif

    def tick(self, log: LoggingProgressTable,
             awaited_owners: Callable[[], List[ProcessId]]) -> List[Effect]:
        """One periodic logging-progress tick.

        Broadcast mode (``notify_fanout`` None) pushes this process's
        notification to everyone (one per peer when delta-encoded: each
        peer has its own cursor).  Fanout mode pulls: it asks at most
        ``notify_fanout`` of its awaited owners, taking turns in pid order
        when there are more, and each answers it alone (:meth:`answer`).
        A process waiting on nobody sends nothing; a lost ask or answer,
        or a down owner, is asked again at a later tick."""
        fanout = self.notify_fanout
        if fanout is not None:
            owners = awaited_owners()
            if len(owners) > fanout:
                start = bisect_right(owners, self._last_asked)
                owners = (owners[start:] + owners[:start])[:fanout]
                self._last_asked = owners[-1]
            if not owners:
                return []
            return [MulticastControl(owners, LoggingRequest(self.pid,
                                                            flush=False))]
        if self.delta_notifications:
            return [SendControl(dst, self.notification_for(log, dst))
                    for dst in range(self.n) if dst != self.pid]
        return [MulticastControl(None, self.notification(log))]

    def answer(self, log: LoggingProgressTable,
               request: LoggingRequest) -> SendControl:
        """Answer ``request.origin`` alone with the notification a periodic
        tick would carry."""
        return SendControl(request.origin,
                           self.notification_for(log, request.origin))

    def awaited_owners(self, index: StabilityIndex,
                       tdv_pids) -> List[ProcessId]:
        """The processes a process is waiting on, in pid order: the owners
        of the log positions its held sends and pending outputs watch,
        plus the non-NULL pids of its own vector (every entry Theorem 2
        drops there is one fewer to piggyback)."""
        owners = index.awaited_owners()
        owners.update(tdv_pids)
        owners.discard(self.pid)
        return sorted(owners)

    def output_requests(self, tdv_pids) -> List[Effect]:
        """Output-driven logging (Section 2's alternative to waiting for
        periodic notifications): ask every process an output depends on
        to force its logging progress now."""
        if not self.output_driven_logging:
            return []
        return [SendControl(target, LoggingRequest(self.pid, flush=True))
                for target in tdv_pids if target != self.pid]

    def peer_restarted(self, pid: ProcessId) -> None:
        """``pid`` lost every gossiped table row with its volatile state:
        the next notification to it must be a full snapshot."""
        self._delta_peers.pop(pid, None)

    def clear(self) -> None:
        """A crash: the cursors are volatile."""
        self._delta_peers.clear()
