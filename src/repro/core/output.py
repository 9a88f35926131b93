"""The Output_buffer: output commit as 0-optimistic messaging.

Section 4.2: "If a process needs to commit output to external world during
its execution, it maintains an Output_buffer like the Send_buffer.  This
buffer is also updated whenever the Send_buffer is updated.  An output is
released when all of its dependency entries become NULL" — i.e. an output
is a message with K = 0.

Outputs sent from intervals that later turn out to be orphans must never be
committed, so the buffer is also scrubbed against the incarnation end table
whenever a failure announcement arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from repro.core.depvec import DependencyVector
from repro.core.stability import StabilityIndex, Waiter
from repro.core.tables import IncarnationEndTable, LoggingProgressTable
from repro.net.message import OutputRecord
from repro.types import OutputId


@dataclass
class PendingOutput:
    """An output waiting for all of its dependencies to become stable."""

    record: OutputRecord
    tdv: DependencyVector
    enqueued_at: float = 0.0


def _no_optimism(_pending: PendingOutput) -> int:
    return 0


def _orphaned(tdv, iet: IncarnationEndTable) -> bool:
    if isinstance(tdv, DependencyVector):
        return any(iet.invalidates_packed(pid, packed)
                   for pid, packed in tdv.iter_packed())
    return any(iet.invalidates(pid, e) for pid, e in tdv.items())


class OutputBuffer:
    """Holds outputs until every dependency entry is NULL (0-optimism).

    The buffer owns its process's :class:`StabilityIndex` (the send buffer
    registers its held vectors in the same one).  :meth:`update` runs after
    every delivery/flush/notification, and judges only the outputs the
    index woke — an entry of theirs became stable — or that were added
    since the last call.
    """

    def __init__(self):
        self.index = StabilityIndex()
        #: Outputs the index watches, in buffer order.
        self._held: List[Waiter] = []
        #: Outputs added since the last :meth:`update`, not yet watched.
        self._new: List[PendingOutput] = []
        self._woken: List[Waiter] = []
        self._ids: Set[OutputId] = set()

    def add(self, record: OutputRecord, tdv: DependencyVector, now: float = 0.0) -> None:
        self._new.append(PendingOutput(record, tdv.copy(), now))
        self._ids.add(record.output_id)

    def contains(self, output_id: object) -> bool:
        """True when an output with this id is already waiting.

        Rollback replay re-executes the surviving prefix of the current
        incarnation; an output enqueued there may still be sitting in this
        buffer from its original execution (rollback, unlike crash, keeps
        the volatile buffers).  Committing both copies would violate
        exactly-once output, so the enqueue path must dedup against
        pending entries, not just against already-committed ids.
        """
        return output_id in self._ids

    def update(self, log: LoggingProgressTable) -> List[PendingOutput]:
        """Nullify entries known stable; return the outputs that became
        fully NULL and are therefore committable (removed from the buffer)."""
        if not (self._held or self._new):
            return []
        index = self.index
        index.advance(log)
        woken = self._woken
        if self._new:
            for pending in self._new:
                self._held.append(index.watch(pending, pending.tdv, log, woken))
            self._new = []
        if not woken:
            return []
        ready = [w.item for w in index.collect(woken, _no_optimism)]
        if ready:
            self._held = [w for w in self._held if w.woken is not None]
            for pending in ready:
                self._ids.discard(pending.record.output_id)
        return ready

    def discard_orphans(self, iet: IncarnationEndTable) -> List[PendingOutput]:
        """Drop outputs that depend on rolled-back intervals; return them."""
        if iet.version == 0 or not (self._held or self._new):
            return []
        orphans = []
        for waiter in self._held:
            if _orphaned(waiter.tdv, iet):
                self.index.drop(waiter)
                orphans.append(waiter.item)
        if orphans:
            self._held = [w for w in self._held if w.woken is not None]
        if self._new:
            kept = []
            for pending in self._new:
                if _orphaned(pending.tdv, iet):
                    orphans.append(pending)
                else:
                    kept.append(pending)
            self._new = kept
        for pending in orphans:
            self._ids.discard(pending.record.output_id)
        return orphans

    def discard_all(self) -> None:
        """Crash: the volatile output buffer is lost."""
        for waiter in self._held:
            self.index.drop(waiter)
        self._held = []
        self._new = []
        self._woken = []
        self._ids = set()

    @property
    def pending(self) -> List[PendingOutput]:
        return [w.item for w in self._held] + self._new

    def __len__(self) -> int:
        return len(self._held) + len(self._new)
