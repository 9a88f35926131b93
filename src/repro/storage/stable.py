"""Per-process stable storage: the in-memory model backend.

Stable storage survives crashes; volatile state does not.  This module
models exactly what the paper's recovery layer persists:

- **checkpoints** — application state plus the recovery-layer context
  (current interval, dependency vector, receive-dedup set) at the moment of
  the checkpoint;
- **the message log** — delivered messages together with the state-interval
  index their delivery started (the "processing order");
- **synchronously logged failure announcements** (Receive_failure_ann);
- **incarnation markers**, each with the end of the incarnation a
  Rollback closed, so a Restart still knows that end is stable;
- **committed output ids** — so deterministic replay never re-commits an
  output to the outside world.

Every write is accounted as either a synchronous operation (the caller
blocks: pessimistic logging, checkpoints, announcement logging) or an
asynchronous one (background flush: optimistic logging), so experiments can
charge realistic, configurable costs to each.

:class:`ModelBackend` is the reference implementation of the
:class:`repro.storage.backend.StableBackend` interface: writes always
succeed, fsyncs never lie, and restart is free.  The durable file-journal
implementation (:class:`repro.storage.filelog.FileLogBackend`) subclasses
it so the two backends share one copy of the logical semantics and the
differential tests can compare their recovered state directly.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Any, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.net.message import AppMessage, FailureAnnouncement, OutputRecord
from repro.storage.backend import StableBackend
from repro.types import IntervalIndex, MessageId


@dataclass
class Checkpoint:
    """A recovery point: everything needed to resume execution.

    ``entry`` is the state interval at which the checkpoint was taken;
    ``tdv`` the dependency vector at that moment (used by Rollback's
    condition (I) to decide whether the checkpoint itself is orphaned).
    The three buffers hold what the intervals up to ``entry`` still owe,
    which no replay regenerates: messages received but not delivered
    (their ids are in ``received_ids``), sends held or released but not
    acknowledged, and pending outputs with their dependency vectors.
    """

    entry: Entry
    app_state: Any
    tdv: DependencyVector
    received_ids: FrozenSet[MessageId]
    time_taken: float = 0.0
    receive_buffer: Tuple[AppMessage, ...] = ()
    sends: Tuple[AppMessage, ...] = ()
    outputs: Tuple[Tuple[OutputRecord, Any], ...] = ()

    def copy(self) -> "Checkpoint":
        """A defensive copy whose mutation cannot corrupt the original."""
        return Checkpoint(
            entry=self.entry,
            app_state=copy.deepcopy(self.app_state),
            tdv=self.tdv.copy(),
            received_ids=frozenset(self.received_ids),
            time_taken=self.time_taken,
            receive_buffer=_copy_messages(self.receive_buffer),
            sends=_copy_messages(self.sends),
            outputs=tuple((record, tdv.copy()) for record, tdv in self.outputs),
        )

    def __str__(self) -> str:
        return f"ckpt@{self.entry}"


def _copy_messages(messages: Iterable[AppMessage]) -> Tuple[AppMessage, ...]:
    """Copies whose vectors the stability index may nullify in place."""
    return tuple(replace(m, tdv=m.tdv.copy()) for m in messages)


@dataclass(frozen=True)
class LoggedMessage:
    """A delivered message persisted with its processing position.

    ``position`` is the index of the state interval the delivery started,
    ``inc`` the incarnation it was delivered in.
    """

    position: IntervalIndex
    inc: int
    message: AppMessage


class ModelBackend(StableBackend):
    """Crash-surviving storage for one process, with cost accounting.

    Purely in-memory: durability is assumed, never demonstrated.  This is
    the right backend for protocol-level simulation (it is free and can
    never fail) and the ground truth the file-log backend must match.
    """

    def __init__(self, pid: int):
        super().__init__(pid)
        self._checkpoints: List[Checkpoint] = []
        self._log: List[LoggedMessage] = []
        self._announcements: List[FailureAnnouncement] = []
        #: Where each incarnation a Rollback closed ended, in order.
        self._incarnation_ends: List[Entry] = []
        self._committed_outputs: Set[Any] = set()
        self._highest_incarnation_marker = 0
        # Cached highest_incarnation_marker() result: maintained
        # incrementally on writes, invalidated (None) by truncation-like
        # operations that can lower the scan result.
        self._marker_cache: Optional[int] = 0

    # -- checkpoints -----------------------------------------------------------

    def write_checkpoint(
        self,
        entry: Entry,
        app_state: Any,
        tdv: DependencyVector,
        received_ids: Set[MessageId],
        time_taken: float = 0.0,
        receive_buffer: Iterable[AppMessage] = (),
        sends: Iterable[AppMessage] = (),
        outputs: Iterable[Tuple[OutputRecord, Any]] = (),
    ) -> Checkpoint:
        """Persist a checkpoint (synchronous write).  State is deep-copied
        so later in-memory mutation cannot corrupt the recovery point."""
        checkpoint = Checkpoint(
            entry, app_state, tdv, frozenset(received_ids), time_taken,
            tuple(receive_buffer), tuple(sends), tuple(outputs),
        ).copy()
        self._checkpoints.append(checkpoint)
        self.sync_writes += 1
        self.checkpoints_taken += 1
        if self._marker_cache is not None:
            self._marker_cache = max(self._marker_cache, entry.inc)
        return checkpoint

    def restore_checkpoint(self, index: int) -> Checkpoint:
        """The checkpoint at list position ``index``, as a defensive copy.

        Restart/Rollback resume execution *in* the returned state and
        mutate it freely; handing out the stored object would let that
        mutation silently corrupt the recovery point for the next crash.
        """
        if not 0 <= index < len(self._checkpoints):
            raise IndexError(
                f"checkpoint index {index} out of range "
                f"[0, {len(self._checkpoints)})"
            )
        return self._checkpoints[index].copy()

    @property
    def checkpoints(self) -> Tuple[Checkpoint, ...]:
        return tuple(self._checkpoints)

    def discard_checkpoints_after(self, index: int) -> None:
        """Drop checkpoints after list position ``index`` (Rollback:
        "Discard the checkpoints that follow")."""
        del self._checkpoints[index + 1 :]
        self._marker_cache = None

    # -- the message log -----------------------------------------------------

    def append_log(self, records: List[LoggedMessage], sync: bool) -> None:
        """Persist delivered messages.  One storage operation per batch —
        this is precisely why optimistic logging is cheaper: it writes
        "several messages to stable storage in a single operation"."""
        if not records:
            return
        self._log.extend(records)
        self.messages_logged += len(records)
        if self._marker_cache is not None:
            self._marker_cache = max(
                self._marker_cache, max(r.inc for r in records)
            )
        if sync:
            self.sync_writes += 1
        else:
            self.async_writes += 1

    def logged_after(self, sii: IntervalIndex) -> List[LoggedMessage]:
        """Logged messages whose position is beyond interval ``sii``,
        in processing order (what Restart/Rollback replay)."""
        return sorted(
            (r for r in self._log if r.position > sii), key=lambda r: r.position
        )

    def pop_logged_after(self, sii: IntervalIndex) -> List[LoggedMessage]:
        """Remove and return logged messages beyond ``sii`` (Rollback hands
        the non-orphans among them back to the receive buffer, to be
        delivered — and re-logged — again)."""
        popped = self.logged_after(sii)
        if popped:
            self._log = [r for r in self._log if r.position <= sii]
            self._marker_cache = None
        return popped

    @property
    def log_size(self) -> int:
        return len(self._log)

    # -- garbage collection ------------------------------------------------------

    def truncate_before(self, checkpoint_index: int) -> int:
        """Reclaim everything older than ``checkpoints[checkpoint_index]``.

        Drops earlier checkpoints and all logged messages at or before the
        kept checkpoint's interval (they can never be replayed again once
        that checkpoint is guaranteed non-orphan).  Returns the number of
        reclaimed records.
        """
        if not 0 <= checkpoint_index < len(self._checkpoints):
            raise IndexError(
                f"checkpoint index {checkpoint_index} out of range "
                f"[0, {len(self._checkpoints)})"
            )
        keep = self._checkpoints[checkpoint_index]
        reclaimed = checkpoint_index
        self._checkpoints = self._checkpoints[checkpoint_index:]
        before = len(self._log)
        self._log = [r for r in self._log if r.position > keep.entry.sii]
        reclaimed += before - len(self._log)
        self.gc_reclaimed += reclaimed
        if reclaimed:
            self._marker_cache = None
        return reclaimed

    # -- announcements -----------------------------------------------------------

    def log_announcement(self, ann: FailureAnnouncement) -> None:
        """Synchronously persist a failure announcement so that iet/log
        survive a crash of the receiver (Receive_failure_ann)."""
        self._announcements.append(ann)
        self.sync_writes += 1
        if self._marker_cache is not None and ann.origin == self.pid:
            self._marker_cache = max(self._marker_cache, ann.end.inc + 1)

    @property
    def announcements(self) -> Tuple[FailureAnnouncement, ...]:
        return tuple(self._announcements)

    # -- incarnation markers ----------------------------------------------------

    def log_incarnation_start(self, inc: int,
                              ended: Optional[Entry] = None) -> None:
        """Synchronously persist that incarnation ``inc`` has been used,
        and where the incarnation it closes ``ended``.

        Failure announcements double as incarnation markers for *failed*
        rollbacks; a non-failed Rollback broadcasts nothing (Theorem 1), so
        it must persist its incarnation bump here — otherwise a later crash
        would let the process reuse an incarnation number whose intervals
        other processes may still carry dependencies on.  The end is the
        stable prefix the Rollback kept: a Restart folds it into ``log``,
        so a crash before the next notification cannot freeze that row.
        """
        if ended is not None:
            self._incarnation_ends.append(ended)
        if inc > self._highest_incarnation_marker or ended is not None:
            self.sync_writes += 1
        if inc > self._highest_incarnation_marker:
            self._highest_incarnation_marker = inc
            if self._marker_cache is not None:
                self._marker_cache = max(self._marker_cache, inc)

    @property
    def incarnation_ends(self) -> Tuple[Entry, ...]:
        """Where each incarnation a Rollback closed ended."""
        return tuple(self._incarnation_ends)

    def highest_incarnation_marker(self) -> int:
        """Highest incarnation recorded via any stable artifact (0 if none).

        Cached: restart calls this on a potentially long log, so the scan
        runs only after an operation that could have *lowered* the answer
        (log truncation, checkpoint discard) invalidated the cache.
        """
        if self._marker_cache is None:
            self._marker_cache = self._scan_incarnation_marker()
        return self._marker_cache

    def _scan_incarnation_marker(self) -> int:
        highest = self._highest_incarnation_marker
        for checkpoint in self._checkpoints:
            highest = max(highest, checkpoint.entry.inc)
        for record in self._log:
            highest = max(highest, record.inc)
        for ann in self._announcements:
            if ann.origin == self.pid:
                # Our own announcement of incarnation t implies t+1 started.
                highest = max(highest, ann.end.inc + 1)
        return highest

    # -- committed outputs --------------------------------------------------------

    def record_committed_output(self, output_id: Any) -> None:
        """Persist an output id at commit time (synchronous)."""
        self._committed_outputs.add(output_id)
        self.sync_writes += 1

    def output_committed(self, output_id: Any) -> bool:
        return output_id in self._committed_outputs

    # -- introspection -----------------------------------------------------------

    def state_digest(self) -> Tuple:
        """The full logical state as a comparable value.

        The differential property tests assert that a recovered
        ``FileLogBackend`` and a ``ModelBackend`` fed the same operations
        produce equal digests.
        """
        return (
            tuple(
                (
                    c.entry,
                    c.app_state,
                    tuple(sorted(c.tdv.items())),
                    frozenset(c.received_ids),
                    c.time_taken,
                    c.receive_buffer,
                    c.sends,
                    c.outputs,
                )
                for c in self._checkpoints
            ),
            tuple(self._log),
            tuple(self._announcements),
            tuple(self._incarnation_ends),
            frozenset(self._committed_outputs),
            self.highest_incarnation_marker(),
        )

