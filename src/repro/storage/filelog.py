"""A durable, segmented, append-only file-log backend.

:class:`FileLogBackend` gives the recovery layer real durability with real
failure modes.  It subclasses :class:`repro.storage.stable.ModelBackend`,
whose methods define the *logical* semantics — on every write and, through
REDO, on every restart; what this class adds is the *physical* layer:

- every logical mutation is journaled as one CRC32-framed record
  (:func:`repro.storage.recovery.encode_record`) in the active segment;
- durability follows a **write-ahead rule**: a synchronous mutation only
  appends its frame and marks the journal sync-due, and :meth:`barrier` —
  run by the effect executor before a protocol step's first effect —
  makes the whole step durable with one strict group commit; an
  asynchronous log batch ends with one *tolerant* commit.  Journal order
  equals operation order, so a crash before the barrier recovers to a
  frame-prefix of the step, none of whose effects ever ran;
- the backend tracks *belief* vs *truth*: ``believed`` advances on any
  fsync that reported success, ``persisted`` only on honest ones.  A
  crash truncates the file to the truth (plus an optionally-armed torn
  tail), which is how lying fsyncs become observable;
- :meth:`stable_frontier` exposes the believed-durable tip: while a group
  commit is outstanding it lags ``current``, so the protocol's flush
  advances its own ``log``-table row only that far and output commits
  wait — K-optimism is never violated by unflushed bytes;
- transient I/O errors retry with capped exponential backoff; an
  exhausted budget (or an injected fsync-boundary crash) declares the
  backend **dead**: every operation raises :class:`StorageDeadError` until
  :meth:`recover`, which the runtime turns into a clean fail-stop crash;
- past ``MAX_PENDING_RECORDS`` despite failing tolerant commits, the
  backend forces a blocking group commit rather than grow the un-durable
  window without bound;
- garbage collection triggers snapshot **compaction**: the live logical
  state goes as one SNAPSHOT frame into a fresh segment, fsynced before
  the older segments are unlinked.

Backoff delays and injected stalls are *recorded* in counters, never
slept: wall-clock must not leak into the deterministic simulation.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, List, Optional, Tuple

from repro.core.entry import Entry
from repro.net.message import FailureAnnouncement
from repro.storage.faults import (
    StorageDeadError,
    StorageFaultInjector,
    TransientStorageError,
)
from repro.storage.recovery import (
    T_ANN,
    T_CHECKPOINT,
    T_CKPT_DISCARD,
    T_COMMIT,
    T_GC,
    T_INCMARK,
    T_LOGMSG,
    T_LOG_POP,
    T_SNAPSHOT,
    encode_record,
    list_segments,
    scan_segments,
    segment_index,
    segment_name,
)
from repro.storage.stable import Checkpoint, LoggedMessage, ModelBackend
from repro.types import IntervalIndex

#: Seal the active segment and open the next once it would pass this size.
SEGMENT_BYTES = 262144
#: Compact once this many segments exist (tail + history).
COMPACT_SEGMENT_THRESHOLD = 4
#: Records a failing tolerant commit may leave pending before the backend
#: forces a blocking group commit.
MAX_PENDING_RECORDS = 64
#: Retries of a transient I/O error before the backend declares itself dead.
IO_RETRIES = 5
#: Backoff between retries of a transient I/O error: doubling from the
#: base, capped.  Recorded in ``backoff_time``, never slept (simulation
#: determinism).
IO_BACKOFF_BASE = 0.002
IO_BACKOFF_MAX = 0.1


#: REDO: each record replayed through the model method that wrote it.
_REDO = {
    T_CHECKPOINT: lambda model, ckpt: model.write_checkpoint(**vars(ckpt)),
    T_LOGMSG: lambda model, record: model.append_log([record], sync=False),
    T_ANN: ModelBackend.log_announcement,
    T_INCMARK: lambda model, mark: model.log_incarnation_start(*mark),
    T_COMMIT: ModelBackend.record_committed_output,
    T_CKPT_DISCARD: ModelBackend.discard_checkpoints_after,
    T_LOG_POP: ModelBackend.pop_logged_after,
    T_GC: ModelBackend.truncate_before,
}
#: The incarnation a record names.  A restarted process never reuses one
#: its journal named, even in a record a later one dropped.
_INCARNATION = {
    T_CHECKPOINT: lambda ckpt: ckpt.entry.inc,
    T_LOGMSG: lambda record: record.inc,
    T_INCMARK: lambda mark: mark[0],
}


def _redo_compaction(pid: int, snapshot: Tuple) -> Tuple[ModelBackend, int]:
    """A fresh model holding what compaction wrote, and its marker."""
    checkpoints, log, announcements, ends, committed, marker = snapshot
    model = ModelBackend(pid)
    for rtype, records in ((T_CHECKPOINT, checkpoints), (T_LOGMSG, log),
                           (T_ANN, announcements),
                           (T_INCMARK, [(marker, end) for end in ends]),
                           (T_COMMIT, committed)):
        for record in records:
            _REDO[rtype](model, record)
    return model, marker


class FileLogBackend(ModelBackend):
    """Segmented append-only journal with group commit and REDO restart."""

    def __init__(
        self,
        pid: int,
        directory: str,
        *,
        seed: int = 0,
        fsync_policy: str = "group",
    ):
        super().__init__(pid)
        if fsync_policy not in ("group", "strict"):
            raise ValueError(
                f"fsync_policy must be 'group' or 'strict', got {fsync_policy!r}"
            )
        self.directory = directory
        self.injector = StorageFaultInjector(pid, seed)
        self._fsync_policy = fsync_policy

        self._handle: Optional[Any] = None
        self._seg_index = 0
        # Active-segment device model.  Sealed segments are always fully
        # persisted (rotation fsyncs strictly), so only the tail needs one.
        self._written = 0  # bytes handed to the file
        self._persisted = 0  # bytes truly durable (the truth)
        self._believed = 0  # bytes the process thinks are durable
        self._pending_records = 0
        #: A synchronous frame is written but not yet covered by a commit.
        self._sync_due = False
        #: Segment files on disk (the active one included).
        self._segment_count = 1
        self._dead = False
        self._durable_entry = Entry(0, 0)

        os.makedirs(directory, exist_ok=True)
        self._open_tail()

    # ------------------------------------------------------------------
    # physical layer
    # ------------------------------------------------------------------

    def _segment_path(self, index: int) -> str:
        return os.path.join(self.directory, segment_name(index))

    def _open_tail(self) -> None:
        segments = list_segments(self.directory)
        self._seg_index = segment_index(segments[-1]) if segments else 1
        self._segment_count = max(1, len(segments))
        path = self._segment_path(self._seg_index)
        self._handle = open(path, "ab")
        size = os.path.getsize(path)
        self._written = self._persisted = self._believed = size
        self._pending_records = 0
        self._sync_due = False

    def _ensure_alive(self) -> None:
        if self._dead:
            raise StorageDeadError(
                f"P{self.pid}: storage backend is dead (awaiting recovery)"
            )

    def _die(self, context: str) -> None:
        self._dead = True
        self.dead_declared += 1
        raise StorageDeadError(
            f"P{self.pid}: storage gave up after {IO_RETRIES} retries "
            f"({context})"
        )

    def _retrying(self, op: Callable[[], Any], context: str) -> Any:
        """Run a physical op with capped exponential backoff on EIO."""
        attempt = 0
        while True:
            try:
                return op()
            except TransientStorageError:
                self.io_errors += 1
                if attempt >= IO_RETRIES:
                    self._die(context)
                self.backoff_time += min(IO_BACKOFF_MAX,
                                         IO_BACKOFF_BASE * 2 ** attempt)
                self.io_retries += 1
                attempt += 1

    def _physical_write(self, data: bytes) -> None:
        self.injector.on_write(len(data))
        self._handle.write(data)
        # Push through the userspace buffer so the on-disk file always
        # holds all *written* bytes; durability is modelled separately.
        self._handle.flush()

    def _append_frame(self, rtype: int, obj: Any) -> None:
        data = encode_record(rtype, obj)
        if self._written > 0 and self._written + len(data) > SEGMENT_BYTES:
            self._rotate()
        self._retrying(lambda: self._physical_write(data), f"write(type={rtype})")
        self._written += len(data)
        self.bytes_written += len(data)
        self._pending_records += 1

    def _stall(self, duration: float) -> None:
        self.stall_time += duration

    def _fsync_once(self) -> str:
        outcome = self.injector.on_fsync(self._stall)
        if outcome == "ok":
            os.fsync(self._handle.fileno())
        return outcome

    def _group_commit(self, strict: bool) -> bool:
        """Fsync the active segment; returns True if *believed* durable.

        ``strict`` retries to the death; tolerant mode tries once and on a
        transient failure simply leaves the batch pending (the frontier
        lags, output commits wait — the degradation the docs describe).
        """
        if self._believed >= self._written and self._pending_records == 0:
            return True
        if strict:
            outcome = self._retrying(self._fsync_once, "fsync")
        else:
            if self.injector.armed("torn_write"):
                # An armed torn write means the crash will interrupt this
                # batch's write in flight — it never reaches its fsync.
                # Hold the tolerant commit; the frontier lags the batch.
                return False
            try:
                outcome = self._fsync_once()
            except TransientStorageError:
                self.io_errors += 1
                return False
        self.fsyncs += 1
        if outcome == "lie":
            self.fsync_lies += 1
        else:
            self.bytes_fsynced += self._written - self._persisted
            self._persisted = self._written
        self._believed = self._written
        self._pending_records = 0
        self._sync_due = False
        self.group_commits += 1
        try:
            self.injector.after_fsync()
        except StorageDeadError:
            self._dead = True
            self.dead_declared += 1
            raise
        return True

    def _journal(self, rtype: int, obj: Any, sync: bool) -> None:
        self._append_frame(rtype, obj)
        if self._fsync_policy == "strict":
            self._group_commit(strict=True)
        elif sync:
            self._sync_due = True

    def _rotate(self) -> None:
        """Seal the active segment (strict commit) and open the next."""
        self._group_commit(strict=True)
        self._handle.close()
        self._seg_index += 1
        self._handle = open(self._segment_path(self._seg_index), "ab")
        self._segment_count += 1
        self._written = self._persisted = self._believed = 0

    def _compact(self) -> None:
        """Snapshot the live logical state and drop older segments.

        Crash-safe ordering: the snapshot is durable in the new segment
        *before* any old segment is unlinked.  A crash in between replays
        old segments and then the snapshot, which resets state wholesale —
        the same result.
        """
        self._rotate()
        snapshot = (
            list(self._checkpoints),
            list(self._log),
            list(self._announcements),
            list(self._incarnation_ends),
            set(self._committed_outputs),
            self.highest_incarnation_marker(),
        )
        self._append_frame(T_SNAPSHOT, snapshot)
        self._group_commit(strict=True)
        for name in list_segments(self.directory):
            if segment_index(name) < self._seg_index:
                os.unlink(os.path.join(self.directory, name))
        self._segment_count = 1

    # ------------------------------------------------------------------
    # lifecycle: faults, crash, recovery
    # ------------------------------------------------------------------

    def arm_fault(self, event: Any) -> None:
        """Arm a fault from a :class:`StorageFaultEvent`.

        ``bit_flip`` applies immediately (latent media corruption of bytes
        already on disk); everything else arms the injector and fires at
        the matching physical operation.
        """
        if event.kind == "bit_flip":
            self._apply_bit_flip()
            return
        self.injector.arm(event.kind, event.count, event.duration)

    def _apply_bit_flip(self) -> None:
        if self._handle is not None:
            try:
                self._handle.flush()
            except (OSError, ValueError):
                pass
        segments = list_segments(self.directory)
        sizes = [
            os.path.getsize(os.path.join(self.directory, name))
            for name in segments
        ]
        total = sum(sizes)
        if total == 0:
            self.faults_ignored += 1
            return
        offset, bit = self.injector.pick_flip(total)
        for name, size in zip(segments, sizes):
            if offset < size:
                path = os.path.join(self.directory, name)
                with open(path, "r+b") as handle:
                    handle.seek(offset)
                    byte = handle.read(1)
                    handle.seek(offset)
                    handle.write(bytes([byte[0] ^ (1 << bit)]))
                return
            offset -= size

    def crash(self) -> None:
        """Process crash: the device keeps only what was truly persisted.

        Never raises.  The un-persisted tail of the active segment is
        discarded — or, with a ``torn_write`` fault armed, a partial
        prefix of it survives, cut mid-record, for recovery to detect.
        """
        try:
            self.close()
            keep = self._persisted
            tail = self._written - self._persisted
            torn = self.injector.torn_tail_length(tail)
            if torn:
                keep += torn
            path = self._segment_path(self._seg_index)
            if os.path.exists(path):
                with open(path, "r+b") as handle:
                    handle.truncate(keep)
        except OSError:
            pass
        # Refuse every operation until recover() has rebuilt the state.
        self._dead = True

    def recover(self) -> None:
        """REDO-only fast restart: scan, verify, truncate, rebuild.

        Replays the (possibly repaired) journal, record by record, through
        the :class:`ModelBackend` method that wrote each record, on a fresh
        model whose state then replaces the in-memory mirror wholesale;
        the tail segment reopens for appending.  Wall-clock cost lands in
        ``recovery_wall_s`` — the number the recovery benchmarks report.
        """
        start = time.perf_counter()
        model, marker = ModelBackend(self.pid), 0

        def redo(rtype: int, record: Any) -> None:
            nonlocal model, marker
            if rtype == T_SNAPSHOT:
                model, marker = _redo_compaction(self.pid, record)
                return
            _REDO[rtype](model, record)
            if rtype in _INCARNATION:
                marker = max(marker, _INCARNATION[rtype](record))

        records, stop = scan_segments(self.directory, redo)
        self._checkpoints = model._checkpoints
        self._log = model._log
        self._announcements = model._announcements
        self._incarnation_ends = model._incarnation_ends
        self._committed_outputs = model._committed_outputs
        self._highest_incarnation_marker = marker
        self._marker_cache = None
        self._dead = False
        self._durable_entry = Entry(0, 0)
        self.close()
        self._open_tail()
        self.recoveries += 1
        self.recovered_records += records
        self.torn_records_dropped += stop == "torn"
        self.corrupt_records_dropped += stop == "corrupt"
        self.recovery_wall_s += time.perf_counter() - start

    def close(self) -> None:
        """Release the tail handle (closing flushes what it buffers)."""
        if self._handle is not None:
            try:
                self._handle.close()
            except (OSError, ValueError):
                pass
            self._handle = None

    def used_journal(self) -> Optional[str]:
        if self._written or self._segment_count > 1:
            return self.directory
        return None

    # ------------------------------------------------------------------
    # durability frontier
    # ------------------------------------------------------------------

    def stable_frontier(self, current: Entry) -> Entry:
        """Believed-durable tip: ``current`` only when nothing is pending.

        While a group commit is outstanding the answer is frozen at the
        last entry for which the journal was (believed) fully durable, so
        the protocol's flush cannot announce stability — nor release
        output commits — for intervals whose log records could still be
        lost to a crash.
        """
        if self._pending_records == 0 and self._believed >= self._written:
            if current > self._durable_entry:
                self._durable_entry = current
            return current
        return min(self._durable_entry, current)

    @property
    def sync_due(self) -> bool:
        return self._sync_due

    def barrier(self) -> None:
        if self._sync_due:
            self._group_commit(strict=True)

    # ------------------------------------------------------------------
    # logical operations: mirror via super(), journal beneath
    # ------------------------------------------------------------------

    def write_checkpoint(self, *args: Any, **kwargs: Any) -> Checkpoint:
        self._ensure_alive()
        checkpoint = super().write_checkpoint(*args, **kwargs)
        self._journal(T_CHECKPOINT, checkpoint, sync=True)
        return checkpoint

    def discard_checkpoints_after(self, index: int) -> None:
        self._ensure_alive()
        super().discard_checkpoints_after(index)
        self._journal(T_CKPT_DISCARD, index, sync=True)

    def append_log(self, records: List[LoggedMessage], sync: bool) -> None:
        if not records:
            return
        self._ensure_alive()
        super().append_log(records, sync)
        # One frame per message: a torn write then loses at most a record
        # tail, never an unframed middle.
        for record in records:
            self._journal(T_LOGMSG, record, sync)
        if sync or self._fsync_policy == "strict":
            return
        # The batch is the paper's "several messages ... in a single
        # operation": finish it with one tolerant group commit so the
        # stable frontier normally catches up each flush period.  A
        # transient failure is tolerated — the frontier simply lags —
        # until the un-durable window passes its bound: then block rather
        # than let it grow further.
        if (
            not self._group_commit(strict=False)
            and self._pending_records > MAX_PENDING_RECORDS
        ):
            self.forced_group_commits += 1
            self._group_commit(strict=True)

    def pop_logged_after(self, sii: IntervalIndex) -> List[LoggedMessage]:
        self._ensure_alive()
        popped = super().pop_logged_after(sii)
        if popped:
            self._journal(T_LOG_POP, sii, sync=True)
        return popped

    def truncate_before(self, checkpoint_index: int) -> int:
        self._ensure_alive()
        reclaimed = super().truncate_before(checkpoint_index)
        self._journal(T_GC, checkpoint_index, sync=False)
        if self._segment_count >= COMPACT_SEGMENT_THRESHOLD:
            self._compact()
        return reclaimed

    def log_announcement(self, ann: FailureAnnouncement) -> None:
        self._ensure_alive()
        super().log_announcement(ann)
        self._journal(T_ANN, ann, sync=True)

    def log_incarnation_start(self, inc: int,
                              ended: Optional[Entry] = None) -> None:
        self._ensure_alive()
        if inc > self._highest_incarnation_marker or ended is not None:
            super().log_incarnation_start(inc, ended)
            self._journal(T_INCMARK, (inc, ended), sync=True)

    def record_committed_output(self, output_id: Any) -> None:
        self._ensure_alive()
        super().record_committed_output(output_id)
        self._journal(T_COMMIT, output_id, sync=True)
