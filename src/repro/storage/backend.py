"""Pluggable stable-storage backends.

The protocol core only ever talks to the :class:`StableBackend` interface;
what actually provides durability is a configuration choice:

- ``"model"``   — :class:`repro.storage.stable.ModelBackend`, the original
  pure in-memory cost model (writes always succeed, restart is free).
- ``"filelog"`` — :class:`repro.storage.filelog.FileLogBackend`, a real
  segmented append-only file journal with CRC32-framed records, group
  commit, snapshot compaction, and a REDO-only fast restart.

Both keep identical *logical* semantics — the same checkpoints, logged
messages, announcements, incarnation markers, and committed-output set —
so the protocol layer above is byte-for-byte unchanged between them.  The
file backend merely adds a *physical* layer beneath the logical one, and
with it the possibility of failure: torn writes, lying fsyncs, transient
I/O errors, dead devices.  Physics leaks upward at two interface points:
``stable_frontier`` — the protocol may only announce stability (and thus
release K-optimism holds) up to what the backend believes is durable —
and ``barrier``, the write-ahead commit the effect executor runs before it
lets anything a protocol step produced leave the process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Set, Tuple

from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.net.message import AppMessage, FailureAnnouncement, OutputRecord
from repro.types import IntervalIndex, MessageId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.failures.injector import StorageFaultEvent
    from repro.storage.stable import Checkpoint, LoggedMessage


class StableBackend:
    """Interface and shared accounting for per-process stable storage.

    Subclasses implement the logical operations; this base owns every
    counter so that metrics collection works uniformly across backends
    (a model run simply reports zeros for the physical-layer counters).
    """

    def __init__(self, pid: int):
        self.pid = pid
        # -- logical accounting (pre-existing cost model) -------------------
        self.sync_writes = 0
        self.async_writes = 0
        self.messages_logged = 0
        self.checkpoints_taken = 0
        self.gc_reclaimed = 0
        # -- physical-layer accounting (file backends) ----------------------
        self.bytes_written = 0
        self.bytes_fsynced = 0
        self.fsyncs = 0
        self.group_commits = 0
        self.forced_group_commits = 0
        self.io_retries = 0
        self.io_errors = 0
        self.fsync_lies = 0
        self.stall_time = 0.0
        self.backoff_time = 0.0
        self.recoveries = 0
        self.recovered_records = 0
        self.torn_records_dropped = 0
        self.corrupt_records_dropped = 0
        self.recovery_wall_s = 0.0
        self.dead_declared = 0
        self.faults_ignored = 0

    # -- lifecycle ----------------------------------------------------------

    def arm_fault(self, event: "StorageFaultEvent") -> None:
        """Arm a storage fault beneath this backend.

        The model backend has no physical layer for faults to live in, so
        it counts and ignores them — a schedule with storage faults still
        replays deterministically against either backend.
        """
        self.faults_ignored += 1

    def crash(self) -> None:
        """The owning process crashed: drop any un-durable physical state.

        Must never raise — a crash is not allowed to fail.
        """

    def recover(self) -> None:
        """Rebuild logical state from durable media after a crash.

        Raises :class:`repro.storage.faults.StorageDeadError` if the media
        cannot be read; the runtime then retries the restart later.
        """

    def close(self) -> None:
        """Release any OS resources (file handles)."""

    # -- durability frontier --------------------------------------------------

    def stable_frontier(self, current: Entry) -> Entry:
        """The newest entry the protocol may announce as stable.

        The model backend is always caught up, so the frontier is simply
        ``current`` — which keeps the optimistic protocol's behaviour
        exactly as before.  A real backend with un-fsynced log records
        returns the believed-durable tip instead, and the protocol's
        flush holds its ``log``-table advance (and with it output
        commits) until the frontier catches up.
        """
        return current

    @property
    def sync_due(self) -> bool:
        """True while a synchronous write awaits its :meth:`barrier`."""
        return False

    def barrier(self) -> None:
        """Make every synchronous write since the last barrier durable.

        The write-ahead rule: ``write_checkpoint``,
        ``discard_checkpoints_after``, ``pop_logged_after``,
        ``log_announcement``, ``log_incarnation_start``,
        ``record_committed_output`` and ``append_log(sync=True)`` only
        *mark* the journal; the effect executor calls this once per
        protocol step, before it interprets the step's first effect, so
        nothing leaves the process ahead of the bytes it depends on.  The
        model backend is always durable: a no-op.  Raises
        :class:`repro.storage.faults.StorageDeadError` when the device
        gives up — the step's effects are then never executed.
        """

    # -- checkpoints ----------------------------------------------------------

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
    ) -> "Checkpoint":
        raise NotImplementedError

    def latest_checkpoint(self) -> "Checkpoint":
        raise NotImplementedError

    def latest_checkpoint_entry(self) -> Entry:
        raise NotImplementedError

    def restore_checkpoint(self, index: int) -> "Checkpoint":
        raise NotImplementedError

    @property
    def checkpoints(self) -> Tuple["Checkpoint", ...]:
        raise NotImplementedError

    def discard_checkpoints_after(self, index: int) -> None:
        raise NotImplementedError

    # -- the message log ------------------------------------------------------

    def append_log(self, records: List["LoggedMessage"], sync: bool) -> None:
        raise NotImplementedError

    def logged_after(self, sii: IntervalIndex) -> List["LoggedMessage"]:
        raise NotImplementedError

    def pop_logged_after(self, sii: IntervalIndex) -> List["LoggedMessage"]:
        raise NotImplementedError

    @property
    def log_size(self) -> int:
        raise NotImplementedError

    def truncate_before(self, checkpoint_index: int) -> int:
        raise NotImplementedError

    def highest_logged_position(self) -> IntervalIndex:
        raise NotImplementedError

    # -- announcements / incarnations / outputs -------------------------------

    def log_announcement(self, ann: FailureAnnouncement) -> None:
        raise NotImplementedError

    @property
    def announcements(self) -> Tuple[FailureAnnouncement, ...]:
        raise NotImplementedError

    def log_incarnation_start(self, inc: int,
                              ended: Optional[Entry] = None) -> None:
        raise NotImplementedError

    @property
    def incarnation_ends(self) -> Tuple[Entry, ...]:
        raise NotImplementedError

    def highest_incarnation_marker(self) -> int:
        raise NotImplementedError

    def record_committed_output(self, output_id: Any) -> None:
        raise NotImplementedError

    def output_committed(self, output_id: Any) -> bool:
        raise NotImplementedError

    @property
    def committed_output_count(self) -> int:
        raise NotImplementedError


#: Names accepted by ``SimConfig.storage_backend`` / ``make_backend``.
BACKENDS = ("model", "filelog")


def make_backend(config: Any, pid: int) -> StableBackend:
    """Build the backend a ``SimConfig`` names for process ``pid``.

    Imports lazily to keep ``backend`` free of cycles (``stable`` imports
    this module for the base class).
    """
    name = config.storage_backend
    if name == "model":
        from repro.storage.stable import ModelBackend

        return ModelBackend(pid)
    if name == "filelog":
        import os

        from repro.storage.filelog import FileLogBackend

        if not config.storage_dir:
            raise ValueError(
                "storage_backend='filelog' requires storage_dir to be set "
                "(the harness resolves it to a temporary directory when "
                "left unset in the config)"
            )
        return FileLogBackend(
            pid,
            os.path.join(config.storage_dir, f"p{pid:03d}"),
            seed=config.seed,
            fsync_policy=config.fsync_policy,
        )
    raise ValueError(f"unknown storage backend {name!r}; expected one of {BACKENDS}")
