"""The K-optimistic logging protocol (Figures 2 and 3 of the paper).

Every routine of the pseudo-code maps onto a method of
:class:`KOptimisticProcess`; ``tests/reference/figure23.py`` is the same
routines over plain dicts, run in lockstep with this module:

====================  =================================================  =============
Paper routine         Method                                             Module
====================  =================================================  =============
Initialize            :meth:`initialize`                                 protocol
Receive_message       :meth:`on_receive`                                 protocol
Deliver_message       :meth:`_deliver` (driven by the deliver loop)      protocol
Check_deliverability  :meth:`_deliverable`                               protocol
Check_orphan          :meth:`_is_orphan_message` / buffer scrubbing      protocol
Send_message          :meth:`_enqueue_send` (called by the app context)  protocol
Check_send_buffer     :meth:`_check_send_buffer`                         protocol
Restart               :meth:`restart` (after :meth:`crash`)              protocol
Receive_failure_ann   :meth:`on_failure_announcement`                    protocol
Rollback              :meth:`_rollback`                                  protocol
Checkpoint            :meth:`checkpoint`                                 protocol
Receive_log           :meth:`on_log_notification`                        protocol
Insert                ``EntrySetTable.insert``                           tables
notifications         :meth:`notify` and its builders                    dissemination
footnote 3, acks      :meth:`_release`, :meth:`on_ack`                   retransmit
====================  =================================================  =============

Handlers are sans-IO: they return :mod:`repro.core.effects` objects instead
of touching a network, so every routine is unit-testable in isolation and
the runtime layer stays a thin interpreter.

Fidelity notes (deviations are deliberate and argued):

- **Delivery point.**  The pseudo-code marks messages deliverable
  (``m.deliver``) and delivers them in a separate application-driven event.
  Here a deliver loop runs at the end of each handler, which is the same
  schedule with the application always ready.
- **Rollback before delivery.**  On a failure announcement we evaluate the
  rollback condition *before* delivering newly deliverable messages.  The
  paper lists the rollback check last, but delivering first would knowingly
  extend an orphan state — exactly the behaviour Section 2 criticises in
  fully asynchronous protocols; with rollback first the same messages are
  delivered afterwards from the recovered state.
- **Incarnation persistence.**  A non-failed Rollback announces nothing
  (Theorem 1) yet must not lose its incarnation bump across a later crash,
  so it writes an incarnation marker to stable storage.  The marker also
  carries where the closed incarnation ended, which Restart folds into
  ``log``: otherwise a crash before the next notification would leave that
  row short of the end forever.  Failed rollbacks get both for free from
  the synchronously logged announcement.
- **Restart honours logged announcements.**  Announcements are synchronously
  logged, so a restarting process first rebuilds iet/log from them and stops
  its replay at the first orphaned logged message, rather than blindly
  replaying everything and rolling back again moments later.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.app.behavior import AppBehavior, AppContext
from repro.core.columnar import PACK_SHIFT as _PACK_SHIFT
from repro.core.depvec import DependencyVector, MergedEntry
from repro.core.dissemination import Dissemination
from repro.core.effects import (
    CommitOutput,
    DuplicateDropped,
    Effect,
    MessageDelivered,
    MessageDiscarded,
    OutputDiscarded,
    RestartPerformed,
    RollbackPerformed,
    StableProgress,
)
from repro.core.entry import Entry
from repro.core.output import OutputBuffer
from repro.core.retransmit import Retransmission
from repro.core.stability import StabilityIndex, Waiter
from repro.core.tables import IncarnationEndTable
from repro.net.message import (
    Ack,
    AppMessage,
    FailureAnnouncement,
    LoggingRequest,
    LogProgressNotification,
    OutputRecord,
)
from repro.storage.backend import StableBackend
from repro.storage.stable import Checkpoint, LoggedMessage, ModelBackend
from repro.storage.volatile import VolatileBuffer
from repro.types import MessageId, OutputId, ProcessId


class ProtocolStats:
    """Failure-free and recovery counters maintained by the protocol."""

    def __init__(self):
        self.messages_enqueued = 0
        self.messages_released = 0
        self.send_hold_time_total = 0.0
        self.send_hold_time_max = 0.0
        self.deliveries = 0
        self.replayed_deliveries = 0
        self.delivery_wait_total = 0.0
        self.duplicates_dropped = 0
        self.orphans_discarded = 0
        self.outputs_enqueued = 0
        self.outputs_committed = 0
        self.output_wait_total = 0.0
        self.outputs_discarded = 0
        self.rollbacks = 0
        self.restarts = 0
        self.retransmissions = 0
        self.timer_retransmissions = 0
        self.acks_received = 0
        self.retransmit_budget_exhausted = 0
        #: The same three for failure announcements (one copy per
        #: destination), and the time from a copy's first send to its ack.
        self.ctl_retransmits = 0
        self.ctl_acked = 0
        self.ctl_budget_exhausted = 0
        self.ack_rtt_total = 0.0
        self.intervals_undone = 0
        self.messages_requeued = 0


class KOptimisticProcess:
    """The per-process recovery layer running underneath the application."""

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        k: int,
        behavior: AppBehavior,
        storage: Optional[StableBackend] = None,
        seed: int = 0,
        now_fn: Optional[Callable[[], float]] = None,
        nullify_own_on_flush: bool = True,
        output_driven_logging: bool = False,
        gc_on_checkpoint: bool = True,
        retransmit_window: int = 0,
        retransmit_timeout: float = 0.0,
        retransmit_budget: int = 8,
        k_policy: Optional[Callable[[], int]] = None,
        delta_notifications: bool = False,
        gossip_log_tables: bool = True,
        notify_fanout: Optional[int] = None,
    ):
        if not 0 <= pid < n:
            raise ValueError(f"pid {pid} out of range for n={n}")
        if k < 0:
            raise ValueError(f"degree of optimism K must be >= 0, got {k}")
        self.pid = pid
        self.n = n
        self.k = k
        self.behavior = behavior
        self.storage = storage if storage is not None else ModelBackend(pid)
        self.seed = seed
        self.now_fn = now_fn or (lambda: 0.0)
        self.nullify_own_on_flush = nullify_own_on_flush
        self.gc_on_checkpoint = gc_on_checkpoint
        self.stats = ProtocolStats()
        # Footnote 3's sent-log and the ack/retransmit map
        # (repro.core.retransmit); a window and a timeout of 0 disable them.
        self.retransmit = Retransmission(
            pid, n, self.stats, self.now_fn, retransmit_window,
            retransmit_timeout, retransmit_budget)
        # How logging progress leaves this process (repro.core.dissemination).
        self.dissemination = Dissemination(
            pid, n, delta_notifications, gossip_log_tables, notify_fanout,
            output_driven_logging)
        # Per-message K policy (Section 4.2): consulted at enqueue time
        # for sends the application left unbounded.  The adaptive-K
        # controller (repro.control) plugs in here; ``None`` keeps the
        # static system-wide K.
        self.k_policy = k_policy
        # Latency accounting across a restart boundary: outputs
        # re-enqueued by crash-recovery replay are backdated to the crash
        # time (their original enqueue time died with the volatile output
        # buffer; the crash instant is the latest knowable lower bound),
        # so commit latency includes the downtime instead of restarting
        # the clock at replay time.
        self._down_since: Optional[float] = None
        self._replay_backdate: Optional[float] = None

        # Figure 2 variable declarations.
        self.tdv = self._new_vector()
        self.log = self.dissemination.new_table()
        self.iet = IncarnationEndTable(n)
        self.current = Entry(0, 1)

        # Buffers.
        self.receive_buffer: List[AppMessage] = []
        self.send_buffer: List[AppMessage] = []
        # One stability index per process, shared by both buffers and the
        # vector (see repro.core.stability).  ``_sb_held`` are the index
        # registrations of ``send_buffer[:len(_sb_held)]``, in step;
        # messages enqueued since the last Check_send_buffer are the
        # unwatched tail.
        self._stability = StabilityIndex()
        self.output_buffer = OutputBuffer(self._stability)
        self._sb_held: List[Waiter] = []
        self._sb_woken: List[Waiter] = []
        self.volatile = VolatileBuffer()

        # Application state and bookkeeping.
        self.app_state: Any = None
        self.received_ids: Set[MessageId] = set()
        self.failed = False
        self._initialized = False
        self._highest_inc = 0
        self._send_enqueue_times: Dict[int, float] = {}
        self._receive_times: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Initialize
    # ------------------------------------------------------------------

    def initialize(self) -> List[Effect]:
        """Figure 2's Initialize plus the implicit initial checkpoint.

        Corollary 3: a process starts with no dependency entry; its first
        state interval counts as stable because "each process execution can
        be considered as starting with an initial checkpoint".
        """
        if self._initialized:
            raise RuntimeError(f"P{self.pid} initialized twice")
        self._initialized = True
        self.current = Entry(0, 1)
        self.app_state = self.behavior.initial_state(self.pid, self.n)
        self.storage.write_checkpoint(
            self.current, self.app_state, self.tdv, self.received_ids,
            time_taken=self.now_fn(),
        )
        self.log.insert(self.pid, self.current)
        return []

    # ------------------------------------------------------------------
    # Receive_message
    # ------------------------------------------------------------------

    def on_receive(self, msg: AppMessage) -> List[Effect]:
        """Receive_message(m): orphan check, then buffer, then deliver loop.

        With acks on, every copy from a process — a duplicate or an orphan
        too, since the last ack may have been lost — is acked first."""
        self._require_running()
        effects = (self.retransmit.ack(msg.src, msg.msg_id) if msg.src >= 0
                   else [])
        if msg.msg_id in self.received_ids:
            self.stats.duplicates_dropped += 1
            effects.append(DuplicateDropped(msg))
            return effects
        if self._is_orphan_message(msg):
            self.stats.orphans_discarded += 1
            effects.append(MessageDiscarded(msg, reason="orphan-on-receive"))
            return effects
        self.received_ids.add(msg.msg_id)
        self._receive_times[msg.wire_id] = self.now_fn()
        self.receive_buffer.append(msg)
        return effects + self._deliver_loop()

    # ------------------------------------------------------------------
    # Receive_failure_ann
    # ------------------------------------------------------------------

    def on_failure_announcement(self, ann: FailureAnnouncement) -> List[Effect]:
        """Receive_failure_ann(j, t, x'): Figure 3.  With acks on, every
        copy is acked first."""
        self._require_running()
        effects = self.retransmit.ack(ann.origin, ann)
        if self.iet.lookup(ann.origin, ann.end.inc) == ann.end.sii:
            # A retransmitted copy: handled already (iet is rebuilt from
            # the logged announcements, so this holds across our crashes).
            return effects
        # "Synchronously log the received announcement" — so iet/log survive
        # our own later crash.
        self.storage.log_announcement(ann)
        self.iet.insert(ann.origin, ann.end)
        # Corollary 1: the announcement also says (t, x') is stable.
        self.log.insert(ann.origin, ann.end)
        self.dissemination.peer_restarted(ann.origin)

        # Roll back first if our own state is orphaned (see fidelity notes).
        rolled_back = self._state_orphaned_by(ann)
        if rolled_back:
            effects += self._rollback()

        effects += self._scrub_orphans()
        # Corollary 1 also applies to the local vector: the announcement
        # certifies (t, x') stable, so a dependency it covers is redundant
        # (the paper's pseudo-code nullifies only buffered copies here; the
        # local entry would be dropped by the next Receive_log anyway).
        self._nullify_stable_tdv_entries()
        # Footnote 3: re-send recent messages to a restarted process.
        for msg in self.retransmit.resend_to(ann.origin,
                                             self._is_orphan_message):
            effects += self._release(msg)
        effects += self._check_send_buffer()
        effects += self._update_output_buffer()
        effects += self._deliver_loop()
        if rolled_back:
            # The messages the Rollback requeued were stable before it and
            # nobody resends an outside-world one: log them again, as
            # delivered, in the Rollback's own barrier.
            self.storage.append_log(self.volatile.drain(), sync=True)
        return effects

    # The retransmission component (repro.core.retransmit) decides these.

    def _release(self, msg: AppMessage) -> List[Effect]:
        """Put ``msg`` on the wire (:meth:`Retransmission.release`)."""
        return self.retransmit.release(msg)

    def on_ack(self, ack: Ack) -> List[Effect]:
        return self.retransmit.on_ack(ack)

    def on_retransmit_timer(self, key: Any) -> List[Effect]:
        return self.retransmit.on_timer(key, self._is_orphan_message)

    # ------------------------------------------------------------------
    # Receive_log
    # ------------------------------------------------------------------

    def on_log_notification(self, notif: LogProgressNotification) -> List[Effect]:
        """Receive_log(mlog): merge stability info, drop redundant deps."""
        return self.on_log_notifications([notif])

    def on_log_notifications(
        self, notifs: List[LogProgressNotification]) -> List[Effect]:
        """Receive_log over a whole batch of notifications at once.

        Stability information is monotone and merged by max, so merging
        all snapshots first and running the (expensive) nullification /
        send-buffer / output-buffer / deliver scans *once* is equivalent to
        interleaving them per notification — and at high fan-in it is the
        difference between O(batch) and O(batch * scan) work per gossip
        tick.  The runtime batches same-instant arrivals (see
        ``ProcessHost``); a batch of one is exactly the paper's
        Receive_log.
        """
        self._require_running()
        if len(notifs) == 1:
            self.log.merge_snapshot(notifs[0].table)
        else:
            self.log.merge_snapshots([notif.table for notif in notifs])
        self._nullify_stable_tdv_entries()
        effects = self._check_send_buffer()
        effects += self._update_output_buffer()
        effects += self._deliver_loop()
        return effects

    # The dissemination policy (repro.core.dissemination) decides these.

    def make_log_notification(self) -> LogProgressNotification:
        return self.dissemination.notification(self.log)

    def make_log_notification_for(
            self, dst: ProcessId) -> LogProgressNotification:
        return self.dissemination.notification_for(self.log, dst)

    def notify(self) -> List[Effect]:
        """One periodic logging-progress tick (:meth:`Dissemination.tick`)."""
        self._require_running()
        return self.dissemination.tick(self.log, self.awaited_owners)

    def awaited_owners(self) -> List[ProcessId]:
        return self.dissemination.awaited_owners(self._stability,
                                                 self.tdv.processes())

    def on_logging_request(self, request: LoggingRequest) -> List[Effect]:
        """Answer ``request.origin`` alone with the notification a periodic
        tick would carry.  An output-driven request (``request.flush``,
        Section 2) flushes first; a fanout-mode pull reports what is
        already logged and leaves flushing to the flush timer."""
        self._require_running()
        effects = self.flush() if request.flush else []
        effects.append(self.dissemination.answer(self.log, request))
        return effects

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------

    def checkpoint(self) -> List[Effect]:
        """Figure 3's Checkpoint.

        Logging the volatile buffer first keeps stable state intervals
        contiguous (Section 2); Corollary 2 then lets us drop the dependency
        entry on our own current incarnation.
        """
        self._require_running()
        self.storage.append_log(self.volatile.drain(), sync=True)
        # The buffers too: replay regenerates only what intervals after the
        # checkpoint owe, so a Restart from it must find the rest here.
        self.storage.write_checkpoint(
            self.current, self.app_state, self.tdv, self.received_ids,
            time_taken=self.now_fn(),
            receive_buffer=self.receive_buffer,
            sends=self.send_buffer + self.retransmit.unacked_messages(),
            outputs=[(p.record, p.tdv) for p in self.output_buffer.pending],
        )
        self.log.insert(self.pid, self.current)
        self.tdv.nullify(self.pid)
        if self.gc_on_checkpoint:
            self._garbage_collect()
        effects: List[Effect] = [StableProgress(self.pid, self.current)]
        effects += self._check_send_buffer()
        effects += self._update_output_buffer()
        effects += self._deliver_loop()
        return effects

    def _garbage_collect(self) -> int:
        """Reclaim recovery data that can never be needed again.

        A checkpoint whose dependency vector is entirely covered by the log
        table has no non-stable transitive dependencies (Theorem 3), so it
        can never become orphaned; Restart and Rollback will never restore
        anything older.  Earlier checkpoints and logged messages at or
        before its interval are dead weight.  Returns records reclaimed.
        """
        checkpoints = self.storage.checkpoints
        for idx in range(len(checkpoints) - 1, 0, -1):
            checkpoint = checkpoints[idx]
            if all(self.log.covers(pid, entry)
                   for pid, entry in checkpoint.tdv.items()):
                return self.storage.truncate_before(idx)
        return 0

    # ------------------------------------------------------------------
    # Asynchronous flush (the optimistic logging step)
    # ------------------------------------------------------------------

    def flush(self) -> List[Effect]:
        """Write the volatile buffer to stable storage in one async operation.

        This is the paper's "asynchronously saves messages in the volatile
        buffer to stable storage".  Afterwards every interval up to
        ``current`` is reconstructible; with ``nullify_own_on_flush`` (the
        default) that progress is recorded in our own row of the log table
        and the dependency on our own current interval is dropped
        (Theorem 2).  With the flag off, only Checkpoint advances the log
        table (Corollary 2 to the letter) — flushes still make intervals
        stable, the protocol just does not *exploit* it.
        """
        self._require_running()
        records = self.volatile.drain()
        if records:
            self.storage.append_log(records, sync=False)
        # The backend, not the protocol, decides how far durability really
        # reached: a group-committing file log may still hold un-fsynced
        # records, and announcing those intervals stable (or nullifying the
        # own-entry they protect) would let an output commit depend on
        # bytes a crash can still lose.  The model backend's frontier is
        # always ``current``, which reduces to the paper's flush exactly.
        frontier = self.storage.stable_frontier(self.current)
        if self.nullify_own_on_flush:
            self.log.insert(self.pid, frontier)
            if self.log.covers(self.pid, self.current):
                self.tdv.nullify(self.pid)
        effects: List[Effect] = [StableProgress(self.pid, frontier)]
        effects += self._check_send_buffer()
        effects += self._update_output_buffer()
        return effects

    # ------------------------------------------------------------------
    # Crash / Restart
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: every piece of volatile state disappears."""
        self._require_running()
        self.failed = True
        self._down_since = self.now_fn()
        # The storage device drops whatever was never truly persisted
        # (un-fsynced group-commit batches, lied-about fsyncs, armed torn
        # tails).  Never raises — for the model backend it is a no-op.
        self.storage.crash()
        self.volatile.clear()
        self.receive_buffer.clear()
        for waiter in self._sb_held:
            self._stability.drop(waiter)
        self._stability.forget_vector()
        self.send_buffer.clear()
        self._sb_held.clear()
        self._sb_woken.clear()
        self.retransmit.clear()
        self.output_buffer.discard_all()
        self._send_enqueue_times.clear()
        self._receive_times.clear()
        self.received_ids = set()
        self.dissemination.clear()

    def boot_after_crash(self) -> List[Effect]:
        """Bring a *freshly constructed* instance up from an existing journal.

        The simulation calls :meth:`crash` then :meth:`restart` on one
        long-lived instance.  A real deployment cannot: the crashed OS
        process is gone, and its replacement constructs a new instance over
        the same journal directory.  This is the entry point for that
        respawn path — it must be used instead of :meth:`initialize`
        (which would write a fresh initial checkpoint into a journal that
        already has history)."""
        if self._initialized:
            raise RuntimeError(
                f"P{self.pid}: boot_after_crash on an initialized instance"
            )
        self._initialized = True
        self.failed = True
        return self.restart()

    def restart(self) -> List[Effect]:
        """Figure 3's Restart: rebuild from stable storage, announce the
        failure, and start a new incarnation."""
        self._recover_tables()
        effects: List[Effect] = []
        self.failed = False
        # Outputs re-enqueued during replay were first enqueued before the
        # crash (the volatile buffer that held them — and their original
        # enqueue stamps — is gone).  Backdating them to the crash instant
        # keeps output-wait accounting from silently dropping the downtime.
        self._replay_backdate = self._down_since
        try:
            checkpoint, replayed, _requeued = self._restore_and_replay(effects)
            self._take_back_buffers(checkpoint)
        finally:
            self._replay_backdate = None
            self._down_since = None
        return self._announce_restart(effects, replayed)

    def _recover_tables(self) -> None:
        """Restart's first step: bring the journal back and rebuild iet
        and log from what it holds."""
        if not self.failed:
            raise RuntimeError(f"P{self.pid}: restart without a crash")

        # REDO-only fast restart: the backend re-reads its journal, checks
        # every frame's checksum, truncates at the first torn or corrupt
        # record, and rebuilds the logical state the code below consumes.
        # May raise StorageDeadError (unreadable media) — the runtime then
        # keeps the process down and retries the restart later.
        self.storage.recover()

        # Rebuild iet/log from synchronously logged announcements and the
        # incarnation ends our own Rollbacks journaled: a crash right after
        # a Rollback must not lose the end it has not yet notified.
        self.tdv = self._new_vector()
        self.iet = IncarnationEndTable(self.n)
        self.log = self.dissemination.new_table()
        for ann in self.storage.announcements:
            self.iet.insert(ann.origin, ann.end)
            self.log.insert(ann.origin, ann.end)
        for end in self.storage.incarnation_ends:
            self.log.insert(self.pid, end)
        for checkpoint in self.storage.checkpoints:
            self.log.insert(self.pid, checkpoint.entry)

    def _announce_restart(self, effects: List[Effect],
                          replayed: int) -> List[Effect]:
        """Restart's last step, once the replay stopped at ``current``:
        announce the failed incarnation's end and start the next one."""
        stop = self.current
        self.log.insert(self.pid, Entry(stop.inc, stop.sii))
        effects.append(StableProgress(self.pid, stop))

        # The failed incarnation is the highest ever used; the marker query
        # folds in checkpoints, logged messages and our own announcements.
        failed_inc = max(self.storage.highest_incarnation_marker(), stop.inc)
        announcement = FailureAnnouncement(self.pid, Entry(failed_inc, stop.sii))
        self.storage.log_announcement(announcement)
        self.iet.insert(self.pid, announcement.end)
        self.log.insert(self.pid, announcement.end)

        self._highest_inc = failed_inc + 1
        self.current = Entry(self._highest_inc, stop.sii + 1)
        self.tdv.set(self.pid, self.current)
        self.stats.restarts += 1

        effects.append(
            RestartPerformed(self.pid, announcement, replayed, self.current)
        )
        # The crash dropped the copies still awaiting an ack: with acks on,
        # every earlier announcement of ours goes again, this one last.
        effects += self.retransmit.broadcast(announcement,
                                             self.storage.announcements)
        effects += self._check_send_buffer()
        effects += self._update_output_buffer()
        effects += self._deliver_loop()
        return effects

    # ------------------------------------------------------------------
    # Rollback (non-failed orphan recovery)
    # ------------------------------------------------------------------

    def _rollback(self) -> List[Effect]:
        """Figure 3's Rollback, triggered from Receive_failure_ann.

        The orphan condition is evaluated against the *whole* iet (which the
        caller has just extended with the triggering announcement); that is
        equivalent to condition (I) for the new announcement plus all
        previously handled ones.
        """
        before = self.current

        # "Log all the unlogged messages to the stable storage."  The whole
        # prefix is stable from here on (orphans among it are popped below,
        # but stability and orphanhood are orthogonal).
        self.storage.append_log(self.volatile.drain(), sync=True)
        effects: List[Effect] = [StableProgress(self.pid, before)]

        # The live buffers survive a Rollback: the checkpoint's copies of
        # them are not taken back.
        _checkpoint, replayed, requeued = self._restore_and_replay(effects)

        stop = self.current
        # Everything replayed is on stable storage: record our own progress.
        self.log.insert(self.pid, Entry(stop.inc, stop.sii))

        new_inc = max(self._highest_inc, self.storage.highest_incarnation_marker()) + 1
        self._highest_inc = new_inc
        self.storage.log_incarnation_start(new_inc, ended=stop)
        self.current = Entry(new_inc, stop.sii + 1)
        self.tdv.set(self.pid, self.current)

        undone = before.sii - stop.sii
        self.stats.rollbacks += 1
        self.stats.intervals_undone += max(undone, 0)

        # Drop wait-time entries whose messages are no longer buffered
        # (delivered-then-undone, or replaced by requeued log records) so
        # neither dict leaks and mean_delivery_wait stays honest.
        live = {m.wire_id for m in self.send_buffer}
        self._send_enqueue_times = {
            w: t for w, t in self._send_enqueue_times.items() if w in live
        }
        live = {m.wire_id for m in self.receive_buffer}
        self._receive_times = {
            w: t for w, t in self._receive_times.items() if w in live
        }

        effects.append(
            RollbackPerformed(self.pid, stop, self.current, max(undone, 0), requeued)
        )
        return effects

    def _restore_and_replay(
            self, effects: List[Effect]) -> Tuple[Checkpoint, int, int]:
        """Shared core of Restart and Rollback.

        Restores the latest non-orphan checkpoint, deterministically replays
        logged messages while the resulting state stays non-orphan, then
        pops the remainder of the log: orphans are discarded, non-orphans
        handed back to the receive buffer to be delivered (and re-logged)
        again in the new incarnation.

        Returns ``(checkpoint, replayed_count, requeued_count)`` — the
        checkpoint a copy of the one restored — and extends ``effects``
        with the replay deliveries.
        """
        checkpoints = self.storage.checkpoints
        idx = len(checkpoints) - 1
        while idx >= 0 and self.vector_known_orphan(checkpoints[idx].tdv):
            idx -= 1
        if idx < 0:
            raise RuntimeError(
                f"P{self.pid}: no non-orphan checkpoint found; the initial "
                "checkpoint has an empty vector and can never be orphaned"
            )
        # A defensive copy: execution resumes *in* this state and mutates
        # it freely; the stored recovery point must stay pristine.
        checkpoint = self.storage.restore_checkpoint(idx)
        self.storage.discard_checkpoints_after(idx)

        self.app_state = checkpoint.app_state
        self.current = checkpoint.entry
        self.tdv = checkpoint.tdv
        self.received_ids = set(checkpoint.received_ids)
        self._highest_inc = max(self._highest_inc, checkpoint.entry.inc)

        # Replay "till condition (I) is not satisfied": the first logged
        # message whose dependencies are invalidated stops the replay —
        # everything after it is orphan by program order.
        replayed = 0
        for record in self.storage.logged_after(checkpoint.entry.sii):
            if self._is_orphan_message(record.message):
                break
            effects.extend(self._deliver(record.message, replay_record=record))
            replayed += 1

        popped = self.storage.pop_logged_after(self.current.sii)
        requeued = 0
        for record in popped:
            msg = record.message
            if self._is_orphan_message(msg):
                self.stats.orphans_discarded += 1
                effects.append(MessageDiscarded(msg, reason="orphan-in-log"))
            else:
                # "These messages will be delivered again."
                self.received_ids.add(msg.msg_id)
                self.receive_buffer.append(msg)
                self.stats.messages_requeued += 1
                requeued += 1
        # Messages still sitting in the receive buffer were received but not
        # delivered; keep their ids deduplicated.
        self.received_ids |= {m.msg_id for m in self.receive_buffer}
        # The restored checkpoint's vector may predate stability information
        # we already hold (e.g. a synchronously logged announcement): apply
        # Theorem 2 to the reconstructed vector too.
        self._nullify_stable_tdv_entries()
        return checkpoint, replayed, requeued

    def _take_back_buffers(self, checkpoint: Checkpoint) -> None:
        """Restart's half of Checkpoint: the buffers died with the process,
        and replay regenerates only what the intervals after the restored
        checkpoint owe — the rest comes back from the checkpoint.

        A message received by then is taken back unless it has been
        delivered since (its logged delivery was replayed, or popped back
        into the receive buffer); a send or output only if it is no known
        orphan, and an output only if it is neither committed nor pending
        already.  Sends and outputs count as enqueued again, with their
        clocks backdated like replayed outputs' (see :meth:`restart`)."""
        stats = self.stats
        now = (self.now_fn() if self._replay_backdate is None
               else self._replay_backdate)
        since = {record.message.msg_id for record
                 in self.storage.logged_after(checkpoint.entry.sii)}
        since.update(msg.msg_id for msg in self.receive_buffer)
        for msg in checkpoint.receive_buffer:
            if msg.msg_id not in since and not self._is_orphan_message(msg):
                self.receive_buffer.append(msg)
                stats.messages_requeued += 1
        for msg in checkpoint.sends:
            if not self._is_orphan_message(msg):
                self.send_buffer.append(msg)
                self._send_enqueue_times[msg.wire_id] = now
                stats.messages_enqueued += 1
        for record, tdv in checkpoint.outputs:
            output_id = record.output_id
            if not (self.storage.output_committed(output_id)
                    or self.output_buffer.contains(output_id)
                    or self.vector_known_orphan(tdv)):
                self.output_buffer.add(record, tdv, now=now)
                stats.outputs_enqueued += 1

    # ------------------------------------------------------------------
    # Deliver_message and the deliver loop
    # ------------------------------------------------------------------

    def _deliver_loop(self) -> List[Effect]:
        """Deliver buffered messages while any is deliverable.

        One forward pass per round: each message is checked against the
        *current* state, so a delivery can unlock later messages within
        the same pass.  A new round runs only when the previous pass
        delivered something (every delivery mutates ``tdv``/``log``, which
        is the only state that can turn an earlier-buffered held message
        deliverable) — O(rounds x buffer) instead of the old
        restart-from-zero scan's O(buffer^2) per call.
        """
        effects: List[Effect] = []
        while self.receive_buffer:
            delivered_any = False
            i = 0
            while i < len(self.receive_buffer):
                msg = self.receive_buffer[i]
                if self._deliverable(msg):
                    del self.receive_buffer[i]
                    effects += self._deliver(msg)
                    delivered_any = True
                else:
                    i += 1
            if not delivered_any:
                break
        return effects

    def _deliverable(self, msg: AppMessage) -> bool:
        """Check_deliverability(m).

        Delivering m must not make this process depend on two incarnations
        of the same process without knowing that the smaller one is stable
        (the Section 3 special case: no local entry means no delay).
        """
        tdv = self.tdv
        log = self.log
        for pid, theirs in msg.tdv.iter_packed():
            mine = tdv.get_packed(pid)
            if mine < 0 or (mine >> _PACK_SHIFT) == (theirs >> _PACK_SHIFT):
                continue
            smaller = mine if mine < theirs else theirs
            if not log.covers_packed(pid, smaller):
                return False
        return True

    def _deliver(
        self, msg: AppMessage, replay_record: Optional[LoggedMessage] = None
    ) -> List[Effect]:
        """Deliver_message(m): merge dependencies, start a new interval, run
        the deterministic application handler, queue its sends and outputs."""
        replay = replay_record is not None
        # Theorem 2 at acquisition time: entries the log table already
        # covers are redundant the moment they are merged.
        self._nullify_stable_tdv_entries(self.tdv.merge(msg.tdv))
        if replay:
            self.current = Entry(replay_record.inc, replay_record.position)
        else:
            self.current = self.current.next_interval()
        self.tdv.set(self.pid, self.current)
        self.received_ids.add(msg.msg_id)

        ctx = AppContext(self.pid, self.n, self.current.inc, self.current.sii, self.seed)
        self.app_state = self.behavior.on_message(self.app_state, msg.payload, ctx)

        sends = ctx.sends_with_limits
        outputs = ctx.outputs
        effects: List[Effect] = [
            MessageDelivered(msg, self.current, replay, sends, outputs)]
        self.stats.deliveries += 1
        if replay:
            self.stats.replayed_deliveries += 1
        else:
            self.volatile.append(
                LoggedMessage(self.current.sii, self.current.inc, msg)
            )
            arrival = self._receive_times.pop(msg.wire_id, None)
            if arrival is not None:
                self.stats.delivery_wait_total += self.now_fn() - arrival
            # Hook for protocol variants (pessimistic logging syncs here).
            effects += self._post_delivery_effects()

        for seq, (dst, payload, k_limit) in enumerate(sends):
            self._enqueue_send(dst, payload, seq, replayed=replay,
                               k_limit=k_limit)
        for seq, payload in enumerate(outputs):
            effects += self._enqueue_output(payload, seq)

        effects += self._check_send_buffer()
        effects += self._update_output_buffer()
        return effects

    # ------------------------------------------------------------------
    # Send_message and Check_send_buffer
    # ------------------------------------------------------------------

    def _enqueue_send(
        self,
        dst: ProcessId,
        payload: Any,
        seq: int,
        replayed: bool = False,
        k_limit: Optional[int] = None,
    ) -> None:
        """Send_message(data): "put (data, tdv) in Send_buffer".

        ``k_limit`` optionally overrides the system-wide K for this message
        (Section 4.2); ``k_limit=0`` makes it as safe as an output.  When
        the application gives no explicit bound and a ``k_policy`` is
        installed (the adaptive-K controller), the policy's current
        recommendation is stamped onto the message at enqueue time.
        """
        if k_limit is None and self.k_policy is not None:
            k_limit = self.k_policy()
        msg_id = MessageId(self.pid, self.current.inc, self.current.sii, seq)
        msg = AppMessage(
            msg_id=msg_id,
            src=self.pid,
            dst=dst,
            payload=payload,
            tdv=self._piggyback_vector(),
            send_interval=self.current,
            replayed=replayed,
            k_limit=k_limit,
        )
        self.send_buffer.append(msg)
        self._send_enqueue_times[msg.wire_id] = self.now_fn()
        self.stats.messages_enqueued += 1

    def _check_send_buffer(self) -> List[Effect]:
        """Check_send_buffer: nullify stable entries, release every message
        whose dependency vector has at most K non-NULL entries.

        Releasability depends only on the log table and the buffered
        vectors (which nothing else mutates), so only the messages the
        stability index woke — the table now covers an entry of theirs —
        and the ones enqueued since the last pass are judged.
        """
        if not self.send_buffer:
            return []
        index = self._stability
        index.advance(self.log)
        held = self._sb_held
        woken = self._sb_woken
        if len(held) < len(self.send_buffer):
            log = self.log
            for msg in self.send_buffer[len(held):]:
                held.append(index.watch(msg, msg.tdv, log, woken))
        if not woken:
            return []
        ready = index.collect(woken, self._send_limit)
        if not ready:
            return []
        self._sb_held = [w for w in held if w.woken is not None]
        self.send_buffer = [w.item for w in self._sb_held]
        effects: List[Effect] = []
        now = self.now_fn()
        for waiter in ready:
            effects += self._release_held(waiter.item, now)
        return effects

    def _release_held(self, msg: AppMessage, now: float) -> List[Effect]:
        """Let one message leave the send buffer: its hold time, a copy in
        the footnote-3 sent-log, then :meth:`_release`."""
        enqueued = self._send_enqueue_times.pop(msg.wire_id, now)
        hold = now - enqueued
        self.stats.send_hold_time_total += hold
        if hold > self.stats.send_hold_time_max:
            self.stats.send_hold_time_max = hold
        self.stats.messages_released += 1
        self.retransmit.record(msg)
        return self._release(msg)

    def _send_limit(self, msg: AppMessage) -> int:
        """The degree of optimism ``msg`` is released under (Section 4.2)."""
        return self.k if msg.k_limit is None else msg.k_limit

    # ------------------------------------------------------------------
    # Output commit
    # ------------------------------------------------------------------

    def _enqueue_output(self, payload: Any, seq: int) -> List[Effect]:
        """Queue an output; it is a 0-optimistic message (Section 4.2).
        Enqueueing may ask for logging progress
        (:meth:`Dissemination.output_requests`)."""
        output_id = OutputId(self.pid, self.current.inc, self.current.sii, seq)
        if self.storage.output_committed(output_id):
            return []  # deterministic replay of an already-committed output
        if self.output_buffer.contains(output_id):
            return []  # rollback replay of an output still pending in-buffer
        record = OutputRecord(output_id, self.pid, payload, self.current)
        # During restart replay, re-enqueued outputs are backdated to the
        # crash instant (the closest knowable lower bound on their original
        # enqueue time) so wait accounting spans the restart boundary.
        now = self.now_fn() if self._replay_backdate is None \
            else self._replay_backdate
        self.output_buffer.add(record, self.tdv, now=now)
        self.stats.outputs_enqueued += 1
        return self.dissemination.output_requests(self.tdv.processes())

    def _update_output_buffer(self) -> List[Effect]:
        effects: List[Effect] = []
        now = self.now_fn()
        for pending in self.output_buffer.update(self.log):
            self.storage.record_committed_output(pending.record.output_id)
            self.stats.outputs_committed += 1
            wait = now - pending.enqueued_at
            self.stats.output_wait_total += wait
            effects.append(CommitOutput(pending.record, wait))
        return effects

    # ------------------------------------------------------------------
    # Variant hooks (overridden by the baseline protocols)
    # ------------------------------------------------------------------
    #
    # A variant (core/baselines/, check/mutants.py) overrides only these
    # (tests/core/test_variant_hooks.py): the factories and predicates
    # _new_vector, _state_orphaned_by, _post_delivery_effects,
    # _piggyback_vector, _deliverable, _is_orphan_message and
    # _nullify_stable_tdv_entries; the steps _check_send_buffer,
    # _enqueue_output, _release, _rollback, _recover_tables and
    # _take_back_buffers; and __init__, flush, checkpoint, crash, restart,
    # on_log_notifications, on_logging_request and unacked_count.

    def _new_vector(self) -> DependencyVector:
        """Factory for the dependency-vector type this protocol tracks."""
        return DependencyVector(self.n)

    def _state_orphaned_by(self, ann: FailureAnnouncement) -> bool:
        """Receive_failure_ann's rollback test:
        ``tdv[j].inc <= t  and  tdv[j].sii > x'``."""
        mine = self.tdv.get(ann.origin)
        return mine is not None and mine.inc <= ann.end.inc and mine.sii > ann.end.sii

    def _post_delivery_effects(self) -> List[Effect]:
        """Hook invoked right after a (non-replay) delivery is buffered.

        The K-optimistic protocol does nothing here; pessimistic logging
        overrides this to synchronously log the delivery before any message
        sent from the new interval can leave the process.
        """
        return []

    def _piggyback_vector(self) -> DependencyVector:
        """The dependency vector snapshot attached to an outgoing message."""
        return self.tdv.copy()

    # ------------------------------------------------------------------
    # Orphan detection
    # ------------------------------------------------------------------

    def _is_orphan_message(self, msg: AppMessage) -> bool:
        """Check_orphan for one message: any piggybacked dependency that an
        incarnation-end entry invalidates makes the message an orphan.

        Note stability is no defence: a failed process's announcement end
        can sit *below* indices it had earlier gossiped as stable (replay
        stops at the first orphaned logged message), so a log-covered
        entry can still name a lost interval.
        """
        iet = self.iet
        if iet.version == 0:
            return False  # empty table invalidates nothing
        return any(iet.invalidates_packed(pid, packed)
                   for pid, packed in msg.tdv.iter_packed())

    def _scrub_orphans(self) -> List[Effect]:
        """Check_orphan(Send_buffer) and Check_orphan(Receive_buffer), plus
        the analogous scrub of the output buffer and the unacked map."""
        effects: List[Effect] = []
        for buffer_name, wait_times in (
            ("send_buffer", self._send_enqueue_times),
            ("receive_buffer", self._receive_times),
        ):
            buffer: List[AppMessage] = getattr(self, buffer_name)
            kept: List[AppMessage] = []
            for msg in buffer:
                if self._is_orphan_message(msg):
                    self.stats.orphans_discarded += 1
                    wait_times.pop(msg.wire_id, None)
                    effects.append(
                        MessageDiscarded(msg, reason=f"orphan-in-{buffer_name}")
                    )
                else:
                    kept.append(msg)
            setattr(self, buffer_name, kept)
        if effects and self._sb_held:
            # A discarded message must never be woken and released.
            kept_ids = {id(msg) for msg in self.send_buffer}
            for waiter in self._sb_held:
                if id(waiter.item) not in kept_ids:
                    self._stability.drop(waiter)
            self._sb_held = [w for w in self._sb_held if w.woken is not None]
        self.retransmit.scrub(self._is_orphan_message)
        for pending in self.output_buffer.discard_orphans(self.iet):
            self.stats.outputs_discarded += 1
            effects.append(OutputDiscarded(pending.record))
        return effects

    # ------------------------------------------------------------------
    # Theorem 2 nullification
    # ------------------------------------------------------------------

    def _nullify_stable_tdv_entries(
            self, merged: Optional[List[MergedEntry]] = None) -> None:
        """Receive_log's inner loop: drop every dependency entry whose
        interval is now known stable.

        The vector is a member of the stability index, so this applies
        the pops of its entries queued since the last pass; ``merged`` are
        the entries :meth:`DependencyVector.merge` just took.  The own
        entry is managed by Checkpoint/flush.
        """
        self._stability.nullify_vector(self.tdv, self.pid, self.log, merged)

    # ------------------------------------------------------------------
    # Read-only introspection (for the invariant probe layer and tests)
    # ------------------------------------------------------------------
    #
    # These accessors expose protocol state without going through the
    # overridable protocol routines, so external checkers (repro.check)
    # can evaluate invariants even against deliberately broken variants
    # that override e.g. ``_is_orphan_message``.

    def tdv_entries(self) -> List[Tuple[ProcessId, Entry]]:
        """The non-NULL entries of the current dependency vector."""
        return list(self.tdv.items())

    def vector_known_orphan(self, tdv: DependencyVector) -> bool:
        """Whether the incarnation-end table invalidates any entry of
        ``tdv`` — i.e. whether a message carrying it is a *known* orphan."""
        return any(self.iet.invalidates(pid, e) for pid, e in tdv.items())

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _require_running(self) -> None:
        if not self._initialized:
            raise RuntimeError(f"P{self.pid} used before initialize()")
        if self.failed:
            raise RuntimeError(f"P{self.pid} is crashed; restart() first")

    @property
    def unacked_count(self) -> int:
        """Released messages and announcement copies still awaiting an
        ack (in flight)."""
        return len(self.retransmit.pending)

    def __repr__(self) -> str:
        return (
            f"<P{self.pid} K={self.k} current={self.current} tdv={self.tdv!r} "
            f"rbuf={len(self.receive_buffer)} sbuf={len(self.send_buffer)}>"
        )
