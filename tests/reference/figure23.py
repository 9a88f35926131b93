"""Figures 2 and 3 of the paper as a plain dict-and-set process.

The executable reference ``test_lockstep.py`` runs step by step next to
:class:`repro.core.protocol.KOptimisticProcess`: one method per routine,
each docstring quoting the routine as docs/PROTOCOL.md and DESIGN.md §5
state it.  ``tdv`` is a dict ``pid -> Entry`` (NULL is an absent key),
``log`` and ``iet`` dicts ``pid -> {inc: highest index}``, the buffers
lists; nothing is columnar, indexed or cached.  Stable storage is the
repo's ``ModelBackend``, so both processes' storage compares through
``state_digest()``.  Effects are plain tuples ``(kind, ...)``.

What the implementation adds to the figures, the reference adds too: each
such place cites a key of :data:`STATED_DIFFERENCES` in brackets, and the
lockstep allows no difference that is not stated there.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.app.behavior import AppBehavior, AppContext
from repro.core.entry import Entry
from repro.net.message import AppMessage, FailureAnnouncement, OutputRecord
from repro.storage.stable import Checkpoint, LoggedMessage, ModelBackend
from repro.types import MessageId, OutputId

#: What the repo adds to Figures 2–3, each one a named, stated difference.
STATED_DIFFERENCES: Dict[str, str] = {
    "deliver-loop": "a deliver loop ends each handler that can unblock a "
    "message (not a flush): the paper's application-driven delivery with "
    "the application always ready",
    "rollback-first": "Receive_failure_ann rolls back before it scrubs the "
    "buffers and delivers: delivering first would extend an orphan state",
    "incarnation-marker": "a non-failed Rollback journals its new "
    "incarnation and where the closed one ended; Restart folds the ends "
    "into log",
    "incarnation-end": "Restart announces the highest incarnation any "
    "stable artifact proves was used",
    "checkpointed-buffers": "Checkpoint saves the buffers its intervals "
    "owe; Restart takes them back unless delivered since, orphaned, "
    "committed or pending; Rollback keeps its live buffers",
    "theorem2-at-merge": "Deliver_message drops every entry log covers "
    "right after the merge",
    "theorem2-at-flush": "a flush inserts the backend's stable_frontier "
    "into the own log row and drops the own entry once covered",
    "own-entry": "Theorem 2 on the local vector leaves the own entry to "
    "Checkpoint and flush",
    "corollary1-on-tdv": "Receive_failure_ann applies Theorem 2 to the "
    "local vector too",
    "announcement-repeat": "an announcement already in iet is ignored",
    "restart-honours-announcements": "Restart rebuilds iet and log from "
    "the logged announcements and replays only while the state is not "
    "an orphan",
    "initial-checkpoint": "Initialize writes the initial checkpoint "
    "(Corollary 3) and starts with an empty vector",
    "output-dedup": "replay re-enqueues an output only if it is neither "
    "committed nor pending",
    "storage-reclamation": "Checkpoint reclaims what precedes the newest "
    "checkpoint whose vector log covers (Theorem 3)",
}

Row = Dict[int, int]
Vector = Dict[int, Entry]
Effects = List[Tuple[Any, ...]]


def insert(row: Row, entry: Entry) -> None:
    """``Insert(se, (t, x'))``: keep the per-incarnation maximum index."""
    if entry.sii > row.get(entry.inc, -1):
        row[entry.inc] = entry.sii


def vector_key(tdv: Any) -> Tuple[Tuple[int, Entry], ...]:
    """A vector of either process (dict or ``DependencyVector``)."""
    return tuple(sorted(tdv.items()))


def message_key(msg: AppMessage) -> Tuple[Any, ...]:
    """A message of either process, without its per-transmission id."""
    return (msg.msg_id, msg.src, msg.dst, repr(msg.payload),
            vector_key(msg.tdv), msg.send_interval, msg.replayed, msg.k_limit)


class Figure23Process:
    """One process of Figures 2–3, over plain dicts, sets and lists."""

    def __init__(self, pid: int, n: int, k: int, behavior: AppBehavior,
                 now_fn: Callable[[], float] = lambda: 0.0, seed: int = 0):
        self.pid, self.n, self.k = pid, n, k
        self.behavior = behavior
        self.now_fn = now_fn
        self.seed = seed
        self.storage = ModelBackend(pid)
        # Figure 2's variable declarations.
        self.tdv: Vector = {}
        self.log: Dict[int, Row] = {j: {} for j in range(n)}
        self.iet: Dict[int, Row] = {j: {} for j in range(n)}
        self.current = Entry(0, 1)
        # What the model needs besides.
        self.receive_buffer: List[AppMessage] = []
        self.send_buffer: List[AppMessage] = []
        self.output_buffer: List[Tuple[OutputRecord, Vector]] = []
        self.volatile: List[LoggedMessage] = []
        self.received_ids: Set[MessageId] = set()
        self.app_state: Any = None
        self.highest_inc = 0
        self.failed = False

    # -- the set predicates ---------------------------------------------------

    def covers(self, j: int, entry: Entry) -> bool:
        """``(t, x') ∈ log[j] ∧ x ≤ x'``: interval ``entry`` of P_j is
        known stable."""
        return self.log[j].get(entry.inc, -1) >= entry.sii

    def invalidates(self, j: int, entry: Entry) -> bool:
        """``∃t: (t, x') ∈ iet[j] ∧ t ≥ entry.inc ∧ x' < entry.sii``
        (DESIGN.md §5)."""
        return any(t >= entry.inc and x < entry.sii
                   for t, x in self.iet[j].items())

    def nullify_stable(self, tdv: Vector, skip: Optional[int] = None) -> None:
        """Set to NULL every entry of ``tdv`` that log covers."""
        for j in [j for j, e in tdv.items() if j != skip and self.covers(j, e)]:
            del tdv[j]

    def snapshot(self) -> Dict[int, Row]:
        """``mlog``: the whole log table, as a notification carries it."""
        return {j: dict(row) for j, row in self.log.items()}

    # -- Initialize -----------------------------------------------------------

    def initialize(self) -> Effects:
        """Initialize: ``current = (0, 1)``; the first state interval
        counts as stable [initial-checkpoint]."""
        self.app_state = self.behavior.initial_state(self.pid, self.n)
        self.storage.write_checkpoint(self.current, self.app_state, self.tdv,
                                      self.received_ids,
                                      time_taken=self.now_fn())
        insert(self.log[self.pid], self.current)
        return []

    # -- Receive_message / Deliver_message ------------------------------------

    def receive(self, msg: AppMessage) -> Effects:
        """Receive_message(m): dedup → Check_orphan (discard if any
        piggybacked entry is invalidated by iet) → append to the receive
        buffer → deliver loop [deliver-loop]."""
        if msg.msg_id in self.received_ids:
            return [("duplicate", msg.msg_id)]
        if self.check_orphan(msg):
            return [("discard", msg.msg_id, "orphan-on-receive")]
        self.received_ids.add(msg.msg_id)
        self.receive_buffer.append(msg)
        return self.deliver_loop()

    def deliver_loop(self) -> Effects:
        """Deliver every deliverable buffered message, in buffer order,
        until a pass delivers nothing [deliver-loop]."""
        effects: Effects = []
        progress = True
        while progress:
            progress = False
            for msg in list(self.receive_buffer):
                if self.check_deliverability(msg):
                    self.receive_buffer.remove(msg)
                    effects += self.deliver(msg)
                    progress = True
        return effects

    def deliver(self, msg: AppMessage,
                record: Optional[LoggedMessage] = None) -> Effects:
        """Deliver_message(m): merge piggybacked entries (pointwise
        lexicographic max), advance current, set own entry, run the
        deterministic handler, buffer its sends and outputs, append the
        message to the volatile buffer.  Entries the log table already
        covers are nullified right after the merge [theorem2-at-merge]."""
        for j, entry in msg.tdv.items():
            if j not in self.tdv or entry > self.tdv[j]:
                self.tdv[j] = entry
        self.nullify_stable(self.tdv, skip=self.pid)
        replay = record is not None
        self.current = (Entry(record.inc, record.position) if replay
                        else Entry(self.current.inc, self.current.sii + 1))
        self.tdv[self.pid] = self.current
        self.received_ids.add(msg.msg_id)
        ctx = AppContext(self.pid, self.n, self.current.inc, self.current.sii,
                         self.seed)
        self.app_state = self.behavior.on_message(self.app_state, msg.payload,
                                                  ctx)
        sends, outputs = ctx.sends_with_limits, ctx.outputs
        effects: Effects = [("deliver", msg.msg_id, self.current, replay,
                             sends, outputs)]
        if not replay:
            self.volatile.append(
                LoggedMessage(self.current.sii, self.current.inc, msg))
        for seq, (dst, payload, k_limit) in enumerate(sends):
            self.send(dst, payload, seq, replay, k_limit)
        for seq, payload in enumerate(outputs):
            self.enqueue_output(payload, seq)
        return effects + self.check_send_buffer() + self.update_output_buffer()

    def check_deliverability(self, msg: AppMessage) -> bool:
        """Check_deliverability(m): held exactly when m and the local
        vector carry non-NULL entries for the same P_j with different
        incarnations and the lexicographically smaller one is not known
        stable (DESIGN.md §5)."""
        for j, theirs in msg.tdv.items():
            mine = self.tdv.get(j)
            if mine is None or mine.inc == theirs.inc:
                continue
            if not self.covers(j, min(mine, theirs)):
                return False
        return True

    def check_orphan(self, msg: AppMessage) -> bool:
        """Check_orphan({m}): discard m iff ∃t: (t, x′) ∈ iet[j] ∧
        t ≥ m.tdv[j].inc ∧ x′ < m.tdv[j].sii (DESIGN.md §5)."""
        return any(self.invalidates(j, e) for j, e in msg.tdv.items())

    # -- Send_message / Check_send_buffer / outputs ---------------------------

    def send(self, dst: int, payload: Any, seq: int, replayed: bool,
             k_limit: Optional[int]) -> None:
        """Send_message(data): put (data, tdv) in Send_buffer; a send
        snapshots the vector."""
        cur = self.current
        self.send_buffer.append(AppMessage(
            MessageId(self.pid, cur.inc, cur.sii, seq), self.pid, dst,
            payload, dict(self.tdv), send_interval=cur, replayed=replayed,
            k_limit=k_limit))

    def check_send_buffer(self) -> Effects:
        """Check_send_buffer: nullify stable entries of every buffered
        message, release every message whose dependency vector has at most
        K (or its own ``k_limit``) non-NULL entries, in buffer order."""
        effects: Effects = []
        held = []
        for msg in self.send_buffer:
            self.nullify_stable(msg.tdv)
            limit = self.k if msg.k_limit is None else msg.k_limit
            if len(msg.tdv) <= limit:
                effects.append(("release", msg))
            else:
                held.append(msg)
        self.send_buffer = held
        return effects

    def enqueue_output(self, payload: Any, seq: int) -> None:
        """An output is a 0-optimistic message with a vector snapshot
        (Section 4.2) [output-dedup]."""
        cur = self.current
        output_id = OutputId(self.pid, cur.inc, cur.sii, seq)
        if self.storage.output_committed(output_id) or any(
                record.output_id == output_id
                for record, _ in self.output_buffer):
            return
        self.output_buffer.append(
            (OutputRecord(output_id, self.pid, payload, cur), dict(self.tdv)))

    def update_output_buffer(self) -> Effects:
        """Output_buffer, "updated whenever the Send_buffer is updated":
        commit an output when every entry is NULL (K = 0)."""
        effects: Effects = []
        pending = []
        for record, tdv in self.output_buffer:
            self.nullify_stable(tdv)
            if tdv:
                pending.append((record, tdv))
            else:
                self.storage.record_committed_output(record.output_id)
                effects.append(("commit", record.output_id, record.payload,
                                record.send_interval))
        self.output_buffer = pending
        return effects

    # -- Receive_log / flush / Checkpoint -------------------------------------

    def receive_log(self, mlog: Dict[int, Row]) -> Effects:
        """Receive_log(mlog): Insert every entry of every row, drop every
        dependency entry now known stable [own-entry], then
        Check_send_buffer and the output buffer [deliver-loop]."""
        for j, row in mlog.items():
            for inc, sii in row.items():
                insert(self.log[j], Entry(inc, sii))
        self.nullify_stable(self.tdv, skip=self.pid)
        return (self.check_send_buffer() + self.update_output_buffer()
                + self.deliver_loop())

    def flush(self) -> Effects:
        """"Asynchronously saves messages in the volatile buffer to stable
        storage" [theorem2-at-flush]."""
        records, self.volatile = self.volatile, []
        if records:
            self.storage.append_log(records, sync=False)
        frontier = self.storage.stable_frontier(self.current)
        insert(self.log[self.pid], frontier)
        if self.covers(self.pid, self.current):
            self.tdv.pop(self.pid, None)
        return ([("stable", frontier)] + self.check_send_buffer()
                + self.update_output_buffer())

    def checkpoint(self) -> Effects:
        """Checkpoint: log the volatile buffer first, save the state
        [checkpointed-buffers], then Corollary 2 drops the dependency
        entry on the own current incarnation [storage-reclamation]."""
        self.storage.append_log(self.volatile, sync=True)
        self.volatile = []
        self.storage.write_checkpoint(
            self.current, self.app_state, self.tdv, self.received_ids,
            time_taken=self.now_fn(), receive_buffer=self.receive_buffer,
            sends=self.send_buffer, outputs=self.output_buffer)
        insert(self.log[self.pid], self.current)
        self.tdv.pop(self.pid, None)
        checkpoints = self.storage.checkpoints
        for idx in range(len(checkpoints) - 1, 0, -1):
            if all(self.covers(j, e) for j, e in checkpoints[idx].tdv.items()):
                self.storage.truncate_before(idx)
                break
        return ([("stable", self.current)] + self.check_send_buffer()
                + self.update_output_buffer() + self.deliver_loop())

    # -- Restart / Receive_failure_ann / Rollback -----------------------------

    def crash(self) -> None:
        """Fail-stop: every piece of volatile state disappears."""
        self.failed = True
        self.storage.crash()
        self.volatile, self.receive_buffer = [], []
        self.send_buffer, self.output_buffer = [], []
        self.received_ids = set()

    def restart(self) -> Effects:
        """Restart: rebuild iet/log from synchronously logged
        announcements and from the incarnation ends its own Rollbacks
        journaled, restore the newest non-orphan checkpoint, replay logged
        messages while the reconstructed state stays non-orphan, announce
        (failed_inc, stop) and begin incarnation failed_inc + 1 at index
        stop + 1 [restart-honours-announcements] [incarnation-end]."""
        self.storage.recover()
        self.tdv = {}
        self.log = {j: {} for j in range(self.n)}
        self.iet = {j: {} for j in range(self.n)}
        for ann in self.storage.announcements:
            insert(self.iet[ann.origin], ann.end)
            insert(self.log[ann.origin], ann.end)
        for end in self.storage.incarnation_ends:  # [incarnation-marker]
            insert(self.log[self.pid], end)
        for checkpoint in self.storage.checkpoints:
            insert(self.log[self.pid], checkpoint.entry)
        self.failed = False
        effects: Effects = []
        checkpoint, replayed, _requeued = self.restore_and_replay(effects)
        self.take_back(checkpoint)
        stop = self.current
        insert(self.log[self.pid], stop)
        effects.append(("stable", stop))
        failed_inc = max(self.storage.highest_incarnation_marker(), stop.inc)
        ann = FailureAnnouncement(self.pid, Entry(failed_inc, stop.sii))
        self.storage.log_announcement(ann)
        insert(self.iet[self.pid], ann.end)
        insert(self.log[self.pid], ann.end)
        self.highest_inc = failed_inc + 1
        self.current = Entry(self.highest_inc, stop.sii + 1)
        self.tdv[self.pid] = self.current
        effects += [("restart", ann, replayed, self.current), ("announce", ann)]
        return (effects + self.check_send_buffer()
                + self.update_output_buffer() + self.deliver_loop())

    def take_back(self, checkpoint: Checkpoint) -> None:
        """What the restored checkpoint owes comes back from it
        [checkpointed-buffers]."""
        since = {r.message.msg_id
                 for r in self.storage.logged_after(checkpoint.entry.sii)}
        since |= {msg.msg_id for msg in self.receive_buffer}
        for msg in checkpoint.receive_buffer:
            if msg.msg_id not in since and not self.check_orphan(msg):
                self.receive_buffer.append(msg)
        self.send_buffer += [msg for msg in checkpoint.sends
                             if not self.check_orphan(msg)]
        pending = {record.output_id for record, _ in self.output_buffer}
        for record, tdv in checkpoint.outputs:
            if not (self.storage.output_committed(record.output_id)
                    or record.output_id in pending
                    or any(self.invalidates(j, e) for j, e in tdv.items())):
                self.output_buffer.append((record, tdv))

    def receive_failure_ann(self, ann: FailureAnnouncement) -> Effects:
        """Receive_failure_ann(j, t, x′): synchronously log the received
        announcement, Insert it into iet[j] and (Corollary 1) log[j]; roll
        back iff tdv[j].inc ≤ t ∧ tdv[j].sii > x′ [rollback-first]; then
        Check_orphan the send and receive buffers, and the output buffer
        [corollary1-on-tdv] [announcement-repeat]."""
        j, end = ann.origin, ann.end
        if self.iet[j].get(end.inc) == end.sii:
            return []
        self.storage.log_announcement(ann)
        insert(self.iet[j], end)
        insert(self.log[j], end)
        effects: Effects = []
        mine = self.tdv.get(j)
        if mine is not None and mine.inc <= end.inc and mine.sii > end.sii:
            effects += self.rollback()
        for name in ("send_buffer", "receive_buffer"):
            kept = []
            for msg in getattr(self, name):
                if self.check_orphan(msg):
                    effects.append(("discard", msg.msg_id, f"orphan-in-{name}"))
                else:
                    kept.append(msg)
            setattr(self, name, kept)
        kept_outputs = []
        for record, tdv in self.output_buffer:
            if any(self.invalidates(i, e) for i, e in tdv.items()):
                effects.append(("output-discard", record.output_id))
            else:
                kept_outputs.append((record, tdv))
        self.output_buffer = kept_outputs
        self.nullify_stable(self.tdv, skip=self.pid)
        return (effects + self.check_send_buffer()
                + self.update_output_buffer() + self.deliver_loop())

    def rollback(self) -> Effects:
        """Rollback: force the volatile buffer to disk, restore the newest
        checkpoint whose stored vector survives condition (I) against the
        whole iet, replay until the first orphaned logged message, pop the
        suffix (discard orphans, requeue non-orphans), journal the new
        incarnation's marker with the end of the one it closes
        [incarnation-marker] [checkpointed-buffers]."""
        before = self.current
        self.storage.append_log(self.volatile, sync=True)
        self.volatile = []
        effects: Effects = [("stable", before)]
        _checkpoint, _replayed, requeued = self.restore_and_replay(effects)
        stop = self.current
        insert(self.log[self.pid], stop)
        self.highest_inc = max(self.highest_inc,
                               self.storage.highest_incarnation_marker()) + 1
        self.storage.log_incarnation_start(self.highest_inc, ended=stop)
        self.current = Entry(self.highest_inc, stop.sii + 1)
        self.tdv[self.pid] = self.current
        effects.append(("rollback", stop, self.current,
                        max(before.sii - stop.sii, 0), requeued))
        return effects

    def restore_and_replay(self, effects: Effects
                           ) -> Tuple[Checkpoint, int, int]:
        """What Restart and Rollback share: the newest checkpoint no
        incarnation end invalidates, replay "till condition (I) is not
        satisfied", then pop the rest of the log: "these messages will be
        delivered again"."""
        checkpoints = self.storage.checkpoints
        idx = len(checkpoints) - 1
        while any(self.invalidates(j, e)
                  for j, e in checkpoints[idx].tdv.items()):
            idx -= 1
        checkpoint = self.storage.restore_checkpoint(idx)
        self.storage.discard_checkpoints_after(idx)
        self.app_state = checkpoint.app_state
        self.current = checkpoint.entry
        self.tdv = checkpoint.tdv
        self.received_ids = set(checkpoint.received_ids)
        self.highest_inc = max(self.highest_inc, checkpoint.entry.inc)
        replayed = 0
        for record in self.storage.logged_after(checkpoint.entry.sii):
            if self.check_orphan(record.message):
                break
            effects += self.deliver(record.message, record)
            replayed += 1
        requeued = 0
        for record in self.storage.pop_logged_after(self.current.sii):
            msg = record.message
            if self.check_orphan(msg):
                effects.append(("discard", msg.msg_id, "orphan-in-log"))
            else:
                self.received_ids.add(msg.msg_id)
                self.receive_buffer.append(msg)
                requeued += 1
        self.received_ids |= {msg.msg_id for msg in self.receive_buffer}
        self.nullify_stable(self.tdv, skip=self.pid)
        return checkpoint, replayed, requeued
