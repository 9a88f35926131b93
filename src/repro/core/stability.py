"""The per-process stability index behind Theorem 2's nullifications.

A held dependency vector — a buffered message's, or a pending output's —
waits for logging progress: each non-NULL entry ``(t, x)_j`` leaves the
vector the moment ``log[j]`` records ``(t, x')`` with ``x <= x'``
(Theorem 2), and the vector's owner is released once at most K entries are
left (K = 0 for an output).  The process's own vector obeys the same rule:
Receive_log drops every entry the table covers.  Re-testing every entry of
every such vector on each change pays ``vectors x width`` lookups to find
the one or two entries a notification actually covers.

The index turns that around.  One entry is registered per *distinct*
dependency ``(pid, packed)``, however many vectors carry it: a *group*
listing its members.  Held sends are copy-on-write snapshots of the one
vector they were sent from, so most of a new vector's entries join a
group that is already live — one dict lookup, no table test, no heap
push.  Groups sit under the log position ``(pid, inc)`` they wait on, in
a min-heap ordered by ``sii``.  When the log table has learnt something,
only the heap *top* of each watched position is tested; groups the
frontier has passed are popped, the entry is nullified in every member,
and each member's :class:`Waiter` is queued on its owner's ``woken``
list.  Owners re-judge woken waiters only.  Work per log change is
bounded by the watched positions plus the groups actually covered.

One index serves the send buffer, the output buffer (Section 4.2: the
output buffer "is also updated whenever the Send_buffer is updated") and
the process's own vector, which is a member that is never woken
(:meth:`StabilityIndex.nullify_vector`).  Its pops are queued and applied
only where the process runs Theorem 2 on its vector, so the vector loses
a covered entry at exactly the points the paper's Receive_log (and the
repo's acquisition-time and recovery-time passes) would drop it.  The
process registers the entries a merge took, and a vector replaced by
Rollback or Restart is registered anew.  The key is ``(pid, inc)``, so
the several incarnations of one process that a multi-incarnation vector
(fully asynchronous baseline) may carry are separate waits.

A waiter that leaves its buffer any other way — released with up to K
entries left, scrubbed as an orphan, lost in a crash — is :meth:`dropped
<StabilityIndex.drop>`: its remaining registrations go stale and are
skipped when their group pops.  Stale registrations are swept out
whenever they outnumber the live ones, so the index never holds more than
twice what the buffers and the vector need.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.columnar import PACK_MASK, PACK_SHIFT, pack
from repro.core.depvec import DependencyVector, MergedEntry
from repro.core.entry import Entry
from repro.core.tables import LoggingProgressTable

_by_seq = attrgetter("seq")


class Waiter:
    """One held vector: the buffered ``item`` it belongs to, and the list
    its owner reads wake-ups from (``None`` once the waiter is dropped)."""

    __slots__ = ("item", "tdv", "seq", "woken", "queued")

    def __init__(self, item: Any, tdv: Any, seq: int, woken: List["Waiter"]):
        self.item = item
        self.tdv = tdv
        #: Registration order — the owner's buffer order.
        self.seq = seq
        self.woken: Optional[List["Waiter"]] = woken
        #: Already on ``woken`` (a waiter is queued at most once per pass).
        #: A vector is always judged once on entry, however few entries it
        #: has, so a waiter starts out queued.
        self.queued = True
        woken.append(self)


_Key = Tuple[int, int]  # (pid, packed entry) of a group; (pid, inc) of a heap


class StabilityIndex:
    """Vector entries, one group per distinct entry, keyed by the log
    position they wait on."""

    __slots__ = ("_heaps", "_groups", "_seq", "_log", "_version", "_size",
                 "_live", "_vector", "_vector_live", "_pops")

    def __init__(self):
        #: ``(pid, inc) -> min-heap of packed entries``; never empty.
        self._heaps: Dict[_Key, List[int]] = {}
        #: ``(pid, packed) -> members``, one per heap entry; a group all
        #: of whose members left stays (empty) until it pops or is swept.
        self._groups: Dict[_Key, List[Waiter]] = {}
        self._seq = 0
        # The table state the heaps were last advanced to.  Restart
        # replaces the table object, whose version counter starts over.
        self._log: Optional[LoggingProgressTable] = None
        self._version = -1
        #: Registrations held, and how many of them belong to live members.
        self._size = 0
        self._live = 0
        #: The process's own vector as a member, its live registrations,
        #: and its ``(pid, packed)`` entries popped but not yet nullified.
        self._vector: Optional[Waiter] = None
        self._vector_live = 0
        self._pops: List[Tuple[int, int]] = []

    def __len__(self) -> int:
        """Registrations held, stale ones included."""
        return self._size

    def watched_positions(self) -> int:
        """Log positions with an entry waiting — what one :meth:`advance`
        over a changed table costs in lookups, before any pop."""
        return len(self._heaps)

    def awaited_owners(self) -> Set[int]:
        """The processes whose logging progress a live member is waiting
        on, leaving out entries whose members were all dropped."""
        return {key[0] for key, group in self._groups.items()
                if any(waiter.woken is not None for waiter in group)}

    def _register(self, waiter: Waiter, pid: int, packed: int,
                  covers: Callable[[int, int], bool]) -> bool:
        """Make ``waiter`` a member of the group of ``(pid, packed)``:
        join it if it is live (one dict lookup), else open it unless
        ``covers`` says the entry is stable — then return False."""
        key = (pid, packed)
        group = self._groups.get(key)
        if group is not None:
            group.append(waiter)
        elif covers(pid, packed):
            return False
        else:
            self._groups[key] = [waiter]
            position = (pid, packed >> PACK_SHIFT)
            heap = self._heaps.get(position)
            if heap is None:
                self._heaps[position] = [packed]
            else:
                heappush(heap, packed)
        self._size += 1
        self._live += 1
        return True

    def watch(self, item: Any, tdv: Any, log: LoggingProgressTable,
              woken: List[Waiter]) -> Waiter:
        """Register a newly held vector, right after :meth:`advance`.

        An entry with a live group joins it: having survived the advance,
        the group is not covered.  Any other entry ``log`` already covers
        is nullified at once.  The new waiter starts out queued on
        ``woken``.
        """
        self._seq += 1
        waiter = Waiter(item, tdv, self._seq, woken)
        if type(tdv) is DependencyVector:
            entries = list(tdv.iter_packed())
        else:
            entries = [(pid, pack(e.inc, e.sii)) for pid, e in tdv.iter_items()]
        covers = log.covers_packed
        for pid, packed in entries:
            if not self._register(waiter, pid, packed, covers):
                if type(tdv) is DependencyVector:
                    tdv.discard(pid, packed)
                else:
                    _nullify_entry(tdv, pid, packed)
        return waiter

    def advance(self, log: LoggingProgressTable) -> None:
        """Pop every group ``log`` now covers: nullify its entry in every
        held member and queue the waiters it touched; the process's own
        vector only has the pop queued (see :meth:`nullify_vector`).  Free
        when the table has learnt nothing since the previous call."""
        version = log.version
        if log is self._log and version == self._version:
            return
        self._log = log
        self._version = version
        covers = log.covers_packed
        groups = self._groups
        vector = self._vector
        emptied = []
        for position, heap in self._heaps.items():
            pid = position[0]
            if not covers(pid, heap[0]):
                continue
            while True:
                packed = heappop(heap)
                group = groups.pop((pid, packed))
                self._size -= len(group)
                for waiter in group:
                    woken = waiter.woken
                    if woken is None:
                        continue
                    self._live -= 1
                    if waiter is vector:
                        self._vector_live -= 1
                        self._pops.append((pid, packed))
                        continue
                    tdv = waiter.tdv
                    if type(tdv) is DependencyVector:
                        tdv.discard(pid, packed)
                    else:
                        _nullify_entry(tdv, pid, packed)
                    if not waiter.queued:
                        waiter.queued = True
                        woken.append(waiter)
                if not heap:
                    emptied.append(position)
                    break
                if not covers(pid, heap[0]):
                    break
        for position in emptied:
            del self._heaps[position]
        # Popping live entries shrinks the live count just as a drop does.
        if self._size > 2 * self._live:
            self._sweep()

    def collect(self, woken: List[Waiter],
                limit_of: Callable[[Any], int]) -> List[Waiter]:
        """Drain ``woken`` and judge it: the live waiters whose vector has
        at most ``limit_of(item)`` non-NULL entries left, in buffer order.
        They are dropped from the index — the caller releases them."""
        ready = []
        for waiter in woken:
            waiter.queued = False
            if (waiter.woken is not None
                    and waiter.tdv.non_null_count() <= limit_of(waiter.item)):
                ready.append(waiter)
        woken.clear()
        if len(ready) > 1:
            ready.sort(key=_by_seq)
        for waiter in ready:
            self.drop(waiter)
        return ready

    def drop(self, waiter: Waiter) -> None:
        """``waiter`` left its buffer: it must never be woken again."""
        if waiter.woken is None:
            return
        waiter.woken = None
        # Each non-NULL entry of a held vector is in exactly one group.
        self._live -= waiter.tdv.non_null_count()
        if self._size > 2 * self._live:
            self._sweep()

    # -- the process's own vector --------------------------------------------

    def nullify_vector(self, tdv: DependencyVector, own: int,
                       log: LoggingProgressTable,
                       merged: Optional[List[MergedEntry]] = None) -> None:
        """Theorem 2 on the process's own vector: drop every non-own entry
        ``log`` covers.

        ``merged`` lists the entries the last merge took; they join their
        groups and the entries they replaced leave theirs.  Then the
        index advances and the vector's queued pops are applied — skipping
        any entry the vector has superseded since.  A vector the index has
        not seen (the process's first, or one Rollback or Restart put in
        place) is registered whole instead, each entry tested once.
        """
        vector = self._vector
        if vector is None or vector.tdv is not tdv:
            self._track(tdv, own, log)
            return
        if merged:
            groups = self._groups
            covers = log.covers_packed
            for pid, packed, replaced in merged:
                if pid == own:
                    continue
                if replaced >= 0:
                    # Superseded: gone from its group unless already popped.
                    group = groups.get((pid, replaced))
                    if group is not None:
                        group.remove(vector)
                        self._size -= 1
                        self._live -= 1
                        self._vector_live -= 1
                if self._register(vector, pid, packed, covers):
                    self._vector_live += 1
                else:
                    self._pops.append((pid, packed))
        self.advance(log)
        pops = self._pops
        if pops:
            for pid, packed in pops:
                tdv.discard(pid, packed)
            pops.clear()

    def _track(self, tdv: DependencyVector, own: int,
               log: LoggingProgressTable) -> None:
        """Make ``tdv`` the process's vector: nullify what ``log`` covers
        and register the rest.  Held vectors are not advanced here: after
        a Rollback the orphan scrub must see them as the last
        Check_send_buffer left them."""
        self.forget_vector()
        # Never judged: its own ``woken`` list is never drained.
        vector = Waiter(None, tdv, 0, [])
        self._vector = vector
        covers = log.covers_packed
        stable = []
        for pid, packed in tdv.iter_packed():
            if pid == own:
                continue
            # Tested even with a live group: the table may have moved
            # since the last advance.
            if covers(pid, packed):
                stable.append(pid)
            else:
                self._register(vector, pid, packed, covers)
                self._vector_live += 1
        for pid in stable:
            tdv.nullify(pid)

    def forget_vector(self) -> None:
        """The process's vector is gone (a crash) or replaced: drop its
        registrations and its queued pops."""
        vector = self._vector
        if vector is None:
            return
        vector.woken = None
        self._vector = None
        self._live -= self._vector_live
        self._vector_live = 0
        self._pops.clear()
        if self._size > 2 * self._live:
            self._sweep()

    def _sweep(self) -> None:
        """Rebuild the groups and heaps without dropped members."""
        groups: Dict[_Key, List[Waiter]] = {}
        heaps: Dict[_Key, List[int]] = {}
        size = 0
        for key, group in self._groups.items():
            kept = [w for w in group if w.woken is not None]
            if kept:
                groups[key] = kept
                size += len(kept)
                pid, packed = key
                heaps.setdefault((pid, packed >> PACK_SHIFT), []).append(packed)
        for heap in heaps.values():
            heapify(heap)
        self._groups = groups
        self._heaps = heaps
        self._size = self._live = size


def _nullify_entry(tdv: Any, pid: int, packed: int) -> None:
    # Multi-incarnation vectors (fully-async baseline) need the per-entry
    # form: nullify only the covered incarnation.
    tdv.nullify_entry(pid, Entry(packed >> PACK_SHIFT, packed & PACK_MASK))
