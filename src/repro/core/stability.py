"""The per-process stability index behind Check_send_buffer and Output_buffer.

A held dependency vector — a buffered message's, or a pending output's —
waits for logging progress: each non-NULL entry ``(t, x)_j`` leaves the
vector the moment ``log[j]`` records ``(t, x')`` with ``x <= x'``
(Theorem 2), and the vector's owner is released once at most K entries are
left (K = 0 for an output).  Re-testing every entry of every held vector on
each notification pays ``held x width`` lookups to find the one or two
entries a notification actually covers.

The index turns that around.  Every entry registers once, under the log
position ``(pid, inc)`` it waits on, in a min-heap ordered by ``sii``.
When the log table has learnt something, only the heap *top* of each
watched position is tested; entries the frontier has passed are popped and
nullified in their one vector, and that vector's :class:`Waiter` is queued
on its owner's ``woken`` list.  Owners re-judge woken waiters only.  Work
per log change is bounded by the watched positions plus the entries
actually covered — never by the number of held vectors times their width.

One index serves both buffers of a process (Section 4.2: the output buffer
"is also updated whenever the Send_buffer is updated").  The key is
``(pid, inc)``, so the several incarnations of one process that a
multi-incarnation vector (fully asynchronous baseline) may carry are
separate waits.

A waiter that leaves its buffer any other way — released with up to K
entries left, scrubbed as an orphan, lost in a crash — is :meth:`dropped
<StabilityIndex.drop>`: its remaining heap entries go stale and are
skipped when popped.  Stale entries are swept out whenever they outnumber
the live ones, so the index never holds more than twice what the buffers
need and is empty when they are.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.columnar import PACK_MASK, PACK_SHIFT, pack
from repro.core.depvec import DependencyVector
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


_HeapEntry = Tuple[int, int, Waiter]  # (packed entry, waiter.seq, waiter)


class StabilityIndex:
    """Held-vector entries keyed by the log position they wait on."""

    __slots__ = ("_heaps", "_seq", "_log", "_version", "_size", "_live")

    def __init__(self):
        #: ``(pid, inc) -> min-heap``; never holds an empty heap.
        self._heaps: Dict[Tuple[int, int], List[_HeapEntry]] = {}
        self._seq = 0
        # The table state the heaps were last advanced to.  Restart
        # replaces the table object, whose version counter starts over.
        self._log: Optional[LoggingProgressTable] = None
        self._version = -1
        #: Heap entries held, and how many of them belong to live waiters.
        self._size = 0
        self._live = 0

    def __len__(self) -> int:
        """Heap entries held, stale ones included."""
        return self._size

    def watched_positions(self) -> int:
        """Log positions with an entry waiting — what one :meth:`advance`
        over a changed table costs in lookups, before any pop."""
        return len(self._heaps)

    def awaited_owners(self) -> Set[int]:
        """The processes whose logging progress a live waiter is waiting
        on: the pids of the watched positions, leaving out positions
        whose waiters were all dropped."""
        return {key[0] for key, heap in self._heaps.items()
                if any(entry[2].woken is not None for entry in heap)}

    def watch(self, item: Any, tdv: Any, log: LoggingProgressTable,
              woken: List[Waiter]) -> Waiter:
        """Register a newly held vector.

        Entries ``log`` already covers are nullified at once; the rest go
        on the heaps.  The new waiter starts out queued on ``woken``.
        """
        self._seq += 1
        seq = self._seq
        waiter = Waiter(item, tdv, seq, woken)
        if type(tdv) is DependencyVector:
            entries = list(tdv.iter_packed())
        else:
            entries = [(pid, pack(e.inc, e.sii)) for pid, e in tdv.iter_items()]
        covers = log.covers_packed
        heaps = self._heaps
        for pid, packed in entries:
            if covers(pid, packed):
                _nullify(tdv, pid, packed)
                continue
            key = (pid, packed >> PACK_SHIFT)
            heap = heaps.get(key)
            if heap is None:
                heaps[key] = [(packed, seq, waiter)]
            else:
                heappush(heap, (packed, seq, waiter))
            self._size += 1
            self._live += 1
        return waiter

    def advance(self, log: LoggingProgressTable) -> None:
        """Pop and nullify every entry ``log`` now covers, queueing the
        waiters it touched.  Free when the table has learnt nothing since
        the previous call."""
        version = log.version
        if log is self._log and version == self._version:
            return
        self._log = log
        self._version = version
        covers = log.covers_packed
        emptied = []
        for key, heap in self._heaps.items():
            pid = key[0]
            if not covers(pid, heap[0][0]):
                continue
            while True:
                packed, _seq, waiter = heappop(heap)
                self._size -= 1
                woken = waiter.woken
                if woken is not None:
                    self._live -= 1
                    _nullify(waiter.tdv, pid, packed)
                    if not waiter.queued:
                        waiter.queued = True
                        woken.append(waiter)
                if not heap:
                    emptied.append(key)
                    break
                if not covers(pid, heap[0][0]):
                    break
        for key in emptied:
            del self._heaps[key]
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
        # Each non-NULL entry of a watched vector has exactly one heap entry.
        self._live -= waiter.tdv.non_null_count()
        if self._size > 2 * self._live:
            self._sweep()

    def _sweep(self) -> None:
        """Rebuild the heaps without the entries of dropped waiters."""
        heaps: Dict[Tuple[int, int], List[_HeapEntry]] = {}
        size = 0
        for key, heap in self._heaps.items():
            kept = [e for e in heap if e[2].woken is not None]
            if kept:
                heapify(kept)
                heaps[key] = kept
                size += len(kept)
        self._heaps = heaps
        self._size = self._live = size


def _nullify(tdv: Any, pid: int, packed: int) -> None:
    if type(tdv) is DependencyVector:
        tdv.nullify(pid)
    else:
        # Multi-incarnation vectors (fully-async baseline) need the
        # per-entry form: nullify only the covered incarnation.
        tdv.nullify_entry(pid, Entry(packed >> PACK_SHIFT, packed & PACK_MASK))
