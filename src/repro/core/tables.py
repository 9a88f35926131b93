"""The two per-process bookkeeping tables of Figure 2.

``log``  — logging progress table: for each process and incarnation, the
           highest state-interval index known to be *stable* (reconstructible
           from stable storage).  Populated by logging-progress
           notifications, by failure announcements (Corollary 1) and by a
           process's own checkpoints (Corollary 2).

``iet``  — incarnation end table: for each process and incarnation, the
           index at which that incarnation *ended*; any dependency on a
           higher index of that (or an earlier) incarnation is an orphan.

Both tables are declared ``array[1..N] of set of entry`` and share the
paper's ``Insert(se, (t,x'))`` routine, which keeps a single entry per
incarnation holding the maximum index.

Storage layout (columnar, incarnation-major)
--------------------------------------------

A table is one flat integer column per incarnation, laid end to end: slot
``inc * n + pid`` holds the maximum index recorded for that ``(pid, inc)``
pair or ``-1`` when absent.  ``stride`` is the highest incarnation seen
plus one — it starts at 0, with an empty column, and grows by appending
one n-wide block of ``-1`` per new incarnation — so a table, its gossiped
:class:`TableSnapshot` and every merge are exactly as wide as the
information they hold (the paper's "an implementation can omit NULL
entries"): an ``iet`` nothing ended in holds no slot at all, and a
failure-free ``log`` never more than n.  Because incarnation blocks are
contiguous, a snapshot of a different stride merges as a *prefix*: a
wider one grows the table first, a narrower one is merged into
``mine[:len(theirs)]``.  Either way a whole-table gossip merge is a
single flat elementwise-max pass — ``np.maximum`` when numpy is available
and the table is large, one list loop otherwise.  Change detection (and
hence :attr:`version` maintenance) is an explicit elementwise comparison:
values only ever grow under max-merge, so ``theirs > mine`` marks exactly
the changed slots.  (An
earlier column-sum trick wrapped silently at 2**63 and could miss changes
in a batched merge.)

Scalar reads go through ``_read`` — the list itself, or a ``memoryview``
of the ndarray — so both dense backends hand out plain ``int`` / ``bool``
(never ``numpy.int64`` / ``numpy.bool_``) at half the per-element cost of
ndarray indexing.

Wire form
---------

A notification carries one snapshot form, the :class:`TableSnapshot`
column, in a simulation and between ``serve`` workers alike: the codec
(:mod:`repro.backplane.codec`) ships ``stride`` and the flat column and
rebuilds the snapshot on the list or ndarray backend the receiving table
uses, so a decoded snapshot merges exactly like one made in-process.

Delta gossip travels as :class:`SparseSnapshot` (explicit ``(pid, inc,
sii)`` triples): with :meth:`EntrySetTable.enable_changelog` a
notification can carry only the entries changed since the peer's last
acknowledged changelog position (:meth:`EntrySetTable.delta_since`).
Deltas stay inside a simulation; the codec refuses them.

The dict-of-dicts model these tables replaced lives on as the reference
in ``tests/properties/test_columnar_equivalence.py``, which drives both
through random op sequences and asserts equal observable state.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.core import columnar
from repro.core.columnar import PACK_MASK, PACK_SHIFT
from repro.core.entry import Entry
from repro.types import IncarnationId, IntervalIndex, ProcessId



def _plain(cols):
    """``cols`` as a sequence whose elements read as plain ``int``: a list
    is one already, an int64 ndarray is viewed (not copied) through a
    ``memoryview``."""
    return cols if isinstance(cols, list) else memoryview(cols)


class TableSnapshot:
    """An immutable columnar copy of a table, piggybacked by gossip.

    ``cols`` is the raw column in the table's own layout — ``stride``
    incarnation blocks of ``n`` slots, slot ``inc * n + pid``, ``-1`` for
    absent — as a flat int64 ndarray or a list of ``n * stride`` ints, so
    the receiver's :meth:`EntrySetTable.merge_snapshot` is one
    elementwise-max pass over a prefix of its own column instead of a
    per-entry dict walk.  :meth:`rows` reads it as one ``inc -> max
    index`` dict per process; :meth:`restrict` keeps a single row
    (own-progress-only gossip).  Two snapshots are equal when they hold
    the same entries, whatever their strides or backends.
    """

    __slots__ = ("n", "stride", "cols")

    def __init__(self, n: int, stride: int, cols) -> None:
        self.n = n
        self.stride = stride
        self.cols = cols

    def rows(self) -> List[Dict[IncarnationId, IntervalIndex]]:
        """``incarnation -> max index`` dicts, one per process."""
        out: List[Dict[IncarnationId, IntervalIndex]] = [{} for _ in range(self.n)]
        for pid, inc, sii in _snapshot_entries(self):
            out[pid][inc] = sii
        return out

    def restrict(self, pid: ProcessId) -> "TableSnapshot":
        """A snapshot carrying only ``pid``'s row (others empty)."""
        n = self.n
        if isinstance(self.cols, list):
            cols = [-1] * len(self.cols)
        else:
            np = columnar.NUMPY
            cols = np.full(len(self.cols), -1, dtype=np.int64)
        cols[pid::n] = self.cols[pid::n]
        return TableSnapshot(n, self.stride, cols)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TableSnapshot):
            return self.rows() == other.rows()
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        populated = sum(1 for v in self.cols if v >= 0)
        return f"TableSnapshot(n={self.n}, stride={self.stride}, entries={populated})"


class SparseSnapshot:
    """An immutable sparse table snapshot: explicit ``(pid, inc, sii)`` triples.

    Produced by delta gossip (:meth:`EntrySetTable.delta_since`), which
    carries only the entries changed since the peer's last acknowledged
    changelog position instead of the whole table.

    Merging is order-insensitive (entries are global facts combined by
    max), so a receiver treats full and delta snapshots identically.
    Shares ``rows``/``restrict``/equality with :class:`TableSnapshot`.
    """

    __slots__ = ("n", "entries", "full")

    def __init__(self, n: int, entries, full: bool = True) -> None:
        self.n = n
        self.entries: Tuple[Tuple[int, int, int], ...] = tuple(entries)
        #: False when this snapshot carries only a changelog suffix.
        self.full = full

    def rows(self) -> List[Dict[IncarnationId, IntervalIndex]]:
        out: List[Dict[IncarnationId, IntervalIndex]] = [{} for _ in range(self.n)]
        for pid, inc, sii in self.entries:
            out[pid][inc] = sii
        return out

    def restrict(self, pid: ProcessId) -> "SparseSnapshot":
        return SparseSnapshot(
            self.n, [e for e in self.entries if e[0] == pid], full=self.full)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (SparseSnapshot, TableSnapshot)):
            return self.rows() == other.rows()
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "full" if self.full else "delta"
        return f"SparseSnapshot(n={self.n}, {kind}, entries={len(self.entries)})"


def _snapshot_entries(snap: TableSnapshot):
    """Populated ``(pid, inc, sii)`` triples of a dense snapshot."""
    n = snap.n
    for pos, value in enumerate(_plain(snap.cols)):
        if value >= 0:
            yield pos % n, pos // n, value


class EntrySetTable:
    """``array[1..N] of set of entry`` with the paper's Insert semantics.

    :attr:`version` increases exactly when an :meth:`insert` (or snapshot
    merge) actually extends the table, so scan-heavy callers — send-buffer
    release checks, Theorem-2 nullification — can skip whole rescans when
    the table has not learned anything new since their last pass.  Since
    entries are never removed, ``version == 0`` iff the table is empty.
    """

    __slots__ = ("n", "version", "_stride", "_cols", "_read",
                 "_use_np", "_track", "_changes", "changelog_epoch")

    #: Changelog compaction threshold: above this many recorded changes the
    #: log is cleared and the epoch bumped (peers resync with one full
    #: snapshot, then resume deltas).
    CHANGELOG_LIMIT = 4096

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError(f"table needs at least one process, got n={n}")
        self.n = n
        self.version = 0
        #: Delta-gossip changelog (see :meth:`enable_changelog`).
        self._track = False
        self._changes: List[Tuple[int, int]] = []
        self.changelog_epoch = 0
        self._stride = 0
        self._use_np = columnar.use_numpy_for(n)
        self._set_cols(self._new_cols(0))

    # -- changelog (delta gossip) --------------------------------------------

    def enable_changelog(self) -> None:
        """Start recording changed ``(pid, inc)`` positions so
        :meth:`delta_since` can encode notifications incrementally."""
        self._track = True

    @property
    def changelog_position(self) -> Tuple[int, int]:
        """Opaque cursor ``(epoch, offset)`` for :meth:`delta_since`."""
        return (self.changelog_epoch, len(self._changes))

    def _note_change(self, pid: int, inc: int) -> None:
        self._changes.append((pid, inc))
        if len(self._changes) > self.CHANGELOG_LIMIT:
            self._changes.clear()
            self.changelog_epoch += 1

    def _note_changes(self, pairs) -> None:
        self._changes.extend(pairs)
        if len(self._changes) > self.CHANGELOG_LIMIT:
            self._changes.clear()
            self.changelog_epoch += 1

    def delta_since(self, position: Tuple[int, int]) -> Optional[SparseSnapshot]:
        """Entries changed since ``position``, or ``None`` when the cursor
        is stale (different epoch / tracking off) and a full snapshot is
        needed.  Values are read from the *current* table, so a position
        changed twice is carried once, at its latest value."""
        epoch, offset = position
        if not self._track or epoch != self.changelog_epoch:
            return None
        if offset > len(self._changes):
            return None
        changed = sorted(set(self._changes[offset:]))
        entries = []
        for pid, inc in changed:
            sii = self.lookup(pid, inc)
            if sii is not None:
                entries.append((pid, inc, sii))
        return SparseSnapshot(self.n, entries, full=False)

    # -- storage helpers -----------------------------------------------------

    def _new_cols(self, size: int):
        if self._use_np:
            np = columnar.NUMPY
            return np.full(size, -1, dtype=np.int64)
        return [-1] * size

    def _set_cols(self, cols) -> None:
        """Install ``cols`` and the scalar-read view over it: element reads
        of ``_read`` are plain ``int`` on both backends."""
        self._cols = cols
        self._read = _plain(cols)

    def _grow(self, stride: int) -> None:
        """Append n-wide blocks of ``-1`` up to ``stride`` incarnations."""
        pad = self._new_cols(self.n * (stride - self._stride))
        self._set_cols(columnar.NUMPY.concatenate((self._cols, pad))
                       if self._use_np else self._cols + pad)
        self._stride = stride

    def _check_pid(self, pid: ProcessId) -> None:
        if not 0 <= pid < self.n:
            raise IndexError(f"process id {pid} out of range [0, {self.n})")

    # -- the paper's operations ----------------------------------------------

    def insert(self, pid: ProcessId, entry: Entry) -> None:
        """``Insert(se, (t, x'))``: keep the per-incarnation maximum index."""
        self._check_pid(pid)
        inc = entry.inc
        if inc >= self._stride:
            self._grow(inc + 1)
        pos = inc * self.n + pid
        if entry.sii > self._read[pos]:
            self._cols[pos] = entry.sii
            self.version += 1
            if self._track:
                self._note_change(pid, inc)

    def entries(self, pid: ProcessId) -> Iterator[Entry]:
        """All entries recorded for ``pid``, in incarnation order."""
        self._check_pid(pid)
        return iter([Entry(inc, value)
                     for inc, value in enumerate(self._read[pid::self.n])
                     if value >= 0])

    def lookup(self, pid: ProcessId, inc: IncarnationId):
        """The recorded index for ``(pid, inc)`` or ``None``."""
        self._check_pid(pid)
        if not 0 <= inc < self._stride:
            return None
        value = self._read[inc * self.n + pid]
        return value if value >= 0 else None

    def row_size(self, pid: ProcessId) -> int:
        self._check_pid(pid)
        return sum(1 for value in self._read[pid::self.n] if value >= 0)

    def snapshot_columns(self) -> TableSnapshot:
        """Columnar copy of the table — what gossip piggybacks."""
        if self._use_np:
            cols = self._cols.copy()
        else:
            cols = self._cols[:]
        return TableSnapshot(self.n, self._stride, cols)

    def merge_snapshot(self, snap: Union[TableSnapshot, SparseSnapshot]) -> None:
        """Insert every entry of a snapshot (Receive_log's outer loop).

        A :class:`TableSnapshot` merges in one elementwise-max pass, a
        :class:`SparseSnapshot` (a delta) entry by entry.  Gossip makes
        this the most frequent table operation, and most merges bring no
        news at all.
        """
        if snap.n != self.n:
            raise ValueError(
                f"snapshot covers {snap.n} processes, table covers {self.n}"
            )
        if isinstance(snap, TableSnapshot):
            self._merge_columns(snap)
        else:
            self._merge_entries(snap.entries)

    def merge_snapshots(self, snaps) -> None:
        """Merge a batch of snapshots (one gossip tick's worth) in one pass.

        Max-merge is commutative and associative, so the final table state
        is independent of merge order.  On the numpy backend, dense
        snapshots of equal stride are combined first with one stacked
        ``np.maximum.reduce`` and merged as a single snapshot — one
        elementwise pass plus one change-detection compare for the whole
        batch instead of N of each.
        """
        snaps = list(snaps)
        if len(snaps) <= 1:
            for snap in snaps:
                self.merge_snapshot(snap)
            return
        if self._use_np:
            np = columnar.NUMPY
            groups: Dict[int, List] = {}
            rest = []
            for snap in snaps:
                if (isinstance(snap, TableSnapshot)
                        and isinstance(snap.cols, np.ndarray)):
                    groups.setdefault(snap.stride, []).append(snap.cols)
                else:
                    rest.append(snap)
            for stride in sorted(groups):
                group = groups[stride]
                cols = group[0] if len(group) == 1 else np.maximum.reduce(group)
                self.merge_snapshot(TableSnapshot(self.n, stride, cols))
            for snap in rest:
                self.merge_snapshot(snap)
            return
        for snap in snaps:
            self.merge_snapshot(snap)

    def _merge_entries(self, entries) -> None:
        """Insert the ``(pid, inc, sii)`` triples of a sparse snapshot."""
        changed = False
        track = self._track
        for pid, inc, sii in entries:
            if inc >= self._stride:
                self._grow(inc + 1)
            pos = inc * self.n + pid
            if sii > self._read[pos]:
                self._cols[pos] = sii
                changed = True
                if track:
                    self._note_change(pid, inc)
        if changed:
            self.version += 1

    def _merge_columns(self, snap: TableSnapshot) -> None:
        if snap.stride > self._stride:
            self._grow(snap.stride)
        n = self.n
        theirs = snap.cols
        np = columnar.NUMPY
        if self._use_np and isinstance(theirs, np.ndarray):
            # Incarnation blocks are contiguous, so a narrower snapshot
            # lines up with a prefix of this column.
            mine = self._cols[:len(theirs)]
            # Explicit elementwise comparison for change detection.  The
            # previous column-sum check wrapped silently at 2**63 (entries
            # are packed ints with the incarnation in the high bits, so a
            # batched merge can overflow the int64 sum and miss offsetting
            # changes); a boolean compare cannot, and it also yields the
            # changed positions the delta changelog needs.
            grew = theirs > mine
            if np.count_nonzero(grew):
                np.maximum(mine, theirs, out=mine)
                self.version += 1
                if self._track:
                    positions = np.nonzero(grew)[0]
                    self._note_changes(zip((positions % n).tolist(),
                                           (positions // n).tolist()))
            return
        changed = False
        track = self._track
        mine, read = self._cols, self._read
        for i, value in enumerate(_plain(theirs)):
            if value > read[i]:
                mine[i] = value
                changed = True
                if track:
                    self._note_change(i % n, i // n)
        if changed:
            self.version += 1

    def __repr__(self) -> str:
        rows = []
        for pid in range(self.n):
            entries = list(self.entries(pid))
            if entries:
                inner = ", ".join(str(e) for e in entries)
                rows.append(f"P{pid}:{{{inner}}}")
        return f"{type(self).__name__}[{'; '.join(rows)}]"


class LoggingProgressTable(EntrySetTable):
    """The ``log`` table: per (process, incarnation) highest *stable* index."""

    __slots__ = ()

    def covers(self, pid: ProcessId, entry: Entry) -> bool:
        """True iff interval ``entry`` of ``pid`` is known stable.

        This is the pseudo-code's recurring test
        ``(t, x') in log[j]  and  x <= x'``.
        """
        self._check_pid(pid)
        inc = entry.inc
        if not 0 <= inc < self._stride:
            return False
        return self._read[inc * self.n + pid] >= entry.sii

    def covers_packed(self, pid: ProcessId, packed: int) -> bool:
        """:meth:`covers` on a packed ``(inc << SHIFT) | sii`` entry.

        Hot path — ``pid`` comes from a dependency vector and is already
        validated, so no range check here.
        """
        inc = packed >> PACK_SHIFT
        if inc >= self._stride:
            return False
        return self._read[inc * self.n + pid] >= (packed & PACK_MASK)


class IncarnationEndTable(EntrySetTable):
    """The ``iet`` table: per (process, incarnation) ending index.

    An entry ``(t, x')`` announces that all state intervals with index
    greater than ``x'`` belonging to incarnation ``t`` — or to any earlier
    incarnation — of that process have been rolled back.
    """

    __slots__ = ()

    def invalidates(self, pid: ProcessId, entry: Entry) -> bool:
        """True iff a dependency on ``entry`` of ``pid`` is an orphan.

        Check_orphan's test: ``exists t: (t, x') in iet[j]  and
        t >= dep.inc  and  x' < dep.sii``.
        """
        self._check_pid(pid)
        return self._ended_below(pid, max(entry.inc, 0), entry.sii)

    def invalidates_packed(self, pid: ProcessId, packed: int) -> bool:
        """:meth:`invalidates` on a packed entry (no pid range check)."""
        return self._ended_below(pid, packed >> PACK_SHIFT, packed & PACK_MASK)

    def _ended_below(self, pid: ProcessId, inc: int, sii: int) -> bool:
        """Some incarnation ``>= inc`` of ``pid`` ended below ``sii``."""
        if self.version == 0:
            return False
        n, read = self.n, self._read
        for pos in range(inc * n + pid, self._stride * n, n):
            if 0 <= read[pos] < sii:
                return True
        return False

    def highest_ended_incarnation(self, pid: ProcessId) -> int:
        """Highest incarnation of ``pid`` known to have ended (-1 if none)."""
        self._check_pid(pid)
        n, read = self.n, self._read
        for t in range(self._stride - 1, -1, -1):
            if read[t * n + pid] >= 0:
                return t
        return -1
