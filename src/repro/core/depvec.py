"""The variable-size transitive dependency vector (``tdv`` in Figure 2).

The paper's presentation keeps a size-N array whose omittable entries are
set to NULL; an implementation "can omit NULL entries and convert any
non-NULL entry (t,x) for P_i to the (t,x)_i form".  We do exactly that:
:class:`DependencyVector` stores only the non-NULL entries — as two
parallel, pid-sorted columns: ``_pids`` (process ids) and ``_packed``
(entries packed ``(inc << PACK_SHIFT) | sii``, see
:mod:`repro.core.columnar`).  Packing preserves :class:`Entry`'s
lexicographic order, so the paper's lexical max is plain integer ``max``
and a merge is a two-pointer join over sorted int lists — no Entry
allocation on the hot path.  The *size* of the vector — the quantity the
integer K bounds (Theorem 4) — is therefore ``len(vector)``.

Piggybacking copies the sender's vector onto every outgoing message, which
made :meth:`copy` the hottest allocation site in the failure-free profile.
Copies are copy-on-write: the snapshot shares the columns until either
side mutates, at which point the mutator re-materialises its own lists.
Sharing matters because a buffered message's vector *is* mutated in place
(send-buffer nullification, Theorem 2), so an eager deep copy is the
semantic baseline that COW must — and does — preserve.

The pre-columnar dict-of-Entry implementation lives on as the reference
in ``tests/properties/test_columnar_equivalence.py``, which drives both
through random op sequences and asserts equal observable state.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.columnar import PACK_MASK, PACK_SHIFT
from repro.core.entry import Entry, OptEntry
from repro.types import ProcessId

#: An entry :meth:`DependencyVector.merge` took: ``(pid, packed,
#: replaced)``, ``replaced`` the packed entry it overwrote (-1: none).
MergedEntry = Tuple[ProcessId, int, int]


class DependencyVector:
    """Sparse dependency vector over ``n`` processes (columnar layout).

    Entries record, per process, the highest-index state interval (of the
    highest incarnation seen) that the owner transitively depends on and
    that is *not yet known stable* (commit dependency tracking, Theorem 2).
    """

    __slots__ = ("n", "_pids", "_packed", "_shared")

    def __init__(self, n: int, entries: Optional[Mapping[ProcessId, Entry]] = None):
        if n <= 0:
            raise ValueError(f"vector needs at least one process, got n={n}")
        self.n = n
        #: Sorted process ids with a non-NULL entry.
        self._pids: List[ProcessId] = []
        #: Parallel packed ``(inc << SHIFT) | sii`` values.
        self._packed: List[int] = []
        #: True while the columns may be aliased by a COW copy.
        self._shared = False
        if entries:
            for pid, entry in entries.items():
                self.set(pid, entry)

    def _materialize(self) -> None:
        """Un-alias the columns before an in-place mutation."""
        if self._shared:
            self._pids = self._pids[:]
            self._packed = self._packed[:]
            self._shared = False

    # -- basic accessors ---------------------------------------------------

    def get(self, pid: ProcessId) -> OptEntry:
        """The entry for ``pid``, or ``None`` for the pseudo-code's NULL."""
        self._check_pid(pid)
        pids = self._pids
        i = bisect_left(pids, pid)
        if i < len(pids) and pids[i] == pid:
            packed = self._packed[i]
            return Entry(packed >> PACK_SHIFT, packed & PACK_MASK)
        return None

    def get_packed(self, pid: ProcessId) -> int:
        """Packed entry for ``pid``, or ``-1`` for NULL (hot path — the
        caller supplies a pid it read from another vector, no range check)."""
        pids = self._pids
        i = bisect_left(pids, pid)
        if i < len(pids) and pids[i] == pid:
            return self._packed[i]
        return -1

    def set(self, pid: ProcessId, entry: OptEntry) -> None:
        """Overwrite the entry for ``pid`` (``None`` clears it)."""
        self._check_pid(pid)
        if entry is None:
            self.nullify(pid)
            return
        packed = (entry.inc << PACK_SHIFT) | entry.sii
        pids = self._pids
        i = bisect_left(pids, pid)
        if i < len(pids) and pids[i] == pid:
            if self._packed[i] != packed:
                self._materialize()
                self._packed[i] = packed
        else:
            self._materialize()
            self._pids.insert(i, pid)
            self._packed.insert(i, packed)

    def nullify(self, pid: ProcessId) -> None:
        """Set the entry for ``pid`` to NULL (Theorem 2 omission)."""
        self._check_pid(pid)
        pids = self._pids
        i = bisect_left(pids, pid)
        if i < len(pids) and pids[i] == pid:
            self._materialize()
            del self._pids[i]
            del self._packed[i]

    def discard(self, pid: ProcessId, packed: int) -> None:
        """Nullify the entry for ``pid`` if it still is ``packed`` (one the
        stability index popped); a superseded entry stays."""
        pids = self._pids
        i = bisect_left(pids, pid)
        if i < len(pids) and pids[i] == pid and self._packed[i] == packed:
            self._materialize()
            del self._pids[i]
            del self._packed[i]

    def nullify_entry(self, pid: ProcessId, entry: Entry) -> None:
        """Drop one specific entry.  For this single-entry-per-process
        vector it is the same as :meth:`nullify`; the multi-incarnation
        vector of the fully-asynchronous baseline removes only the entry
        for ``entry.inc``."""
        self.nullify(pid)

    def non_null_count(self) -> int:
        """Number of non-NULL entries — the vector 'size' that K bounds."""
        return len(self._pids)

    def __len__(self) -> int:
        return len(self._pids)

    def processes(self) -> Iterator[ProcessId]:
        """Process ids that currently have a non-NULL entry."""
        return iter(list(self._pids))

    def items(self) -> Iterator[Tuple[ProcessId, Entry]]:
        """(pid, entry) pairs for non-NULL entries, in pid order."""
        return iter([(pid, Entry(p >> PACK_SHIFT, p & PACK_MASK))
                     for pid, p in zip(self._pids, self._packed)])

    def iter_items(self) -> Iterable[Tuple[ProcessId, Entry]]:
        """(pid, entry) pairs — the hot-path variant of :meth:`items`.
        (With the sorted columnar layout these come out in pid order too.)"""
        return ((pid, Entry(p >> PACK_SHIFT, p & PACK_MASK))
                for pid, p in zip(self._pids, self._packed))

    def iter_packed(self) -> Iterable[Tuple[ProcessId, int]]:
        """(pid, packed-entry) pairs in pid order — the no-allocation view
        the protocol's scan loops consume.  Do not mutate while iterating."""
        return zip(self._pids, self._packed)

    # -- protocol operations ----------------------------------------------

    def merge(self, other: "DependencyVector") -> Optional[List[MergedEntry]]:
        """Pairwise lexicographic max, as in Deliver_message:
        ``forall j: tdv[j] = max(tdv[j], m.tdv[j])``.

        Returns the entries taken from ``other``, or ``None`` when nothing
        changed."""
        if other.n != self.n:
            raise ValueError(
                f"cannot merge vectors of different sizes ({self.n} vs {other.n})"
            )
        opids = other._pids
        if not opids or opids is self._pids:
            return None
        return self._merge_columns(opids, other._packed)

    def _merge_columns(self, opids: List[ProcessId], opacked: List[int],
                       ) -> Optional[List[MergedEntry]]:
        """Two-pointer sorted join; replaces the columns only on change."""
        spids, spacked = self._pids, self._packed
        res_pids: List[ProcessId] = []
        res_packed: List[int] = []
        taken: List[MergedEntry] = []
        i = j = 0
        ls, lo = len(spids), len(opids)
        while i < ls and j < lo:
            sp = spids[i]
            op = opids[j]
            if sp < op:
                res_pids.append(sp)
                res_packed.append(spacked[i])
                i += 1
            elif sp > op:
                ov = opacked[j]
                res_pids.append(op)
                res_packed.append(ov)
                taken.append((op, ov, -1))
                j += 1
            else:
                sv = spacked[i]
                ov = opacked[j]
                if ov > sv:
                    taken.append((sp, ov, sv))
                    sv = ov
                res_pids.append(sp)
                res_packed.append(sv)
                i += 1
                j += 1
        if i < ls:
            res_pids += spids[i:]
            res_packed += spacked[i:]
        if j < lo:
            res_pids += opids[j:]
            res_packed += opacked[j:]
            taken += [(pid, ov, -1) for pid, ov in zip(opids[j:], opacked[j:])]
        if not taken:
            return None
        self._pids = res_pids
        self._packed = res_packed
        self._shared = False
        return taken

    def copy(self) -> "DependencyVector":
        """An independent snapshot (used when piggybacking on a message).

        O(1): the snapshot aliases the columns; whichever side mutates
        first pays for the real copy then.
        """
        dup = DependencyVector.__new__(DependencyVector)
        dup.n = self.n
        dup._pids = self._pids
        dup._packed = self._packed
        dup._shared = True
        self._shared = True
        return dup

    def columns(self) -> Tuple[int, List[ProcessId], List[int]]:
        """``(n, pids, packed)`` — the live columns, for a serializer that
        reads them at once (the journal codec).  Not for keeping."""
        return self.n, self._pids, self._packed

    @classmethod
    def from_columns(cls, n: int, pids: List[ProcessId],
                     packed: List[int]) -> "DependencyVector":
        """Inverse of :meth:`columns`.  The lists are adopted as if
        COW-shared: a deserializer may hand one list to several vectors."""
        vec = cls.__new__(cls)
        vec.n = n
        vec._pids = pids
        vec._packed = packed
        vec._shared = True
        return vec

    # -- comparisons / rendering -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DependencyVector):
            return (self.n == other.n and self._pids == other._pids
                    and self._packed == other._packed)
        return NotImplemented

    def __hash__(self):  # pragma: no cover - vectors are mutable
        raise TypeError("DependencyVector is mutable and unhashable")

    def __repr__(self) -> str:
        inner = ", ".join(f"{e}_{pid}" for pid, e in self.items())
        return "{" + inner + "}"

    def as_dict(self) -> Dict[ProcessId, Entry]:
        """Plain-dict snapshot, convenient for assertions in tests."""
        return {pid: Entry(p >> PACK_SHIFT, p & PACK_MASK)
                for pid, p in zip(self._pids, self._packed)}

    # -- helpers -------------------------------------------------------------

    def _check_pid(self, pid: ProcessId) -> None:
        if not 0 <= pid < self.n:
            raise IndexError(f"process id {pid} out of range [0, {self.n})")

