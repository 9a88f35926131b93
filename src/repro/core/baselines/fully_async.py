"""The completely asynchronous recovery protocol of Section 2.

This baseline "completely decouples dependency propagation from failure
information propagation": messages are delivered as soon as they arrive and
released as soon as they are sent.  The price, as the paper notes, is that

- a process must track dependencies on *every incarnation of every process*
  (message chains from multiple incarnations may coexist), so vectors can
  grow beyond N entries; and
- "it allows potential orphan states to send messages, which may create
  more orphans and hence more rollbacks."

As in the Section 2 narrative, a rolled-back process "starts a new
incarnation as if it itself has failed" and broadcasts its own rollback
announcement; that and the immediate release come from
:class:`~repro.core.baselines.immediate.ImmediateReleaseProcess`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.core.baselines.immediate import ImmediateReleaseProcess
from repro.core.entry import Entry
from repro.net.message import AppMessage, FailureAnnouncement
from repro.types import ProcessId


class MultiIncarnationVector:
    """A dependency vector with one entry per (process, incarnation).

    Exposes the subset of the :class:`DependencyVector` interface the
    protocol machinery uses; ``items`` may yield several entries for the
    same process — one per incarnation depended on.
    """

    __slots__ = ("n", "_entries")

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError(f"vector needs at least one process, got n={n}")
        self.n = n
        self._entries: Dict[Tuple[ProcessId, int], int] = {}

    def get(self, pid: ProcessId):
        """Lexicographically largest entry for ``pid`` (or None)."""
        candidates = [
            Entry(inc, sii) for (p, inc), sii in self._entries.items() if p == pid
        ]
        return max(candidates) if candidates else None

    def entries_for(self, pid: ProcessId) -> List[Entry]:
        return sorted(
            Entry(inc, sii) for (p, inc), sii in self._entries.items() if p == pid
        )

    def set(self, pid: ProcessId, entry) -> None:
        if entry is None:
            self.nullify(pid)
            return
        key = (pid, entry.inc)
        existing = self._entries.get(key)
        if existing is None or entry.sii > existing:
            self._entries[key] = entry.sii

    def nullify(self, pid: ProcessId) -> None:
        """Drop every incarnation entry for ``pid``."""
        for key in [k for k in self._entries if k[0] == pid]:
            del self._entries[key]

    def nullify_entry(self, pid: ProcessId, entry) -> None:
        """Drop only the entry for (pid, entry.inc)."""
        self._entries.pop((pid, entry.inc), None)

    def merge(self, other) -> None:
        """Merge any vector exposing ``items()`` — a peer's multi-incarnation
        vector, or a plain single-entry vector (environment messages)."""
        for pid, entry in other.items():
            self.set(pid, entry)

    def copy(self) -> "MultiIncarnationVector":
        dup = MultiIncarnationVector(self.n)
        dup._entries = dict(self._entries)
        return dup

    def non_null_count(self) -> int:
        return len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> Iterator[Tuple[ProcessId, Entry]]:
        return iter(
            sorted((p, Entry(inc, sii)) for (p, inc), sii in self._entries.items())
        )

    def iter_items(self) -> Iterator[Tuple[ProcessId, Entry]]:
        """Unordered variant of :meth:`items`, for the orphan check and
        the stability index."""
        return ((p, Entry(inc, sii)) for (p, inc), sii in self._entries.items())

    def processes(self) -> Iterator[ProcessId]:
        return iter(sorted({p for p, _inc in self._entries}))

    def as_dict(self):
        return {key: sii for key, sii in self._entries.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiIncarnationVector):
            return NotImplemented
        return self.n == other.n and self._entries == other._entries

    def __hash__(self):  # pragma: no cover
        raise TypeError("MultiIncarnationVector is mutable and unhashable")

    def __repr__(self) -> str:
        inner = ", ".join(f"{e}_{p}" for p, e in self.items())
        return "{" + inner + "}"


class FullyAsyncProcess(ImmediateReleaseProcess):
    """Completely asynchronous recovery (Section 2's illustration protocol)."""

    # -- per-incarnation tracking ---------------------------------------------

    def _new_vector(self):
        return MultiIncarnationVector(self.n)

    def _nullify_stable_tdv_entries(self, merged=None) -> None:
        """No commit dependency tracking in this baseline."""

    # -- fully decoupled: no delivery gating ------------------------------------

    def _deliverable(self, msg: AppMessage) -> bool:
        return True

    def _is_orphan_message(self, msg: AppMessage) -> bool:
        """Check_orphan over every incarnation entry of ``m.tdv`` — a
        multi-incarnation vector, or the plain vector of an outside-world
        message."""
        iet = self.iet
        if iet.version == 0:
            return False
        return any(iet.invalidates(pid, e) for pid, e in msg.tdv.iter_items())

    # -- rollback: any invalidated incarnation entry orphans us ---------------

    def _state_orphaned_by(self, ann: FailureAnnouncement) -> bool:
        return any(
            self.iet.invalidates(ann.origin, entry)
            for entry in self.tdv.entries_for(ann.origin)
        )
