"""Dependency entries: the ``(inc, sii)`` pairs of the protocol pseudo-code.

Figure 2 of the paper declares ``type entry : (inc int, ssi int)`` and
represents an omitted dependency as ``NULL``, defined to be lexicographically
smaller than any non-NULL entry.  We model entries as a frozen, totally
ordered dataclass and NULL as Python ``None``.  The lexicographic ``max``
of Deliver_message and ``min`` of Check_deliverability run on packed
entries (:mod:`repro.core.columnar`), whose integer order is this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.types import IncarnationId, IntervalIndex


@dataclass(frozen=True, order=True)
class Entry:
    """A dependency on (or identity of) state interval ``(inc, sii)``.

    Ordering is lexicographic on ``(inc, sii)``, exactly the
    "lexicographical maximum operation" of Strom & Yemini that the paper
    reuses:  a higher incarnation always dominates, and within an
    incarnation a higher interval index dominates.
    """

    inc: IncarnationId
    sii: IntervalIndex

    def next_interval(self) -> "Entry":
        """The entry for the next state interval of the same incarnation."""
        return Entry(self.inc, self.sii + 1)

    def __str__(self) -> str:
        return f"({self.inc},{self.sii})"


#: An optional entry: ``None`` encodes the pseudo-code's NULL.
OptEntry = Optional[Entry]

