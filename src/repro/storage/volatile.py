"""The volatile message buffer of optimistic logging.

Delivered messages are first kept here and written to stable storage
asynchronously, several at a time.  Its contents vanish when the process
crashes — that loss is what creates non-stable state intervals, orphan
messages, and ultimately the whole recovery problem the paper addresses.
"""

from __future__ import annotations

from typing import List

from repro.storage.stable import LoggedMessage


class VolatileBuffer:
    """Delivered-but-not-yet-logged messages, in processing order."""

    def __init__(self):
        self._records: List[LoggedMessage] = []

    def append(self, record: LoggedMessage) -> None:
        if self._records and record.position <= self._records[-1].position:
            raise ValueError(
                f"volatile buffer positions must be increasing: "
                f"{record.position} after {self._records[-1].position}"
            )
        self._records.append(record)

    def drain(self) -> List[LoggedMessage]:
        """Remove and return everything (a flush or checkpoint)."""
        records, self._records = self._records, []
        return records

    def clear(self) -> None:
        """Crash: volatile contents are lost."""
        self._records.clear()

    @property
    def records(self) -> List[LoggedMessage]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __bool__(self) -> bool:
        return bool(self._records)
