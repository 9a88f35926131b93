"""Unit tests for the volatile message buffer."""

import pytest

from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.net.message import AppMessage
from repro.storage.stable import LoggedMessage
from repro.storage.volatile import VolatileBuffer
from repro.types import MessageId


def record(position, inc=0):
    msg = AppMessage(
        msg_id=MessageId(1, inc, position, 0),
        src=1, dst=0, payload={},
        tdv=DependencyVector(2),
        send_interval=Entry(inc, position),
    )
    return LoggedMessage(position, inc, msg)


class TestVolatileBuffer:
    def test_append_and_len(self):
        buf = VolatileBuffer()
        buf.append(record(2))
        buf.append(record(3))
        assert len(buf) == 2
        assert bool(buf)

    def test_positions_must_increase(self):
        buf = VolatileBuffer()
        buf.append(record(3))
        with pytest.raises(ValueError):
            buf.append(record(3))
        with pytest.raises(ValueError):
            buf.append(record(2))

    def test_drain_empties(self):
        buf = VolatileBuffer()
        buf.append(record(2))
        drained = buf.drain()
        assert [r.position for r in drained] == [2]
        assert len(buf) == 0
        assert not buf

    def test_clear_models_crash(self):
        buf = VolatileBuffer()
        buf.append(record(2))
        buf.clear()
        assert buf.drain() == []

    def test_records_returns_copy(self):
        buf = VolatileBuffer()
        buf.append(record(2))
        records = buf.records
        records.clear()
        assert len(buf) == 1
