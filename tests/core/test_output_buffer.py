"""Unit tests for the output-commit buffer (0-optimistic messages)."""

from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.core.output import OutputBuffer
from repro.core.stability import StabilityIndex
from repro.core.tables import IncarnationEndTable, LoggingProgressTable
from repro.net.message import OutputRecord
from repro.types import OutputId


def make_record(pid=0, sii=2, seq=0):
    return OutputRecord(OutputId(pid, 0, sii, seq), pid, f"out-{seq}", Entry(0, sii))


class TestOutputBuffer:
    def test_add_snapshots_vector(self):
        buf = OutputBuffer(StabilityIndex())
        tdv = DependencyVector(4, {1: Entry(0, 5)})
        buf.add(make_record(), tdv)
        tdv.set(2, Entry(0, 9))
        assert buf.pending[0].tdv.get(2) is None

    def test_update_releases_when_all_null(self):
        buf = OutputBuffer(StabilityIndex())
        buf.add(make_record(), DependencyVector(4, {1: Entry(0, 5)}))
        log = LoggingProgressTable(4)
        assert buf.update(log) == []
        log.insert(1, Entry(0, 5))
        ready = buf.update(log)
        assert len(ready) == 1
        assert len(buf) == 0

    def test_update_nullifies_incrementally(self):
        buf = OutputBuffer(StabilityIndex())
        buf.add(make_record(),
                DependencyVector(4, {1: Entry(0, 5), 2: Entry(0, 3)}))
        log = LoggingProgressTable(4)
        log.insert(1, Entry(0, 5))
        assert buf.update(log) == []
        assert buf.pending[0].tdv.non_null_count() == 1
        log.insert(2, Entry(0, 3))
        assert len(buf.update(log)) == 1

    def test_empty_vector_releases_immediately(self):
        buf = OutputBuffer(StabilityIndex())
        buf.add(make_record(), DependencyVector(4))
        assert len(buf.update(LoggingProgressTable(4))) == 1

    def test_discard_orphans(self):
        buf = OutputBuffer(StabilityIndex())
        buf.add(make_record(seq=0), DependencyVector(4, {1: Entry(0, 5)}))
        buf.add(make_record(seq=1), DependencyVector(4, {1: Entry(0, 3)}))
        iet = IncarnationEndTable(4)
        iet.insert(1, Entry(0, 4))
        orphans = buf.discard_orphans(iet)
        assert len(orphans) == 1
        assert orphans[0].record.payload == "out-0"
        assert len(buf) == 1

    def test_discard_all(self):
        buf = OutputBuffer(StabilityIndex())
        buf.add(make_record(), DependencyVector(4))
        buf.discard_all()
        assert len(buf) == 0

    def test_release_order_preserved(self):
        buf = OutputBuffer(StabilityIndex())
        for seq in range(3):
            buf.add(make_record(seq=seq), DependencyVector(4))
        ready = buf.update(LoggingProgressTable(4))
        assert [p.record.payload for p in ready] == ["out-0", "out-1", "out-2"]

    def test_enqueue_time_kept(self):
        buf = OutputBuffer(StabilityIndex())
        buf.add(make_record(), DependencyVector(4), now=42.0)
        ready = buf.update(LoggingProgressTable(4))
        assert ready[0].enqueued_at == 42.0

    def test_contains_follows_add_commit_and_discards(self):
        log = LoggingProgressTable(4)
        iet = IncarnationEndTable(4)
        buf = OutputBuffer(StabilityIndex())
        held, orphan, ready = (make_record(seq=s) for s in range(3))
        buf.add(held, DependencyVector(4, {1: Entry(0, 5)}))
        buf.add(orphan, DependencyVector(4, {2: Entry(0, 9)}))
        buf.add(ready, DependencyVector(4))
        assert all(buf.contains(r.output_id) for r in (held, orphan, ready))
        assert not buf.contains(make_record(seq=7).output_id)
        buf.update(log)                                  # commits ``ready``
        assert not buf.contains(ready.output_id)
        iet.insert(2, Entry(0, 4))
        buf.discard_orphans(iet)                         # drops ``orphan``
        assert not buf.contains(orphan.output_id)
        assert buf.contains(held.output_id)
        buf.discard_all()
        assert not buf.contains(held.output_id)

    def test_discarded_outputs_never_commit(self):
        log = LoggingProgressTable(4)
        iet = IncarnationEndTable(4)
        buf = OutputBuffer(StabilityIndex())
        buf.add(make_record(seq=0), DependencyVector(4, {1: Entry(0, 5)}))
        assert buf.update(log) == []                     # now watched
        buf.add(make_record(seq=1), DependencyVector(4, {1: Entry(0, 6)}))
        iet.insert(1, Entry(0, 4))                       # both are orphans,
        assert len(buf.discard_orphans(iet)) == 2        # watched or not
        log.insert(1, Entry(0, 9))
        assert buf.update(log) == []
        assert len(buf) == 0 and len(buf.index) == 0
