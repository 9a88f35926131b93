"""The journal's record frames.

``encode_record`` pickles each record's flat form (the codec in
:mod:`repro.backplane.codec`, which ``tests/backplane/test_codec.py`` runs
as properties over JSON and pickle) into a CRC frame, and ``_parse_segment``
rebuilds the object: whatever comes back must be identical to what went
in, type for type, for all nine record types.  Each check is also shown to
bite: ``TestGuardsBite`` breaks the codec in one named way at a time and
requires the same check to fail.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines.fully_async import MultiIncarnationVector
from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.backplane import codec
from repro.net.message import AppMessage, FailureAnnouncement, OutputRecord
from repro.storage import recovery
from repro.storage.recovery import (
    T_ANN,
    T_CHECKPOINT,
    T_CKPT_DISCARD,
    T_COMMIT,
    T_GC,
    T_INCMARK,
    T_LOG_POP,
    T_LOGMSG,
    T_SNAPSHOT,
    _parse_segment,
    encode_record,
)
from repro.storage.stable import Checkpoint, LoggedMessage
from repro.types import MessageId, OutputId
from helpers import assert_identical

N = 16

# -- strategies -------------------------------------------------------------------

#: Application values: whatever pickle makes of them, nested.
values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    | st.tuples(inner, inner),
    max_leaves=8,
)
entries = st.builds(Entry, st.integers(0, 9), st.integers(0, 1 << 30))
message_ids = st.builds(MessageId, st.integers(-1, N - 1), st.integers(0, 9),
                        st.integers(0, 1 << 30), st.integers(0, 50))


@st.composite
def dependency_vectors(draw):
    """Empty, sparse and full vectors; some still COW-shared with a live
    original, as every piggybacked vector is when it is journaled."""
    size = draw(st.sampled_from([0, 1, 3, N]))
    pids = draw(st.permutations(range(N)))[:size]
    vector = DependencyVector(N, {pid: draw(entries) for pid in pids})
    return vector.copy() if draw(st.booleans()) else vector


@st.composite
def multi_vectors(draw):
    vector = MultiIncarnationVector(N)
    for pid, entry in draw(st.lists(st.tuples(st.integers(0, N - 1), entries),
                                    max_size=5)):
        vector.set(pid, entry)
    return vector


vectors = dependency_vectors() | multi_vectors()


@st.composite
def messages(draw):
    if draw(st.booleans()):
        # From the outside world: sender -1, no send interval.
        return AppMessage.from_environment(
            draw(st.integers(0, N - 1)), N, draw(values), draw(st.integers(0, 99)))
    return AppMessage(
        msg_id=draw(message_ids), src=draw(st.integers(0, N - 1)),
        dst=draw(st.integers(0, N - 1)), payload=draw(values),
        tdv=draw(vectors), send_interval=draw(entries),
        replayed=draw(st.booleans()),
        k_limit=draw(st.sampled_from([None, 0, N])),
    )


logged = st.builds(LoggedMessage, st.integers(0, 1 << 30), st.integers(0, 9),
                   messages())
announcements = st.builds(FailureAnnouncement, st.integers(0, N - 1), entries)
output_ids = st.builds(OutputId, st.integers(0, N - 1), st.integers(0, 9),
                       st.integers(0, 1 << 30), st.integers(0, 50))
outputs = st.tuples(
    st.builds(OutputRecord, output_ids, st.integers(0, N - 1), values,
              entries),
    vectors)
buffered = st.lists(messages(), max_size=3).map(tuple)
checkpoints = st.builds(
    Checkpoint, entries, values, vectors,
    st.frozensets(message_ids, max_size=6), st.floats(0, 1e6),
    buffered, buffered, st.lists(outputs, max_size=3).map(tuple))
incarnation_marks = st.tuples(st.integers(0, 1 << 20),
                              st.none() | entries)
snapshots = st.tuples(
    st.lists(checkpoints, max_size=3), st.lists(logged, max_size=4),
    st.lists(announcements, max_size=3), st.lists(entries, max_size=3),
    st.sets(output_ids, max_size=4), st.integers(0, 9))


# -- the round trip and what it must preserve -------------------------------------


def round_trip(rtype, obj):
    frame = encode_record(rtype, obj)
    records, valid_end, reason = _parse_segment(frame)
    assert (valid_end, reason) == (len(frame), "")
    [(got_type, got)] = records
    assert got_type == rtype
    return got


def check(rtype, obj):
    assert_identical(round_trip(rtype, obj), obj)


class TestRoundTrip:
    @given(record=logged)
    def test_logmsg(self, record):
        check(T_LOGMSG, record)

    @given(checkpoint=checkpoints)
    def test_checkpoint(self, checkpoint):
        check(T_CHECKPOINT, checkpoint)

    @given(ann=announcements)
    def test_announcement(self, ann):
        check(T_ANN, ann)

    @given(output_id=output_ids)
    def test_commit(self, output_id):
        check(T_COMMIT, output_id)

    @given(mark=incarnation_marks)
    def test_incarnation_mark(self, mark):
        """Format 3: the incarnation started, with the end of the one a
        Rollback closed (``None`` when nothing ended)."""
        check(T_INCMARK, mark)

    @given(rtype=st.sampled_from([T_CKPT_DISCARD, T_LOG_POP, T_GC]),
           value=st.integers(0, 1 << 40))
    def test_int_records(self, rtype, value):
        check(rtype, value)

    @settings(max_examples=50)
    @given(snapshot=snapshots)
    def test_snapshot(self, snapshot):
        check(T_SNAPSHOT, snapshot)

    @given(data=st.data())
    def test_decoded_vector_never_aliases(self, data):
        """The journaled copy is cut loose from the live vector it shared
        columns with — and from its siblings in one SNAPSHOT frame, whose
        shared columns pickle writes once and hands back as one list."""
        live = DependencyVector(N, {1: Entry(0, 4), 3: Entry(2, 9)})
        first, second = (
            LoggedMessage(position, 0, AppMessage(
                msg_id=MessageId(1, 0, position, 0), src=1, dst=0, payload=None,
                tdv=live.copy(), send_interval=Entry(0, position)))
            for position in (5, 6))
        before = live.as_dict()
        _, (got_first, got_second), _, _, _, _ = round_trip(
            T_SNAPSHOT, ([], [first, second], [], [], set(), 0))
        pid = data.draw(st.sampled_from([1, 3, 7]))
        got_first.message.tdv.set(pid, Entry(5, 77))
        got_first.message.tdv.nullify(1 if pid != 1 else 3)
        assert got_second.message.tdv.as_dict() == before
        assert first.message.tdv.as_dict() == before
        assert live.as_dict() == before


def bench_logmsg():
    """A message of the benchmark's file-log workload: n = 16, three
    dependency entries, ``OpenLoopBehavior``'s four-key payload."""
    return LoggedMessage(80, 1, AppMessage(
        msg_id=MessageId(3, 1, 57, 0), src=3, dst=5,
        payload={"token": 1234, "hops": 3, "emit_output": True, "t0": 123.456},
        tdv=DependencyVector(
            N, {1: Entry(0, 30), 3: Entry(1, 57), 7: Entry(0, 12)}),
        send_interval=Entry(1, 57)))


def test_logmsg_frame_stays_small():
    # The pickled object graph this format replaced was 519-543 bytes.
    assert len(encode_record(T_LOGMSG, bench_logmsg())) <= 160


# -- each guard shown to bite -----------------------------------------------------


def _break_unpack(monkeypatch, rtype, broken_unpack):
    pack, unpack = recovery._CODECS[rtype]
    monkeypatch.setitem(recovery._CODECS, rtype,
                        (pack, lambda flat: broken_unpack(unpack(flat))))


class TestGuardsBite:
    """One named codec defect at a time; the round-trip check must fail."""

    def test_dropped_k_limit(self, monkeypatch):
        record = bench_logmsg()
        record.message.k_limit = 0
        check(T_LOGMSG, record)

        def drop(got):
            got.message.k_limit = None
            return got

        _break_unpack(monkeypatch, T_LOGMSG, drop)
        with pytest.raises(AssertionError):
            check(T_LOGMSG, record)

    def test_swapped_inc_and_sii(self, monkeypatch):
        checkpoint = Checkpoint(Entry(2, 40), {}, DependencyVector(N),
                                frozenset(), 0.0)
        check(T_CHECKPOINT, checkpoint)

        def swap(got):
            got.entry = Entry(got.entry.sii, got.entry.inc)
            return got

        _break_unpack(monkeypatch, T_CHECKPOINT, swap)
        with pytest.raises(AssertionError):
            check(T_CHECKPOINT, checkpoint)

    def test_received_ids_rebuilt_as_a_list(self, monkeypatch):
        checkpoint = Checkpoint(Entry(0, 4), {}, DependencyVector(N),
                                frozenset({MessageId(1, 0, 3, 0)}), 0.0)

        def as_list(got):
            got.received_ids = list(got.received_ids)
            return got

        _break_unpack(monkeypatch, T_CHECKPOINT, as_list)
        with pytest.raises(AssertionError):
            check(T_CHECKPOINT, checkpoint)

    def test_held_sends_decoded_as_the_receive_buffer(self, monkeypatch):
        message = bench_logmsg().message
        checkpoint = Checkpoint(Entry(0, 4), {}, DependencyVector(N),
                                frozenset(), 0.0, sends=(message,))
        check(T_CHECKPOINT, checkpoint)

        def swap(got):
            got.receive_buffer, got.sends = got.sends, got.receive_buffer
            return got

        _break_unpack(monkeypatch, T_CHECKPOINT, swap)
        with pytest.raises(AssertionError):
            check(T_CHECKPOINT, checkpoint)

    def test_pending_output_loses_its_vector(self, monkeypatch):
        record = OutputRecord(OutputId(3, 1, 57, 0), 3, {"token": 8},
                              Entry(1, 57))
        vector = DependencyVector(N, {1: Entry(0, 30), 3: Entry(1, 57)})
        checkpoint = Checkpoint(Entry(1, 57), {}, DependencyVector(N),
                                frozenset(), 0.0, outputs=((record, vector),))
        check(T_CHECKPOINT, checkpoint)

        def forget(got):
            got.outputs = tuple((r, DependencyVector(N)) for r, _ in got.outputs)
            return got

        _break_unpack(monkeypatch, T_CHECKPOINT, forget)
        with pytest.raises(AssertionError):
            check(T_CHECKPOINT, checkpoint)

    def test_foreign_vector_flattened_as_a_dependency_vector(self, monkeypatch):
        vector = MultiIncarnationVector(N)
        vector.set(2, Entry(0, 5))
        vector.set(2, Entry(1, 9))      # two incarnations of one process
        record = bench_logmsg()
        record.message.tdv = vector
        check(T_LOGMSG, record)

        def duck_typed(tdv):
            flat = DependencyVector(tdv.n)
            for pid, entry in tdv.items():  # one entry per pid: the max
                if flat.get(pid) is None or flat.get(pid) < entry:
                    flat.set(pid, entry)
            return flat.columns()

        monkeypatch.setattr(codec, "encode_vector", duck_typed)
        with pytest.raises(AssertionError):
            check(T_LOGMSG, record)

