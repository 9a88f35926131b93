"""The one codec as properties.

Every type's flat form round-trips through JSON (the wire) and pickle (the
journal) to an identical value, and a wire value with any one field
dropped, added or retyped — a dependency vector's columns included —
raises :class:`CodecError` and nothing else.
"""

import json
import pickle
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, strategies as st

from repro.backplane import codec
from repro.backplane.codec import CodecError
from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.net.message import (
    Ack,
    AppMessage,
    FailureAnnouncement,
    LoggingRequest,
    OutputRecord,
)
from repro.storage.stable import Checkpoint, LoggedMessage
from repro.types import MessageId, OutputId
from helpers import assert_identical, log_notification

N = 8

# -- strategies: what the protocol ships and journals, as JSON can carry it --

#: Application values: plain JSON (the PWD model's payloads and states),
#: nested at most two deep.  ``st.recursive`` redraws every tree that
#: exceeds its ``max_leaves``, and one such draw once took 2.1 s on a
#: loaded machine (hypothesis' ``too_slow``); a fixed depth never redraws.
leaves = (st.none() | st.booleans() | st.integers(-(1 << 40), 1 << 40)
          | st.text(max_size=6)
          | st.floats(allow_nan=False, allow_infinity=False))


def containers(inner):
    return (st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=4), inner, max_size=3))


values = leaves | containers(leaves | containers(leaves))
pids = st.integers(0, N - 1)
indices = st.integers(0, 1 << 30)
entries = st.builds(Entry, st.integers(0, 9), indices)
message_ids = st.builds(MessageId, st.integers(-1, N - 1), st.integers(0, 9),
                        indices, st.integers(0, 50))
output_ids = st.builds(OutputId, pids, st.integers(0, 9), indices,
                       st.integers(0, 50))
vectors = st.dictionaries(pids, entries).map(partial(DependencyVector, N))
announcements = st.builds(FailureAnnouncement, pids, entries)


@st.composite
def messages(draw):
    if draw(st.booleans()):
        # From the outside world: sender -1, no send interval.
        return AppMessage.from_environment(draw(pids), N, draw(values),
                                           draw(st.integers(0, 99)))
    return AppMessage(
        msg_id=draw(message_ids), src=draw(pids), dst=draw(pids),
        payload=draw(values), tdv=draw(vectors), send_interval=draw(entries),
        replayed=draw(st.booleans()), k_limit=draw(st.sampled_from([None, 0, N])))


logged = st.builds(LoggedMessage, indices, st.integers(0, 9), messages())
outputs = st.tuples(st.builds(OutputRecord, output_ids, pids, values, entries),
                    vectors)
buffered = st.lists(messages(), max_size=2).map(tuple)
checkpoints = st.builds(
    Checkpoint, entries, values, vectors, st.frozensets(message_ids, max_size=4),
    st.floats(0, 1e6), buffered, buffered, st.lists(outputs, max_size=2).map(tuple))
incarnation_marks = st.tuples(st.integers(0, 1 << 20), st.none() | entries)
compactions = st.tuples(
    st.lists(checkpoints, max_size=2), st.lists(logged, max_size=3),
    st.lists(announcements, max_size=2), st.lists(entries, max_size=2),
    st.sets(output_ids, max_size=3), st.integers(0, 9))
log_notifications = st.builds(
    log_notification, pids,
    st.lists(st.dictionaries(st.integers(0, 3), st.integers(0, 99), max_size=3),
             min_size=N, max_size=N))
controls = (
    announcements | log_notifications
    | st.builds(LoggingRequest, pids, st.booleans())
    | st.builds(Ack, message_ids | announcements, pids, pids))

#: type -> (encode, decode, strategy).  A journal decode keeps a message's
#: ``wire_id``; ``test_a_wire_decode_draws_a_fresh_wire_id`` covers the other.
CASES = {
    "vector": (codec.encode_vector, codec.decode_vector, vectors),
    "app message": (codec.encode_app, partial(codec.decode_app, None),
                    messages()),
    "logged message": (codec.encode_logged, codec.decode_logged, logged),
    "output id": (codec.encode_output_id, codec.decode_output_id, output_ids),
    "output": (codec.encode_output, codec.decode_output, outputs),
    "checkpoint": (codec.encode_checkpoint, codec.decode_checkpoint,
                   checkpoints),
    "announcement": (codec.encode_announcement, codec.decode_announcement,
                     announcements),
    "incarnation mark": (codec.encode_incarnation_mark,
                         codec.decode_incarnation_mark, incarnation_marks),
    "compaction": (codec.encode_compaction, codec.decode_compaction,
                   compactions),
    "control": (codec.encode_control, codec.decode_control, controls),
}


@given(data=st.data())
def test_every_type_round_trips_through_json_and_pickle(data):
    name = data.draw(st.sampled_from(sorted(CASES)), label="type")
    encode, decode, strategy = CASES[name]
    sent = data.draw(strategy, label=name)
    flat = encode(sent)
    for carried in (json.loads(json.dumps(flat)),
                    pickle.loads(pickle.dumps(flat, protocol=4))):
        assert_identical(decode(carried), sent)


@given(message=messages())
def test_a_wire_decode_draws_a_fresh_wire_id(message):
    got = codec.decode_app(N, json.loads(json.dumps(codec.encode_app(message))))
    assert got.wire_id != message.wire_id
    assert_identical(replace(got, wire_id=message.wire_id), message)


@pytest.mark.parametrize("n", [N, 64])
def test_a_zero_wide_log_table_keeps_its_width(n):
    # A table with no entry has no incarnation block: its columns alone
    # cannot say how many processes it spans.
    sent = log_notification(3, [{}] * n)
    assert sent.table.stride == 0
    flat = json.loads(json.dumps(codec.encode_control(sent)))
    assert_identical(codec.decode_control(flat), sent)


# -- malformed wire values ---------------------------------------------------------

#: A value of none of the types a codec field holds.
WRONG = [1.5, "x", {}, [[]], True]


def wire_values():
    """What crosses the wire, encoded and read back as JSON."""
    return (messages().map(codec.encode_app) | controls.map(codec.encode_control)
            ).map(lambda flat: json.loads(json.dumps(flat)))


def decode_wire(flat):
    if type(flat[0]) is str:
        return codec.decode_control(flat)
    return codec.decode_app(N, flat)


#: An app message's fields an application owns: any value decodes.
PAYLOAD = 6


def broken_copies(flat):
    """``flat`` with one field dropped, added or retyped, every way."""
    for field in range(len(flat) + 1):
        for extra in (0, None, "x"):
            yield flat[:field] + [extra] + flat[field:]
    for field, value in enumerate(flat):
        yield flat[:field] + flat[field + 1:]
        if type(flat[0]) is str or field != PAYLOAD:
            for wrong in WRONG:
                if type(wrong) is not type(value):
                    yield flat[:field] + [wrong] + flat[field + 1:]


@given(flat=wire_values())
def test_any_one_field_dropped_added_or_retyped_raises(flat):
    for broken in broken_copies(flat):
        with pytest.raises(CodecError):
            decode_wire(broken)


VECTOR = 7


@given(message=messages(), data=st.data())
def test_a_vector_decode_checks_what_from_columns_trusts(message, data):
    flat = json.loads(json.dumps(codec.encode_app(message)))
    n, pid_column, packed = flat[VECTOR]
    defects = ["n", "length"]
    if len(pid_column) >= 2:
        defects.append("unsorted")
    if pid_column:
        defects += ["pid range", "negative entry"]
    defect = data.draw(st.sampled_from(defects))
    if defect == "n":
        n = data.draw(st.sampled_from([0, -1, n + 1]))
    elif defect == "length":
        packed = packed + [5]
    elif defect == "unsorted":
        pid_column = pid_column[::-1]
    elif defect == "pid range":
        pid_column = pid_column[:-1] + [data.draw(st.sampled_from([n, -1]))]
    else:
        packed = [-1] + packed[1:]
    flat[VECTOR] = [n, pid_column, packed]
    with pytest.raises(CodecError):
        codec.decode_app(N, flat)
