"""The one codec: the flat form of every type the protocol ships or persists.

Each type has one *flat form*, a tuple of builtins laid out below and
tabulated in docs/STORAGE.md §2, and one decoder, which raises
:class:`CodecError` on a missing, extra or ill-typed field.  The backplane
ships flat forms between worker processes as JSON (a tuple travels as a
list); the file journal pickles them into CRC frames
(:mod:`repro.storage.recovery`).  Application values — payloads and app
states — travel as they are: the PWD application model already requires
plain values, which JSON carries and pickle keeps whatever they are.

The two uses differ in one point.  An application message's ``wire_id``
is a per-process timing key, so the journal keeps it and a decode off the
wire (:func:`decode_app` given the wire's ``n``) draws a fresh one.

A log notification travels as its :class:`~repro.core.tables.TableSnapshot`
columns — ``stride`` incarnation blocks of ``n`` slots, ``-1`` for absent —
and is decoded onto the list or ndarray backend a table over ``n``
processes uses, so the receiver merges it exactly like an in-process one.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from repro.core import columnar
from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.core.tables import TableSnapshot
from repro.net.message import (
    Ack,
    AppMessage,
    FailureAnnouncement,
    LoggingRequest,
    LogProgressNotification,
    OutputRecord,
)
from repro.storage.stable import Checkpoint, LoggedMessage
from repro.types import MessageId, OutputId

Flat = Tuple[Any, ...]


class CodecError(Exception):
    """A value no encoder writes: a field missing, extra or ill-typed."""


#: A field's allowed types (``None``: any value, an application's own).
_I, _OPT, _BOOL, _LIST, _ANY = (int,), (int, type(None)), (bool,), (list,), None


def _fields(flat: Any, types: Sequence[Any], what: str) -> Sequence[Any]:
    """``flat`` when it holds one field per entry of ``types``, each of
    its allowed types."""
    if type(flat) in (tuple, list) and len(flat) == len(types):
        for t, value in zip(types, flat):
            if t is not None and type(value) not in t:
                break
        else:
            return flat
    raise CodecError(f"malformed {what}: {flat!r}")


def _ints(flat: Any, count: int, what: str) -> Sequence[int]:
    return _fields(flat, (_I,) * count, what)


def decode_index(flat: Any) -> int:
    """A checkpoint position or an interval index: one int."""
    return _ints((flat,), 1, "index")[0]


def encode_output_id(output_id: OutputId) -> Flat:
    """``(process, send_inc, send_sii, seq)``, a ``MessageId`` alike."""
    return (output_id.process, output_id.send_inc, output_id.send_sii,
            output_id.seq)


def decode_output_id(flat: Any) -> OutputId:
    return OutputId(*_ints(flat, 4, "output id"))


# -- dependency vectors and application messages ---------------------------


def encode_vector(tdv: Any) -> Flat:
    """``(n, pids, packed)``: the vector's live columns."""
    if type(tdv) is DependencyVector:
        return tdv.columns()
    # The baselines' own vector types stay in the journal, opaque,
    # tagged by n = 0 (JSON cannot carry them).
    return 0, tdv, None


def decode_vector(flat: Any, n: Optional[int] = None) -> Any:
    """What :meth:`DependencyVector.from_columns` trusts, checked: ``n``
    (the wire's process count, when given), pid-sorted distinct pids in
    range, one non-negative packed entry per pid."""
    size, pids, packed = _fields(flat, (_I, _ANY, _ANY), "vector")
    if size == 0 and n is None and packed is None:
        return pids
    if not (size >= 1 and n in (None, size)
            and type(pids) is list and type(packed) is list
            and len(pids) == len(packed)
            and set(map(type, pids + packed)) <= {int}
            and pids == sorted(set(pids))
            and (not pids or 0 <= pids[0] and pids[-1] < size
                 and min(packed) >= 0)):
        raise CodecError(f"malformed vector {flat!r}")
    return DependencyVector.from_columns(size, pids, packed)


#: id (4), src, dst, payload, vector, send interval (2, NULL from the
#: outside world), replayed, wire_id, k_limit.
_APP = (_I,) * 6 + (_ANY, _ANY, _OPT, _OPT, _BOOL, _I, _OPT)


def encode_app(msg: AppMessage) -> Flat:
    mid = msg.msg_id
    sent = msg.send_interval
    sent_inc, sent_sii = (None, None) if sent is None else (sent.inc, sent.sii)
    return (
        mid.sender, mid.send_inc, mid.send_sii, mid.seq,
        msg.src, msg.dst, msg.payload, encode_vector(msg.tdv),
        sent_inc, sent_sii, msg.replayed, msg.wire_id, msg.k_limit,
    )


def decode_app(n: Optional[int], flat: Any) -> AppMessage:
    """An application message; off the wire among ``n`` processes it gets
    a fresh ``wire_id``, from the journal (``n`` None) it keeps its own."""
    (sender, send_inc, send_sii, seq, src, dst, payload, tdv,
     sent_inc, sent_sii, replayed, wire_id, k_limit) = _fields(
        flat, _APP, "app message")
    if (sent_inc is None) is not (sent_sii is None):
        raise CodecError(f"malformed send interval in {flat!r}")
    kept = {} if n is not None else {"wire_id": wire_id}
    return AppMessage(
        msg_id=MessageId(sender, send_inc, send_sii, seq),
        src=src, dst=dst, payload=payload, tdv=decode_vector(tdv, n),
        send_interval=None if sent_inc is None else Entry(sent_inc, sent_sii),
        replayed=replayed, k_limit=k_limit, **kept,
    )


# -- journal records ---------------------------------------------------------


def encode_logged(record: LoggedMessage) -> Flat:
    """``(position, inc)`` followed by the message's flat form."""
    return (record.position, record.inc) + encode_app(record.message)


def decode_logged(flat: Any) -> LoggedMessage:
    position, inc = _ints(flat[:2] if type(flat) in (tuple, list) else flat,
                          2, "logged message")
    return LoggedMessage(position, inc, decode_app(None, flat[2:]))


def encode_output(output: Tuple[OutputRecord, Any]) -> Flat:
    """A pending output: ``(output id, process, payload, send interval (2),
    vector)``."""
    record, tdv = output
    sent = record.send_interval
    return (encode_output_id(record.output_id), record.process,
            record.payload, sent.inc, sent.sii, encode_vector(tdv))


def decode_output(flat: Any) -> Tuple[OutputRecord, Any]:
    output_id, process, payload, sent_inc, sent_sii, tdv = _fields(
        flat, (_ANY, _I, _ANY, _I, _I, _ANY), "output")
    return (OutputRecord(decode_output_id(output_id), process, payload,
                         Entry(sent_inc, sent_sii)), decode_vector(tdv))


def encode_checkpoint(ckpt: Checkpoint) -> Flat:
    """``(inc, sii, app_state, vector, received ids as one int column,
    time_taken, [receive buffer], [sends], [outputs])``."""
    ids = [x for m in ckpt.received_ids
           for x in (m.sender, m.send_inc, m.send_sii, m.seq)]
    return (ckpt.entry.inc, ckpt.entry.sii, ckpt.app_state,
            encode_vector(ckpt.tdv), ids, ckpt.time_taken,
            [encode_app(m) for m in ckpt.receive_buffer],
            [encode_app(m) for m in ckpt.sends],
            [encode_output(o) for o in ckpt.outputs])


def decode_checkpoint(flat: Any) -> Checkpoint:
    (inc, sii, app_state, tdv, ids, time_taken,
     receive_buffer, sends, outputs) = _fields(flat, (
         _I, _I, _ANY, _ANY, _LIST, (int, float), _LIST, _LIST, _LIST),
        "checkpoint")
    column = iter(_ints(ids, len(ids) // 4 * 4, "received ids (4 ints each)"))
    return Checkpoint(Entry(inc, sii), app_state, decode_vector(tdv),
                      frozenset(map(MessageId, column, column, column, column)),
                      time_taken,
                      tuple(decode_app(None, m) for m in receive_buffer),
                      tuple(decode_app(None, m) for m in sends),
                      tuple(map(decode_output, outputs)))


def encode_announcement(ann: FailureAnnouncement) -> Flat:
    """``(origin, inc, sii)``: where the origin's incarnation ended."""
    return ann.origin, ann.end.inc, ann.end.sii


def decode_announcement(flat: Any) -> FailureAnnouncement:
    origin, inc, sii = _ints(flat, 3, "announcement")
    return FailureAnnouncement(origin, Entry(inc, sii))


def encode_incarnation_mark(mark: Tuple[int, Optional[Entry]]) -> Flat:
    """``(inc,)``, or ``(inc, end inc, end sii)`` when a Rollback closed
    an incarnation."""
    inc, ended = mark
    return (inc,) if ended is None else (inc, ended.inc, ended.sii)


def decode_incarnation_mark(flat: Any) -> Tuple[int, Optional[Entry]]:
    short = type(flat) in (tuple, list) and len(flat) == 1
    inc, *end = _ints(flat, 1 if short else 3, "incarnation mark")
    return inc, Entry(*end) if end else None


def encode_compaction(snapshot: Tuple) -> Flat:
    """Compaction's whole-state record: ``([checkpoints], [log],
    [announcements], [incarnation ends (2)], [committed output ids],
    marker)``."""
    checkpoints, log, announcements, ends, committed, marker = snapshot
    return ([encode_checkpoint(c) for c in checkpoints],
            [encode_logged(r) for r in log],
            [encode_announcement(a) for a in announcements],
            [(e.inc, e.sii) for e in ends],
            [encode_output_id(o) for o in committed], marker)


def decode_compaction(flat: Any) -> Tuple:
    checkpoints, log, announcements, ends, committed, marker = _fields(
        flat, (_LIST,) * 5 + (_I,), "compaction snapshot")
    return ([decode_checkpoint(c) for c in checkpoints],
            [decode_logged(r) for r in log],
            [decode_announcement(a) for a in announcements],
            [Entry(*_ints(e, 2, "incarnation end")) for e in ends],
            {decode_output_id(o) for o in committed}, marker)


# -- control payloads on the wire -------------------------------------------


def encode_control(payload: Any) -> Flat:
    """``(kind, ...)``; after the kind comes the sender's pid (an ack's:
    the acknowledging process)."""
    if isinstance(payload, FailureAnnouncement):
        return ("ann",) + encode_announcement(payload)
    if isinstance(payload, LogProgressNotification):
        table = payload.table
        if not isinstance(table, TableSnapshot):
            raise CodecError(f"unencodable log table {table!r}")
        if not table.stride:
            # A zero-wide table: one block of absent slots carries its n.
            return "log", payload.origin, 1, [-1] * table.n
        cols = table.cols
        return ("log", payload.origin, table.stride,
                cols if isinstance(cols, list) else cols.tolist())
    if isinstance(payload, LoggingRequest):
        return "req", payload.origin, payload.flush
    if isinstance(payload, Ack):
        of = payload.of
        if isinstance(of, FailureAnnouncement):
            return ("ack-ann", payload.src, payload.dst) \
                + encode_announcement(of)
        return ("ack", payload.src, payload.dst, of.sender, of.send_inc,
                of.send_sii, of.seq)
    raise CodecError(f"unencodable control payload {payload!r}")


def _decode_log(flat: Any) -> LogProgressNotification:
    origin, stride, cols = _fields(flat, (_I, _I, _LIST), "log notification")
    if (stride < 1 or not cols or len(cols) % stride
            or not set(map(type, cols)) <= {int} or min(cols) < -1):
        raise CodecError(f"{cols!r} do not split into {stride} blocks")
    n = len(cols) // stride
    if columnar.use_numpy_for(n):
        np = columnar.NUMPY
        cols = np.array(cols, dtype=np.int64)
    return LogProgressNotification(origin, TableSnapshot(n, stride, cols))


#: kind -> the decoder of the fields after it.
_CONTROL = {
    "ann": decode_announcement,
    "log": _decode_log,
    "req": lambda flat: LoggingRequest(
        *_fields(flat, (_I, _BOOL), "logging request")),
    "ack": lambda flat: Ack(MessageId(*_ints(flat, 6, "ack")[2:]), *flat[:2]),
    "ack-ann": lambda flat: Ack(decode_announcement(flat[2:]),
                                *_ints(flat[:2], 2, "announcement ack")),
}


def decode_control(flat: Any) -> Any:
    kind = flat[0] if type(flat) in (tuple, list) and flat else None
    if type(kind) is not str or kind not in _CONTROL:
        raise CodecError(f"unknown control kind in {flat!r}")
    return _CONTROL[kind](flat[1:])
