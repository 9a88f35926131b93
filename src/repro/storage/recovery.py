"""On-disk record framing and REDO-only recovery for the file-log backend.

The journal is a sequence of segment files (``seg-000001.log`` …), each an
append-only run of CRC32-framed records:

.. code-block:: text

    +-------+-------+----------+---------+---------+=============+
    | magic | rtype | version  | length  |  crc32  |   payload   |
    |  u16  |  u8   |   u8     |  u32    |  u32    | length bytes|
    +-------+-------+----------+---------+---------+=============+
         little-endian, 12-byte header; crc covers rtype..payload

The payload is one pickled **flat tuple of builtins** per record type — the
fields REDO needs, not the in-memory object graph.  The ``_pack_*`` /
``_unpack_*`` pairs below define the layouts (tabulated in docs/STORAGE.md
§2); application values stay whatever pickle makes of them, in the same call.

Every *logical* mutation of stable storage is journaled as one record, in
operation order — checkpoints, logged messages, announcements, incarnation
markers, committed outputs, and also the log-shrinking operations
(checkpoint discard, log pop, garbage collection) and whole-state
snapshots written by compaction.  Because the journal order equals the
operation order, **replaying any prefix of the journal reproduces a state
the backend actually passed through** (prefix consistency, the Sauer &
Härder instant-restart invariant).  That is what makes group commit safe:
losing an un-fsynced suffix merely rewinds stable storage to an earlier —
still self-consistent — state, which is precisely the failure model
optimistic logging is designed to recover from.

Recovery is REDO-only: scan the segments in order, verify each frame's
magic and checksum, stop at the first torn (incomplete) or corrupt frame,
physically truncate the journal there, and fold the surviving records into
a :class:`RecoveredState`.  No UNDO pass exists because nothing is ever
updated in place.  A checksum-valid frame of another format version, or one
that does not decode, is not media damage: :class:`JournalFormatError`.
"""

from __future__ import annotations

import os
import pickle
import re
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, List, Set, Tuple

from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.net.message import AppMessage, FailureAnnouncement, OutputRecord
from repro.storage.stable import Checkpoint, LoggedMessage
from repro.types import MessageId, OutputId

MAGIC = 0x5A1D
_HEADER = struct.Struct("<HBBII")
HEADER_SIZE = _HEADER.size
#: The header's version byte.  0 held pickled object graphs; 1's checkpoint
#: lacked the buffers; 2's incarnation marker lacked the end of the
#: incarnation it closed.  None of them has a decoder.
FORMAT_VERSION = 3

# Record types.  One journal record per logical mutation; LOGMSG is framed
# per message (not per batch) so a torn write loses at most a record tail.
T_CHECKPOINT = 1
T_LOGMSG = 2
T_ANN = 3
T_INCMARK = 4
T_COMMIT = 5
T_CKPT_DISCARD = 6
T_LOG_POP = 7
T_GC = 8
T_SNAPSHOT = 9

_SEGMENT_RE = re.compile(r"^seg-(\d{6})\.log$")


def segment_name(index: int) -> str:
    return f"seg-{index:06d}.log"


def segment_index(name: str) -> int:
    match = _SEGMENT_RE.match(name)
    if not match:
        raise ValueError(f"not a segment file name: {name!r}")
    return int(match.group(1))


class JournalFormatError(Exception):
    """A checksum-valid frame this code cannot read: another format version
    or a codec defect.  Never repaired by truncation — the bytes are good."""

    def __init__(self, source: str, offset: int, version: int, detail: str):
        super().__init__(f"{source} @ {offset}: version-{version} frame {detail} "
                         f"(this code reads {FORMAT_VERSION}); journal left intact")
        self.source, self.offset, self.version = source, offset, version


# -- record layouts: object <-> flat tuple of builtins ---------------------------


def _pack_vector(tdv: Any) -> Tuple[Any, Any, Any]:
    if type(tdv) is DependencyVector:
        return tdv.columns()
    # The baselines' own vector types travel opaque, tagged by n = 0.
    return 0, tdv, None


def _unpack_vector(flat: Tuple[Any, Any, Any]) -> Any:
    n, pids, packed = flat
    return pids if n == 0 else DependencyVector.from_columns(n, pids, packed)


def _pack_message(msg: AppMessage) -> Tuple:
    mid = msg.msg_id
    sent = msg.send_interval  # None on a message from the outside world
    sent_inc, sent_sii = (None, None) if sent is None else (sent.inc, sent.sii)
    return (
        mid.sender, mid.send_inc, mid.send_sii, mid.seq,
        msg.src, msg.dst, msg.payload, _pack_vector(msg.tdv),
        sent_inc, sent_sii, msg.replayed, msg.wire_id, msg.k_limit,
    )


def _unpack_message(flat: Tuple) -> AppMessage:
    (sender, send_inc, send_sii, seq, src, dst, payload, tdv,
     sent_inc, sent_sii, replayed, wire_id, k_limit) = flat
    return AppMessage(
        msg_id=MessageId(sender, send_inc, send_sii, seq),
        src=src, dst=dst, payload=payload, tdv=_unpack_vector(tdv),
        send_interval=None if sent_inc is None else Entry(sent_inc, sent_sii),
        replayed=replayed, wire_id=wire_id, k_limit=k_limit,
    )


def _pack_logmsg(record: LoggedMessage) -> Tuple:
    return (record.position, record.inc) + _pack_message(record.message)


def _unpack_logmsg(flat: Tuple) -> LoggedMessage:
    return LoggedMessage(flat[0], flat[1], _unpack_message(flat[2:]))


def _pack_output(output: Tuple[OutputRecord, Any]) -> Tuple:
    record, tdv = output
    sent = record.send_interval
    return (_pack_commit(record.output_id), record.process, record.payload,
            sent.inc, sent.sii, _pack_vector(tdv))


def _unpack_output(flat: Tuple) -> Tuple[OutputRecord, Any]:
    output_id, process, payload, sent_inc, sent_sii, tdv = flat
    return (OutputRecord(_unpack_commit(output_id), process, payload,
                         Entry(sent_inc, sent_sii)), _unpack_vector(tdv))


def _pack_checkpoint(ckpt: Checkpoint) -> Tuple:
    ids = [x for m in ckpt.received_ids
           for x in (m.sender, m.send_inc, m.send_sii, m.seq)]
    return (ckpt.entry.inc, ckpt.entry.sii, ckpt.app_state,
            _pack_vector(ckpt.tdv), ids, ckpt.time_taken,
            [_pack_message(m) for m in ckpt.receive_buffer],
            [_pack_message(m) for m in ckpt.sends],
            [_pack_output(o) for o in ckpt.outputs])


def _unpack_checkpoint(flat: Tuple) -> Checkpoint:
    (inc, sii, app_state, tdv, ids, time_taken,
     receive_buffer, sends, outputs) = flat
    column = iter(ids)
    return Checkpoint(Entry(inc, sii), app_state, _unpack_vector(tdv),
                      frozenset(map(MessageId, column, column, column, column)),
                      time_taken,
                      tuple(map(_unpack_message, receive_buffer)),
                      tuple(map(_unpack_message, sends)),
                      tuple(map(_unpack_output, outputs)))


def _pack_ann(ann: FailureAnnouncement) -> Tuple[int, int, int]:
    return ann.origin, ann.end.inc, ann.end.sii


def _unpack_ann(flat: Tuple[int, int, int]) -> FailureAnnouncement:
    origin, inc, sii = flat
    return FailureAnnouncement(origin, Entry(inc, sii))


def _pack_commit(output_id: Any) -> Tuple:
    if type(output_id) is OutputId:
        return (output_id.process, output_id.send_inc, output_id.send_sii,
                output_id.seq)
    # Any other hashable id travels opaque, tagged by the 1-tuple.
    return (output_id,)


def _unpack_commit(flat: Tuple) -> Any:
    return OutputId(*flat) if len(flat) == 4 else flat[0]


def _pack_incmark(mark: Tuple[int, Any]) -> Tuple:
    inc, ended = mark
    return (inc,) if ended is None else (inc, ended.inc, ended.sii)


def _unpack_incmark(flat: Tuple) -> Tuple[int, Any]:
    return flat[0], (Entry(flat[1], flat[2]) if len(flat) == 3 else None)


def _pack_snapshot(snapshot: Tuple) -> Tuple:
    checkpoints, log, announcements, ends, committed, marker = snapshot
    return ([_pack_checkpoint(c) for c in checkpoints],
            [_pack_logmsg(r) for r in log],
            [_pack_ann(a) for a in announcements],
            [(e.inc, e.sii) for e in ends],
            [_pack_commit(o) for o in committed], marker)


def _unpack_snapshot(flat: Tuple) -> Tuple:
    checkpoints, log, announcements, ends, committed, marker = flat
    return ([_unpack_checkpoint(c) for c in checkpoints],
            [_unpack_logmsg(r) for r in log],
            [_unpack_ann(a) for a in announcements],
            [Entry(inc, sii) for inc, sii in ends],
            {_unpack_commit(o) for o in committed}, marker)


#: rtype -> (pack, unpack); CKPT_DISCARD, LOG_POP and GC are one int.
_CODECS = {
    T_CHECKPOINT: (_pack_checkpoint, _unpack_checkpoint),
    T_LOGMSG: (_pack_logmsg, _unpack_logmsg),
    T_ANN: (_pack_ann, _unpack_ann),
    T_INCMARK: (_pack_incmark, _unpack_incmark),
    T_COMMIT: (_pack_commit, _unpack_commit),
    T_SNAPSHOT: (_pack_snapshot, _unpack_snapshot),
}


def encode_record(rtype: int, payload_obj: Any) -> bytes:
    """Frame one record: header + pickled flat form, CRC over type..payload."""
    codec = _CODECS.get(rtype)
    flat = payload_obj if codec is None else codec[0](payload_obj)
    payload = pickle.dumps(flat, protocol=4)
    body = struct.pack("<BBI", rtype, FORMAT_VERSION, len(payload)) + payload
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return _HEADER.pack(MAGIC, rtype, FORMAT_VERSION, len(payload), crc) + payload


@dataclass
class ScanStats:
    """What the segment scan saw, for metrics and probes."""

    records: int = 0
    bytes_scanned: int = 0
    torn_records: int = 0
    corrupt_records: int = 0
    segments_dropped: int = 0
    truncated_at: Tuple[str, int] = ("", -1)


@dataclass
class RecoveredState:
    """The logical stable-storage state folded out of the journal.

    Field semantics match :class:`repro.storage.stable.ModelBackend`'s
    internals exactly — the fold below *is* the model's mutation logic,
    re-run against the journal.
    """

    checkpoints: List[Any] = field(default_factory=list)
    log: List[Any] = field(default_factory=list)
    announcements: List[FailureAnnouncement] = field(default_factory=list)
    incarnation_ends: List[Entry] = field(default_factory=list)
    committed: Set[Any] = field(default_factory=set)
    marker: int = 0


def _parse_segment(
    data: bytes, source: str = "<bytes>"
) -> Tuple[List[Tuple[int, Any]], int, str]:
    """Parse one segment's bytes into (records, valid_end, stop_reason).

    ``valid_end`` is the byte offset just past the last good frame;
    ``stop_reason`` is ``""`` (clean end), ``"torn"`` (incomplete final
    frame) or ``"corrupt"`` (magic/CRC mismatch).  A frame that passes its
    checksum and still cannot be read raises :class:`JournalFormatError`.
    """
    records: List[Tuple[int, Any]] = []
    offset = 0
    size = len(data)
    while offset < size:
        if offset + HEADER_SIZE > size:
            return records, offset, "torn"
        magic, rtype, version, length, crc = _HEADER.unpack_from(data, offset)
        if magic != MAGIC:
            return records, offset, "corrupt"
        start = offset + HEADER_SIZE
        end = start + length
        if end > size:
            return records, offset, "torn"
        payload = data[start:end]
        body = struct.pack("<BBI", rtype, version, length) + payload
        if (zlib.crc32(body) & 0xFFFFFFFF) != crc:
            return records, offset, "corrupt"
        if version != FORMAT_VERSION:
            raise JournalFormatError(source, offset, version, "refused")
        try:
            obj = pickle.loads(payload)
            codec = _CODECS.get(rtype)
            if codec is not None:
                obj = codec[1](obj)
        except Exception as exc:
            # Whatever pickle or the unpacker raised, the bytes are what was
            # written: a format defect, never grounds to truncate.
            raise JournalFormatError(source, offset, version,
                                     f"(type {rtype}) does not decode") from exc
        records.append((rtype, obj))
        offset = end
    return records, offset, ""


def apply_record(state: RecoveredState, rtype: int, obj: Any) -> None:
    """Fold one journal record into the recovered state.

    Mirrors the model backend's mutation semantics operation for
    operation; keep the two in lockstep.
    """
    if rtype == T_CHECKPOINT:
        state.checkpoints.append(obj)
        state.marker = max(state.marker, obj.entry.inc)
    elif rtype == T_LOGMSG:
        state.log.append(obj)
        state.marker = max(state.marker, obj.inc)
    elif rtype == T_ANN:
        state.announcements.append(obj)
    elif rtype == T_INCMARK:
        inc, ended = obj
        if ended is not None:
            state.incarnation_ends.append(ended)
        state.marker = max(state.marker, inc)
    elif rtype == T_COMMIT:
        state.committed.add(obj)
    elif rtype == T_CKPT_DISCARD:
        del state.checkpoints[obj + 1 :]
    elif rtype == T_LOG_POP:
        state.log = [r for r in state.log if r.position <= obj]
    elif rtype == T_GC:
        if 0 <= obj < len(state.checkpoints):
            keep = state.checkpoints[obj]
            state.checkpoints = state.checkpoints[obj:]
            state.log = [r for r in state.log if r.position > keep.entry.sii]
    elif rtype == T_SNAPSHOT:
        (state.checkpoints, state.log, state.announcements,
         state.incarnation_ends, state.committed,
         state.marker) = obj  # fresh lists and a set: _unpack_snapshot's own
    else:
        raise ValueError(f"unknown journal record type {rtype}")


def list_segments(directory: str) -> List[str]:
    """Segment file names in ``directory``, in index order."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    segments = [n for n in names if _SEGMENT_RE.match(n)]
    segments.sort(key=segment_index)
    return segments


def scan_segments(directory: str) -> Tuple[RecoveredState, ScanStats]:
    """REDO scan: read, verify, truncate, and fold the journal.

    Side effects on disk — this *is* the repair step of restart: the first
    torn or corrupt frame physically truncates its segment to the valid
    prefix and unlinks every later segment (their contents would be
    unreachable suffix anyway and must not resurrect after the journal
    tail moves backwards).  A :class:`JournalFormatError` modifies nothing.
    """
    state = RecoveredState()
    stats = ScanStats()
    segments = list_segments(directory)
    for pos, name in enumerate(segments):
        path = os.path.join(directory, name)
        with open(path, "rb") as handle:
            data = handle.read()
        records, valid_end, reason = _parse_segment(data, path)
        stats.records += len(records)
        stats.bytes_scanned += valid_end
        for rtype, obj in records:
            apply_record(state, rtype, obj)
        if reason:
            if reason == "torn":
                stats.torn_records += 1
            else:
                stats.corrupt_records += 1
            stats.truncated_at = (name, valid_end)
            with open(path, "r+b") as handle:
                handle.truncate(valid_end)
            for later in segments[pos + 1 :]:
                os.unlink(os.path.join(directory, later))
                stats.segments_dropped += 1
            break
    return state, stats
