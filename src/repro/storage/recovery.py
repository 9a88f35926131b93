"""On-disk record framing and REDO-only recovery for the file-log backend.

The journal is a sequence of segment files (``seg-000001.log`` …), each an
append-only run of CRC32-framed records:

.. code-block:: text

    +-------+-------+----------+---------+---------+=============+
    | magic | rtype | version  | length  |  crc32  |   payload   |
    |  u16  |  u8   |   u8     |  u32    |  u32    | length bytes|
    +-------+-------+----------+---------+---------+=============+
         little-endian, 12-byte header; crc covers rtype..payload

The payload is one type's pickled flat form (:mod:`repro.backplane.codec`,
tabulated in docs/STORAGE.md §2): the form the backplane ships as JSON.

Every *logical* mutation of stable storage is journaled as one record, in
operation order — the log-shrinking operations (checkpoint discard, log
pop, garbage collection) and compaction's whole-state snapshots included.
So **replaying any prefix of the journal reproduces a state the backend
actually passed through** (prefix consistency, the Sauer & Härder
instant-restart invariant), which makes group commit safe: losing an
un-fsynced suffix rewinds stable storage to an earlier, self-consistent
state — the failure model optimistic logging recovers from.

Recovery is REDO-only: scan the segments in order, verify each frame's
magic and checksum, stop at the first torn or corrupt frame, physically
truncate the journal there, and hand each surviving record, in order, to
:meth:`FileLogBackend.recover <repro.storage.filelog.FileLogBackend.recover>`,
which replays it through the model backend method that wrote it.  Nothing
is updated in place, so no UNDO pass exists.  A checksum-valid frame of
another format version, or one that does not decode, is not media damage:
:class:`JournalFormatError`.
"""

from __future__ import annotations

import os
import pickle
import re
import struct
import zlib
from typing import Any, Callable, List, Tuple

from repro.backplane import codec

MAGIC = 0x5A1D
_HEADER = struct.Struct("<HBBII")
HEADER_SIZE = _HEADER.size
#: The header's version byte.  0 held pickled object graphs; 1's checkpoint
#: lacked the buffers; 2's incarnation marker lacked the end of the
#: incarnation it closed.  None of them has a decoder.
FORMAT_VERSION = 3

# Record types, the header's rtype byte 1..9.  One journal record per
# logical mutation; LOGMSG is framed per message (not per batch) so a torn
# write loses at most a record tail.
(T_CHECKPOINT, T_LOGMSG, T_ANN, T_INCMARK, T_COMMIT, T_CKPT_DISCARD,
 T_LOG_POP, T_GC, T_SNAPSHOT) = range(1, 10)

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


#: rtype -> (encode, decode); CKPT_DISCARD, LOG_POP and GC are one int.
_CODECS = {
    T_CHECKPOINT: (codec.encode_checkpoint, codec.decode_checkpoint),
    T_LOGMSG: (codec.encode_logged, codec.decode_logged),
    T_ANN: (codec.encode_announcement, codec.decode_announcement),
    T_INCMARK: (codec.encode_incarnation_mark, codec.decode_incarnation_mark),
    T_COMMIT: (codec.encode_output_id, codec.decode_output_id),
    T_CKPT_DISCARD: (int, codec.decode_index),
    T_LOG_POP: (int, codec.decode_index),
    T_GC: (int, codec.decode_index),
    T_SNAPSHOT: (codec.encode_compaction, codec.decode_compaction),
}


def encode_record(rtype: int, payload_obj: Any) -> bytes:
    """Frame one record: header + pickled flat form, CRC over type..payload."""
    payload = pickle.dumps(_CODECS[rtype][0](payload_obj), protocol=4)
    body = struct.pack("<BBI", rtype, FORMAT_VERSION, len(payload)) + payload
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return _HEADER.pack(MAGIC, rtype, FORMAT_VERSION, len(payload), crc) + payload


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
            obj = _CODECS[rtype][1](pickle.loads(payload))
        except Exception as exc:
            # Whatever pickle or the unpacker raised, the bytes are what was
            # written: a format defect, never grounds to truncate.
            raise JournalFormatError(source, offset, version,
                                     f"(type {rtype}) does not decode") from exc
        records.append((rtype, obj))
        offset = end
    return records, offset, ""


def list_segments(directory: str) -> List[str]:
    """Segment file names in ``directory``, in index order."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    segments = [n for n in names if _SEGMENT_RE.match(n)]
    segments.sort(key=segment_index)
    return segments


def scan_segments(directory: str,
                  redo: Callable[[int, Any], None]) -> Tuple[int, str]:
    """REDO scan: read, verify and truncate the journal, handing each
    surviving ``(rtype, record)`` to ``redo`` in journal order; returns
    how many there were and why the scan stopped short (``""``,
    ``"torn"`` or ``"corrupt"``).

    Side effects on disk — this *is* the repair step of restart: the first
    torn or corrupt frame physically truncates its segment to the valid
    prefix and unlinks every later segment (their contents would be
    unreachable suffix anyway and must not resurrect after the journal
    tail moves backwards).  A :class:`JournalFormatError` modifies nothing.
    """
    count = 0
    segments = list_segments(directory)
    for pos, name in enumerate(segments):
        path = os.path.join(directory, name)
        with open(path, "rb") as handle:
            data = handle.read()
        records, valid_end, reason = _parse_segment(data, path)
        count += len(records)
        for rtype, obj in records:
            redo(rtype, obj)
        if reason:
            with open(path, "r+b") as handle:
                handle.truncate(valid_end)
            for later in segments[pos + 1 :]:
                os.unlink(os.path.join(directory, later))
            return count, reason
    return count, ""
