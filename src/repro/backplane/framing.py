"""Header-framed JSON over asyncio streams.

Every frame is a 7-byte big-endian header followed by a UTF-8 JSON body:

.. code-block:: text

    +----------+------+--------+==============+
    |  length  | kind |  dst   |     body     |
    |   u32    |  u8  |  i16   | length bytes |
    +----------+------+--------+==============+

``kind`` and ``dst`` let the coordinator route a worker's frame on the
header alone: an ``app`` or ``ctl`` frame is forwarded to ``dst`` (``-1``:
every other worker) as the exact bytes that arrived, and only frames for
the reading endpoint itself (``KIND_LOCAL``: hellos, status replies,
commands, load traffic) have their body decoded.  Frames are small
(control traffic and single app messages), so a hard cap guards against a
corrupted length making the reader allocate gigabytes.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, NamedTuple, Optional

_HEADER = struct.Struct(">IBh")
HEADER_SIZE = _HEADER.size

#: A frame for the endpoint that reads it.
KIND_LOCAL = 0
#: An application message, routed to ``dst``.
KIND_APP = 1
#: A control payload, routed to ``dst`` (``-1``: every other worker).
KIND_CTL = 2
_KIND_OF = {"app": KIND_APP, "ctl": KIND_CTL}
_KINDS = frozenset((KIND_LOCAL, KIND_APP, KIND_CTL))

#: Upper bound on a single frame body; far above any real envelope.
MAX_FRAME = 16 * 1024 * 1024


class FramingError(Exception):
    """A malformed frame arrived (bad header or undecodable body)."""


class RawFrame(NamedTuple):
    """A frame as read off the wire: its routing header and its bytes."""

    kind: int
    dst: int
    #: Header and body, exactly as they arrived.
    data: bytes

    def decode(self) -> Any:
        return decode_body(self.data[HEADER_SIZE:])


def encode_frame(obj: Any) -> bytes:
    """Serialize one frame (header + JSON body).  The kind comes from the
    frame's ``t`` field; an ``app`` or ``ctl`` frame carries its ``dst``
    in the header too."""
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise FramingError(f"frame of {len(body)} bytes exceeds {MAX_FRAME}")
    kind = _KIND_OF.get(obj.get("t")) if isinstance(obj, dict) else None
    if kind is None:
        return _HEADER.pack(len(body), KIND_LOCAL, 0) + body
    try:
        return _HEADER.pack(len(body), kind, obj["dst"]) + body
    except struct.error as exc:
        raise FramingError(f"unframeable destination: {exc}") from exc


def decode_body(body: bytes) -> Any:
    try:
        return json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FramingError(f"undecodable frame body: {exc}") from exc


def write_frame(writer: asyncio.StreamWriter, obj: Any) -> None:
    """Queue one frame on ``writer`` (no drain; callers drain at natural
    batch boundaries — per handled event, not per frame)."""
    writer.write(encode_frame(obj))


async def read_frame(reader: asyncio.StreamReader,
                     raw: bool = False) -> Optional[Any]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.  With
    ``raw`` the body stays undecoded: a :class:`RawFrame`."""
    try:
        header = await reader.readexactly(HEADER_SIZE)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise FramingError("connection died mid-header") from exc
    length, kind, dst = _HEADER.unpack(header)
    if kind not in _KINDS:
        raise FramingError(f"unknown frame kind {kind}")
    if length > MAX_FRAME:
        raise FramingError(f"frame length {length} exceeds {MAX_FRAME}")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FramingError("connection died mid-frame") from exc
    if raw:
        return RawFrame(kind, dst, header + body)
    return decode_body(body)
