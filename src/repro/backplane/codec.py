"""JSON encoding of the protocol's wire types.

The sans-IO core exchanges rich Python objects (:class:`AppMessage`,
:class:`FailureAnnouncement`, ...); the backplane ships them between OS
processes as JSON.  The encoding is lossless for everything the receiving
protocol consumes; transient per-transmission fields (``wire_id``) are
regenerated on decode.  Every field the encoder writes is required on
decode: a frame that lacks one, or has a shape no encoder writes, raises
:class:`CodecError`.

A log notification travels as its :class:`~repro.core.tables.TableSnapshot`
columns — ``stride`` incarnation blocks of ``n`` slots, ``-1`` for absent —
and is decoded onto the list or ndarray backend a table over ``n``
processes uses, so the receiver merges it exactly like an in-process one.

Payloads must themselves be JSON-serializable — the PWD application model
already requires plain-value state and payloads, so this imposes nothing
new.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core import columnar
from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.core.tables import TableSnapshot
from repro.net.message import (
    AppAck,
    AppMessage,
    FailureAnnouncement,
    LoggingRequest,
    LogProgressNotification,
)
from repro.types import MessageId


class CodecError(Exception):
    """An arriving frame did not decode to a known wire type."""


# -- primitives ---------------------------------------------------------------


def encode_entry(entry: Optional[Entry]) -> Optional[List[int]]:
    return None if entry is None else [entry.inc, entry.sii]


def decode_entry(raw: Optional[List[int]]) -> Optional[Entry]:
    return None if raw is None else Entry(int(raw[0]), int(raw[1]))


def encode_msg_id(mid: MessageId) -> List[int]:
    return [mid.sender, mid.send_inc, mid.send_sii, mid.seq]


def decode_msg_id(raw: List[int]) -> MessageId:
    return MessageId(int(raw[0]), int(raw[1]), int(raw[2]), int(raw[3]))


def encode_tdv(tdv: DependencyVector) -> Dict[str, List[int]]:
    # JSON object keys are strings; pids survive a str/int round-trip.
    return {str(pid): [e.inc, e.sii] for pid, e in tdv.as_dict().items()}


def decode_tdv(n: int, raw: Dict[str, List[int]]) -> DependencyVector:
    return DependencyVector(
        n, {int(pid): Entry(int(e[0]), int(e[1])) for pid, e in raw.items()}
    )


# -- app messages -------------------------------------------------------------


def encode_app(msg: AppMessage) -> Dict[str, Any]:
    return {
        "id": encode_msg_id(msg.msg_id),
        "src": msg.src,
        "dst": msg.dst,
        "payload": msg.payload,
        "tdv": encode_tdv(msg.tdv),
        "si": encode_entry(msg.send_interval),
        "replayed": msg.replayed,
        "k": msg.k_limit,
    }


def decode_app(n: int, raw: Dict[str, Any]) -> AppMessage:
    try:
        return AppMessage(
            msg_id=decode_msg_id(raw["id"]),
            src=int(raw["src"]),
            dst=int(raw["dst"]),
            payload=raw["payload"],
            tdv=decode_tdv(n, raw["tdv"]),
            send_interval=decode_entry(raw["si"]),
            replayed=bool(raw["replayed"]),
            k_limit=raw["k"],
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CodecError(f"malformed app message {raw!r}: {exc!r}") from None


# -- control payloads ---------------------------------------------------------


def encode_control(payload: Any) -> Dict[str, Any]:
    """Encode any control payload a protocol or transport endpoint emits."""
    if isinstance(payload, FailureAnnouncement):
        return {"kind": "ann", "origin": payload.origin,
                "end": encode_entry(payload.end)}
    if isinstance(payload, LogProgressNotification):
        table = payload.table
        if not isinstance(table, TableSnapshot):
            raise CodecError(f"unencodable log table {table!r}")
        cols = table.cols
        return {"kind": "log", "origin": payload.origin,
                "stride": table.stride,
                "cols": cols if isinstance(cols, list) else cols.tolist()}
    if isinstance(payload, LoggingRequest):
        return {"kind": "req", "origin": payload.origin,
                "flush": payload.flush}
    if isinstance(payload, AppAck):
        return {"kind": "ack", "id": encode_msg_id(payload.msg_id),
                "src": payload.src, "dst": payload.dst}
    raise CodecError(f"unencodable control payload {payload!r}")


def decode_snapshot(stride: int, cols: List[int]) -> TableSnapshot:
    """The snapshot a log notification carried, on the backend a table
    over its ``n`` processes uses."""
    if stride < 1 or not cols or len(cols) % stride:
        raise CodecError(
            f"{len(cols)} columns do not split into {stride} blocks")
    n = len(cols) // stride
    if columnar.use_numpy_for(n):
        np = columnar.NUMPY
        return TableSnapshot(n, stride, np.array(cols, dtype=np.int64))
    return TableSnapshot(n, stride, [int(v) for v in cols])


def decode_control(raw: Dict[str, Any]) -> Any:
    kind = raw.get("kind")
    try:
        if kind == "ann":
            return FailureAnnouncement(int(raw["origin"]),
                                       decode_entry(raw["end"]))
        if kind == "log":
            return LogProgressNotification(
                int(raw["origin"]),
                decode_snapshot(int(raw["stride"]), raw["cols"]))
        if kind == "req":
            return LoggingRequest(int(raw["origin"]), bool(raw["flush"]))
        if kind == "ack":
            return AppAck(decode_msg_id(raw["id"]), int(raw["src"]),
                          int(raw["dst"]))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CodecError(f"malformed {kind} frame {raw!r}: {exc!r}") from None
    raise CodecError(f"unknown control kind {kind!r}")
