"""JSON encoding of the protocol's wire types.

The sans-IO core exchanges rich Python objects (:class:`AppMessage`,
:class:`FailureAnnouncement`, ...); the backplane ships them between OS
processes as JSON.  The encoding is lossless for everything the receiving
protocol consumes; transient per-transmission fields (``wire_id``) are
regenerated on decode.

Payloads must themselves be JSON-serializable — the PWD application model
already requires plain-value state and payloads, so this imposes nothing
new.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
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
    return AppMessage(
        msg_id=decode_msg_id(raw["id"]),
        src=int(raw["src"]),
        dst=int(raw["dst"]),
        payload=raw["payload"],
        tdv=decode_tdv(n, raw["tdv"]),
        send_interval=decode_entry(raw.get("si")),
        replayed=bool(raw.get("replayed", False)),
        k_limit=raw.get("k"),
    )


# -- control payloads ---------------------------------------------------------


def encode_control(payload: Any) -> Dict[str, Any]:
    """Encode any control payload a protocol or transport endpoint emits."""
    if isinstance(payload, FailureAnnouncement):
        return {"kind": "ann", "origin": payload.origin,
                "end": encode_entry(payload.end)}
    if isinstance(payload, LogProgressNotification):
        table = payload.table
        rows = table.rows() if hasattr(table, "rows") else table
        return {"kind": "log", "origin": payload.origin,
                "table": [{str(inc): int(sii) for inc, sii in row.items()}
                          for row in rows]}
    if isinstance(payload, LoggingRequest):
        return {"kind": "req", "origin": payload.origin,
                "flush": payload.flush}
    if isinstance(payload, AppAck):
        return {"kind": "ack", "id": encode_msg_id(payload.msg_id),
                "src": payload.src, "dst": payload.dst}
    raise CodecError(f"unencodable control payload {payload!r}")


def decode_control(raw: Dict[str, Any]) -> Any:
    kind = raw.get("kind")
    if kind == "ann":
        return FailureAnnouncement(int(raw["origin"]),
                                   decode_entry(raw["end"]))
    if kind == "log":
        return LogProgressNotification(
            int(raw["origin"]),
            [{int(inc): int(sii) for inc, sii in row.items()}
             for row in raw["table"]],
        )
    if kind == "req":
        # A frame without the field predates it: flush first.
        return LoggingRequest(int(raw["origin"]),
                              bool(raw.get("flush", True)))
    if kind == "ack":
        return AppAck(decode_msg_id(raw["id"]), int(raw["src"]),
                      int(raw["dst"]))
    raise CodecError(f"unknown control kind {kind!r}")
