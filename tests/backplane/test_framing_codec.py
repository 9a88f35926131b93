"""Unit tests for the backplane wire layer: framing, codec, clock."""

import asyncio
import json

import pytest

from repro.backplane.clock import JsonlTracer, WallClock
from repro.backplane.codec import (
    CodecError,
    decode_app,
    decode_control,
    encode_app,
    encode_control,
)
from repro.backplane.framing import (
    MAX_FRAME,
    FramingError,
    encode_frame,
    read_frame,
)
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


def _drain(payloads):
    """Feed encoded frames through a StreamReader and read them back."""
    async def go():
        reader = asyncio.StreamReader()
        for payload in payloads:
            reader.feed_data(encode_frame(payload))
        reader.feed_eof()
        out = []
        while True:
            frame = await read_frame(reader)
            if frame is None:
                return out
            out.append(frame)
    return asyncio.run(go())


class TestFraming:
    def test_round_trip_preserves_order_and_content(self):
        frames = [{"t": "hello", "pid": 3}, {"t": "cmd", "op": "flush"},
                  {"nested": {"deep": [1, 2, {"x": None}]}}]
        assert _drain(frames) == frames

    def test_clean_eof_returns_none(self):
        assert _drain([]) == []

    def test_mid_frame_eof_raises(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"a": 1})[:-2])
            reader.feed_eof()
            await read_frame(reader)
        with pytest.raises(FramingError):
            asyncio.run(go())

    def test_oversized_frame_rejected_at_encode(self):
        with pytest.raises(FramingError):
            encode_frame({"blob": "x" * (MAX_FRAME + 1)})

    def test_undecodable_body_raises(self):
        async def go():
            import struct
            reader = asyncio.StreamReader()
            body = b"\xff\xfe not json"
            reader.feed_data(struct.pack(">I", len(body)) + body)
            reader.feed_eof()
            await read_frame(reader)
        with pytest.raises(FramingError):
            asyncio.run(go())


class TestCodec:
    def test_app_message_round_trip(self):
        tdv = DependencyVector(4)
        tdv.set(1, Entry(0, 3))
        tdv.set(3, Entry(1, 7))
        msg = AppMessage(
            msg_id=MessageId(2, 0, 5, 9),
            src=2, dst=1,
            payload={"tag": "t1", "hops": 2},
            tdv=tdv,
            send_interval=Entry(0, 5),
            replayed=True,
            k_limit=2,
        )
        decoded = decode_app(4, encode_app(msg))
        assert decoded.msg_id == msg.msg_id
        assert decoded.src == msg.src and decoded.dst == msg.dst
        assert decoded.payload == msg.payload
        assert decoded.send_interval == msg.send_interval
        assert decoded.replayed is True
        assert decoded.k_limit == 2
        assert decoded.tdv.as_dict() == msg.tdv.as_dict()

    def test_external_message_round_trip(self):
        msg = AppMessage(msg_id=MessageId(-1, 0, 0, 17), src=-1, dst=0,
                         payload={"tag": "t0", "hops": 1},
                         tdv=DependencyVector(4))
        decoded = decode_app(4, encode_app(msg))
        assert decoded.src == -1
        assert decoded.msg_id.seq == 17
        assert decoded.send_interval is None

    @pytest.mark.parametrize("payload", [
        FailureAnnouncement(2, Entry(1, 4)),
        LoggingRequest(3),
        LoggingRequest(3, flush=False),
        AppAck(MessageId(1, 0, 2, 3), 2, 1),
        LogProgressNotification(0, [{0: 9}, {}, {1: 2}, {0: 4}]),
    ])
    def test_control_round_trip(self, payload):
        decoded = decode_control(encode_control(payload))
        assert type(decoded) is type(payload)
        assert decoded == payload

    def test_logging_request_frame_without_the_flush_field_flushes_first(self):
        # A frame written before the field existed means what it meant then.
        assert encode_control(LoggingRequest(3, flush=False)) == {
            "kind": "req", "origin": 3, "flush": False}
        wire = json.loads(json.dumps({"kind": "req", "origin": 3}))
        assert decode_control(wire) == LoggingRequest(3, flush=True)

    def test_log_notification_int_keys_survive_json(self):
        notif = LogProgressNotification(1, [{0: 1, 1: 7}, {2: 5}])
        wire = json.loads(json.dumps(encode_control(notif)))
        decoded = decode_control(wire)
        assert decoded.table == [{0: 1, 1: 7}, {2: 5}]

    def test_unknown_control_kind_rejected(self):
        with pytest.raises(CodecError):
            decode_control({"kind": "mystery"})


class TestWallClock:
    def test_timescale_must_be_positive(self):
        with pytest.raises(ValueError):
            WallClock(None, timescale=0)

    def test_schedule_scales_delay(self):
        fired = []

        async def go():
            clock = WallClock(asyncio.get_running_loop(), timescale=0.01)
            clock.schedule(1.0, lambda: fired.append(clock.now))
            handle = clock.schedule(1.0, lambda: fired.append("cancelled"))
            handle.cancel()
            await asyncio.sleep(0.2)
        asyncio.run(go())
        assert len(fired) == 1
        assert fired[0] != "cancelled"


class TestJsonlTracer:
    def test_streams_and_survives_nonserializable(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = JsonlTracer(str(path))
        tracer.record(1.0, "msg.release", 0, msg=MessageId(0, 0, 1, 2))
        tracer.record(2.0, "dep.stable", 0, inc=0, sii=4)
        # Records are durable immediately (flush per line), before close.
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        tracer.close()
        assert [line["category"] for line in lines] == \
            ["msg.release", "dep.stable"]
        assert lines[1]["data"] == {"inc": 0, "sii": 4}
        assert isinstance(lines[0]["data"]["msg"], str)
