"""Unit tests for the backplane wire layer: framing, codec, clock."""

import asyncio
import json
import struct

import pytest

from repro.backplane import clock as clock_module
from repro.backplane.clock import JsonlTracer, WallClock
from repro.backplane.codec import (
    CodecError,
    decode_app,
    decode_control,
    encode_app,
    encode_control,
)
from repro.backplane.framing import (
    HEADER_SIZE,
    KIND_APP,
    KIND_CTL,
    KIND_LOCAL,
    MAX_FRAME,
    FramingError,
    encode_frame,
    read_frame,
)
from repro.core import columnar
from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.core.tables import LoggingProgressTable, SparseSnapshot
from repro.net.message import (
    Ack,
    AppMessage,
    FailureAnnouncement,
    LoggingRequest,
    LogProgressNotification,
)
from repro.types import MessageId
from helpers import log_notification


#: The wire header: body length, kind, destination.
HEADER = struct.Struct(">IBh")


def _drain(payloads, raw=False):
    """Feed encoded frames through a StreamReader and read them back."""
    return _read_all(b"".join(map(encode_frame, payloads)), raw)


def _read_all(data, raw=False):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        out = []
        while True:
            frame = await read_frame(reader, raw=raw)
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
        body = b"\xff\xfe not json"
        with pytest.raises(FramingError, match="undecodable"):
            _read_all(HEADER.pack(len(body), KIND_LOCAL, 0) + body)

    def test_every_kind_round_trips_with_its_header(self):
        frames = [
            {"t": "hello", "pid": 1},
            {"t": "cmd", "op": "inject", "seq": 3, "payload": {"tag": "t"}},
            {"t": "status", "rid": 2, "quiescent": True},
            {"t": "app", "dst": 1, "msg": {"seq": 4}},
            {"t": "ctl", "src": 0, "dst": 3, "body": {"kind": "req"}},
            # Negative: the coordinator fans this one out to every worker.
            {"t": "ctl", "src": 2, "dst": -1, "body": {"kind": "ann"}},
        ]
        got = _drain(frames, raw=True)
        assert [(f.kind, f.dst) for f in got] == [
            (KIND_LOCAL, 0), (KIND_LOCAL, 0), (KIND_LOCAL, 0),
            (KIND_APP, 1), (KIND_CTL, 3), (KIND_CTL, -1)]
        assert [f.decode() for f in got] == frames
        assert [f.data for f in got] == [encode_frame(f) for f in frames]
        assert _drain(frames) == frames
        for frame, wire in zip(frames, map(encode_frame, frames)):
            length, _kind, _dst = HEADER.unpack_from(wire)
            assert length == len(wire) - HEADER_SIZE

    def test_unknown_kind_raises(self):
        body = b'{"t":"app","dst":1}'
        with pytest.raises(FramingError, match="unknown frame kind 7"):
            _read_all(HEADER.pack(len(body), 7, 1) + body)

    @pytest.mark.parametrize("cut", [1, HEADER_SIZE - 1, HEADER_SIZE + 3])
    def test_a_header_or_body_cut_short_raises(self, cut):
        wire = encode_frame({"t": "app", "dst": 1, "msg": {"seq": 4}})
        with pytest.raises(FramingError, match="mid-"):
            _read_all(wire + wire[:cut])

    def test_a_destination_outside_the_header_is_refused(self):
        with pytest.raises(FramingError):
            encode_frame({"t": "app", "dst": 1 << 16, "msg": {}})


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
        Ack(MessageId(1, 0, 2, 3), 2, 1),
        log_notification(0, [{0: 9}, {}, {1: 2}, {0: 4}]),
        Ack(FailureAnnouncement(2, Entry(1, 4)), 0, 2),
    ])
    def test_control_round_trip(self, payload):
        decoded = decode_control(encode_control(payload))
        assert type(decoded) is type(payload)
        assert decoded == payload

    def test_logging_request_frame_without_the_flush_field_raises(self):
        assert encode_control(LoggingRequest(3, flush=False)) == (
            "req", 3, False)
        with pytest.raises(CodecError):
            decode_control(["req", 3])

    def test_log_notification_int_keys_survive_json(self):
        notif = log_notification(1, [{0: 1, 1: 7}, {2: 5}])
        wire = json.loads(json.dumps(encode_control(notif)))
        decoded = decode_control(wire)
        assert decoded.table.rows() == [{0: 1, 1: 7}, {2: 5}]

    def test_unknown_control_kind_rejected(self):
        with pytest.raises(CodecError):
            decode_control({"kind": "mystery"})

    @pytest.mark.parametrize("payload", [
        FailureAnnouncement(2, Entry(1, 4)),
        LoggingRequest(3, flush=False),
        Ack(MessageId(1, 0, 2, 3), 2, 1),
        log_notification(0, [{0: 9}, {}, {1: 2}, {0: 4}]),
        Ack(FailureAnnouncement(2, Entry(1, 4)), 0, 2),
    ], ids=["ann", "req", "ack", "log", "ann_ack"])
    def test_a_control_frame_missing_any_field_raises(self, payload):
        wire = list(encode_control(payload))
        for field in range(1, len(wire)):  # every field after the kind
            with pytest.raises(CodecError):
                decode_control(wire[:field] + wire[field + 1:])

    def test_an_app_frame_missing_any_field_raises(self):
        msg = AppMessage(msg_id=MessageId(2, 0, 5, 9), src=2, dst=1,
                         payload={"tag": "t1"}, tdv=DependencyVector(4),
                         send_interval=Entry(0, 5))
        wire = list(encode_app(msg))
        for field in range(len(wire)):
            with pytest.raises(CodecError):
                decode_app(4, wire[:field] + wire[field + 1:])


def _sender(n):
    """A log table that has seen two restarts of P0 (stride 3) and some
    progress of every other process."""
    table = LoggingProgressTable(n)
    for pid in range(n):
        table.insert(pid, Entry(0, 2 + pid % 5))
    table.insert(0, Entry(1, 9))
    table.insert(0, Entry(2, 12))
    return table


@pytest.fixture(params=["numpy", "lists"])
def backend(request, monkeypatch):
    """The two snapshot backends: numpy (ndarray columns from n = 64) and
    what ``REPRO_NO_NUMPY=1`` gives, list columns at every n."""
    if request.param == "numpy":
        if columnar.numpy_module() is None:
            pytest.skip("numpy unavailable or disabled")
    else:
        monkeypatch.setattr(columnar, "NUMPY", None)
        monkeypatch.setattr(columnar, "_probed", True)
    return request.param


class TestLogNotificationWireForm:
    """One snapshot form on the wire: the ``TableSnapshot`` columns."""

    @pytest.mark.parametrize("n", [4, 64])
    def test_round_trip_lands_on_the_table_backend_and_merges_alike(
            self, n, backend):
        sender = _sender(n)
        notif = LogProgressNotification(3, sender.snapshot_columns())
        wire = encode_control(notif)
        kind, origin, stride, cols = wire
        assert (kind, origin, stride, len(cols)) == ("log", 3, 3, 3 * n)
        decoded = decode_control(json.loads(json.dumps(wire)))
        assert decoded == notif and decoded.origin == 3
        snap = decoded.table
        assert (snap.n, snap.stride) == (n, 3)
        ndarray = n >= columnar.NP_MIN_N and backend == "numpy"
        assert isinstance(snap.cols, list) is not ndarray
        assert all(type(v) is int for row in snap.rows() for v in row.values())
        # Merged into a receiver narrower than the snapshot and one wider,
        # the decoded snapshot does what the in-process one does.
        for grown in (False, True):
            over_wire, in_process = LoggingProgressTable(n), LoggingProgressTable(n)
            for table in (over_wire, in_process):
                table.insert(n - 1, Entry(0, 40))
                if grown:
                    table.insert(1, Entry(4, 1))
            over_wire.merge_snapshot(snap)
            in_process.merge_snapshot(notif.table)
            assert over_wire.snapshot_columns() == in_process.snapshot_columns()
            assert over_wire.version == in_process.version
            assert over_wire.lookup(0, 2) == 12

    def test_the_old_table_shape_raises(self):
        with pytest.raises(CodecError):
            decode_control({"kind": "log", "origin": 1,
                            "table": [{"0": 3}, {}]})

    @pytest.mark.parametrize("stride, cols", [
        (0, [1, 2]), (3, [1, 2]), (1, []), (1, "abc")])
    def test_columns_that_do_not_split_into_blocks_raise(self, stride, cols):
        with pytest.raises(CodecError):
            decode_control(["log", 0, stride, cols])

    def test_a_delta_is_not_encodable(self):
        delta = LogProgressNotification(0, SparseSnapshot(4, [(1, 0, 3)]))
        with pytest.raises(CodecError):
            encode_control(delta)


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

    def test_serializable_records_are_encoded_as_before(self, tmp_path):
        """Byte for byte what the tracer wrote when it dumped every value
        on its own first: one ``json.dumps`` of the whole record."""
        path = tmp_path / "t.jsonl"
        tracer = JsonlTracer(str(path))
        records = [
            (1.5, "dep.deliver", 0, {"inc": 0, "sii": 4, "src": -1}),
            (2.0, "dep.commit", 1, {"payload": {"tag": "t\u00e9", "hops": [1, 2]},
                                    "output": None, "ok": True}),
            (3.25, "worker.start", None, {}),
        ]
        for time_, category, process, data in records:
            tracer.record(time_, category, process, **data)
        tracer.close()
        assert path.read_text(encoding="utf-8") == "".join(
            json.dumps({"time": t, "category": c, "process": p, "data": d})
            + "\n" for t, c, p, d in records)

    def test_a_value_json_cannot_encode_is_stringified(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = JsonlTracer(str(path))
        entry = Entry(1, 7)
        tracer.record(1.0, "x", 0, nested={"at": entry}, keyed={(1, 2): 3},
                      plain=5)
        tracer.close()
        [line] = [json.loads(line) for line in path.read_text().splitlines()]
        assert line["data"]["nested"] == {"at": str(entry)}
        assert line["data"]["keyed"] == str({(1, 2): 3})
        assert line["data"]["plain"] == 5

    def test_a_respawn_cuts_the_torn_line_its_predecessor_left(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = JsonlTracer(str(path))
        tracer.record(1.0, "dep.stable", 0, inc=0, sii=2)
        tracer.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"time": 2.0, "categ')  # SIGKILL mid-write
        tracer = JsonlTracer(str(path))
        tracer.record(3.0, "worker.respawn", 0)
        tracer.close()
        assert [json.loads(line)["time"]
                for line in path.read_text().splitlines()] == [1.0, 3.0]


class TestCutTornTail:
    """A respawn's tail cut reads back from the end, a block at a time."""

    def cut(self, path):
        """Run the cut on ``path``; the number of bytes it read."""
        read = [0]
        real_open = open

        class Counting:
            def __init__(self, fh):
                self._fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

            def read(self, size=-1):
                data = self._fh.read(size)
                read[0] += len(data)
                return data

            def __getattr__(self, name):
                return getattr(self._fh, name)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(clock_module, "open",
                          lambda *a, **k: Counting(real_open(*a, **k)),
                          raising=False)
            clock_module._cut_torn_tail(str(path))
        return read[0]

    def test_a_torn_line_longer_than_a_block_is_cut(self, tmp_path):
        path = tmp_path / "t.jsonl"
        intact = b'{"time": 1.0}\n{"time": 2.0}\n'
        torn = (b'{"time": 3.0, "data": "'
                + b"x" * (3 * clock_module._TAIL_BLOCK + 17))
        path.write_bytes(intact + torn)
        self.cut(path)
        assert path.read_bytes() == intact

    def test_a_file_without_a_newline_is_cut_to_nothing(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"y" * (clock_module._TAIL_BLOCK + 5))
        self.cut(path)
        assert path.read_bytes() == b""

    def test_an_intact_file_is_left_byte_identical(self, tmp_path):
        path = tmp_path / "t.jsonl"
        body = b"".join(b'{"time": %d}\n' % i for i in range(1000))
        path.write_bytes(body)
        before = path.stat().st_mtime_ns
        self.cut(path)
        assert path.read_bytes() == body
        assert path.stat().st_mtime_ns == before

    def test_an_empty_or_missing_file_is_left_alone(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self.cut(path)
        assert not path.exists()
        path.write_bytes(b"")
        self.cut(path)
        assert path.read_bytes() == b""

    def test_a_multi_megabyte_trace_is_not_read_whole(self, tmp_path):
        path = tmp_path / "t.jsonl"
        line = b'{"time": 1.0, "category": "dep.deliver", "data": {}}\n'
        with open(path, "wb") as fh:
            for _ in range(8 * 1024 * 1024 // len(line)):
                fh.write(line)
        size = path.stat().st_size
        assert size > 8_000_000
        assert self.cut(path) <= clock_module._TAIL_BLOCK
        assert path.stat().st_size == size
        path.write_bytes(path.read_bytes() + b'{"time": 2.0, "cat')
        assert self.cut(path) <= clock_module._TAIL_BLOCK
        assert path.stat().st_size == size
