"""The coordinator's routing and supervision, against fake workers on TCP.

A fake worker is a bare socket that says hello and then reads or writes
frames by hand, so each test controls exactly which bytes reach the
coordinator.  Pinned here: the coordinator routes ``app`` / ``ctl`` frames
on their header and forwards the bytes it read unchanged; each
destination's stream is FIFO across forwarded frames, the coordinator's
own commands and control frames parked while the destination was down;
and a run names, in its failures, a worker connection the coordinator did
not end and a settle that never went quiescent.
"""

import asyncio
import json
import os
import struct

from repro.backplane import coordinator as coordinator_module
from repro.backplane.coordinator import Coordinator, ServePlan
from repro.backplane.framing import (
    HEADER_SIZE,
    KIND_APP,
    KIND_CTL,
    encode_frame,
    read_frame,
    write_frame,
)

HEADER = struct.Struct(">IBh")
N = 3


def raw(kind, dst, body):
    """A frame built by hand: the body bytes exactly as given."""
    return HEADER.pack(len(body), kind, dst) + body


async def started(tmp_path, **plan):
    coordinator = Coordinator(ServePlan(n=N, run_dir=str(tmp_path), **plan))
    coordinator.hello_events = {pid: asyncio.Event() for pid in range(N)}
    server = await asyncio.start_server(coordinator._accept, "127.0.0.1", 0)
    return coordinator, server, server.sockets[0].getsockname()[1]


async def connect(coordinator, port, pid):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    write_frame(writer, {"t": "hello", "pid": pid, "recovered": False})
    await writer.drain()
    await asyncio.wait_for(coordinator.hello_events[pid].wait(), 5.0)
    return reader, writer


async def read_raw(reader):
    header = await asyncio.wait_for(reader.readexactly(HEADER_SIZE), 5.0)
    return header + await reader.readexactly(HEADER.unpack(header)[0])


async def until(predicate):
    for _ in range(500):
        if predicate():
            return
        await asyncio.sleep(0.01)
    raise AssertionError("condition never held")


async def shut(coordinator, server, *writers):
    """End the run as the coordinator would: every connection it still
    holds is one it ends itself."""
    for conn in coordinator.conns.values():
        conn.closing = True
    for writer in writers:
        writer.close()
    await until(lambda: not coordinator.conns)
    server.close()
    await server.wait_closed()


def test_forwarded_frames_arrive_byte_identical(tmp_path):
    async def go():
        coordinator, server, port = await started(tmp_path)
        fakes = [await connect(coordinator, port, pid) for pid in range(N)]
        # Whitespace and escapes a re-encode would normalise away.
        app = raw(KIND_APP, 1,
                  b'{"t": "app",  "dst": 1, "msg": {"x": "\\u00e9"}}')
        ctl = raw(KIND_CTL, -1, b'{"t":"ctl","src":0,"dst":-1,'
                                b'"body":["req", 0,  true]}')
        fakes[0][1].write(app + ctl)
        await fakes[0][1].drain()
        assert [await read_raw(fakes[1][0]), await read_raw(fakes[1][0])] \
            == [app, ctl]
        assert await read_raw(fakes[2][0]) == ctl
        await shut(coordinator, server, *(w for _r, w in fakes))
        return coordinator

    coordinator = asyncio.run(go())
    assert coordinator.app_frames_dropped == 0


def test_each_destination_is_fifo_across_forwards_commands_and_parking(
        tmp_path):
    def ctl(kind, origin, tag):
        # The codec's flat form: the kind, then the origin.
        return encode_frame({"t": "ctl", "src": origin, "dst": 2,
                             "body": [kind, origin, tag]})

    async def go():
        coordinator, server, port = await started(tmp_path)
        fakes = {pid: await connect(coordinator, port, pid) for pid in (0, 1)}
        sender = fakes[0][1]
        # P2 is down: announcements park in order, log notifications keep
        # the latest per origin, and an app frame is dropped.
        sender.write(ctl("ann", 0, "a1") + ctl("log", 0, "l-old")
                     + ctl("ann", 1, "a2") + ctl("log", 0, "l-new")
                     + ctl("req", 0, "hint") + encode_frame(
                         {"t": "app", "dst": 2, "msg": {}}))
        await sender.drain()
        await until(lambda: len(coordinator.parked_ann.get(2, [])) == 2
                    and coordinator.app_frames_dropped == 1)
        reader, writer = await connect(coordinator, port, 2)
        conn = coordinator.conns[2]
        coordinator._forward(2, encode_frame({"t": "app", "dst": 2,
                                              "msg": {"n": 1}}))
        await conn.send({"t": "cmd", "op": "flush"})
        coordinator._forward(2, encode_frame({"t": "app", "dst": 2,
                                              "msg": {"n": 2}}))
        await conn.send({"t": "cmd", "op": "notify"})
        got = []
        for _ in range(7):
            frame = await asyncio.wait_for(read_frame(reader), 5.0)
            got.append(frame["body"][2] if "body" in frame
                       else frame.get("op") or frame["msg"]["n"])
        await shut(coordinator, server, writer,
                   *(w for _r, w in fakes.values()))
        return got

    assert asyncio.run(go()) == ["a1", "a2", "l-new", 1, "flush", 2, "notify"]


def test_a_worker_connection_the_coordinator_did_not_end_is_a_failure(
        tmp_path):
    async def go():
        coordinator, server, port = await started(tmp_path)
        fakes = {pid: await connect(coordinator, port, pid) for pid in range(N)}
        # P0: killed behind the coordinator's back (EOF at a frame boundary).
        fakes[0][1].close()
        # P1: dies in the middle of a frame's body.
        fakes[1][1].write(HEADER.pack(100, KIND_APP, 2) + b'{"t":"app"')
        await fakes[1][1].drain()
        fakes[1][1].close()
        # P2: ended by the coordinator itself (crash injection, shutdown).
        coordinator.conns[2].closing = True
        fakes[2][1].close()
        await until(lambda: not coordinator.conns)
        await shut(coordinator, server)
        return coordinator

    coordinator = asyncio.run(go())
    assert sorted(coordinator.failures) == [
        "unexpected exit of worker P0: EOF",
        "unexpected exit of worker P1: framing error: "
        "connection died mid-frame",
    ]
    assert coordinator.down == {0, 1, 2}


def test_a_worker_killed_behind_the_coordinators_back_fails_the_run(
        tmp_path, monkeypatch):
    """Real worker processes; the test, not the coordinator, SIGKILLs one.
    Nothing respawns it, so settling cannot finish either."""
    monkeypatch.setattr(coordinator_module, "SETTLE_ROUNDS", 2)
    plan = ServePlan(n=2, k=1, duration=40.0, rate=0.5, timescale=0.005,
                     run_dir=str(tmp_path))

    async def go():
        coordinator = Coordinator(plan)
        running = asyncio.ensure_future(coordinator.run())
        for _ in range(3000):
            if len(coordinator.conns) == 2 or running.done():
                break
            await asyncio.sleep(0.01)
        coordinator.procs[1].kill()
        return await running

    report = asyncio.run(go())
    assert not report.ok
    assert [f for f in report.failures
            if f.startswith("unexpected exit of worker P1: ")], report.failures
    assert "settle: not quiescent after 2 rounds" in report.failures


def test_a_settle_that_never_goes_quiescent_is_a_failure(tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(coordinator_module, "SETTLE_ROUNDS", 2)

    async def busy_worker(reader, writer, pid):
        while True:
            frame = await read_frame(reader)
            if frame is None:
                return
            if frame.get("op") == "status":
                write_frame(writer, {"t": "status", "rid": frame["rid"],
                                     "pid": pid, "quiescent": False,
                                     "deliveries": 1})
                await writer.drain()

    async def go():
        coordinator, server, port = await started(
            tmp_path, timescale=0.001)
        fakes = [await connect(coordinator, port, pid) for pid in range(N)]
        tasks = [asyncio.ensure_future(busy_worker(r, w, pid))
                 for pid, (r, w) in enumerate(fakes)]
        deliveries = await coordinator._settle()
        for task in tasks:
            task.cancel()
        await shut(coordinator, server, *(w for _r, w in fakes))
        return coordinator, deliveries

    coordinator, deliveries = asyncio.run(go())
    assert deliveries == 0
    assert coordinator.failures == ["settle: not quiescent after 2 rounds"]


def test_repro_serve_exits_nonzero_on_a_named_failure(tmp_path, monkeypatch,
                                                     capsys):
    """Clean traces are not enough: a named failure fails the run."""
    from repro import __main__ as cli
    from repro.backplane import coordinator as module

    report = module.ServeReport(
        run_dir=str(tmp_path), ok=False, violations=[], committed=[],
        injected=4, app_frames_dropped=0, crashes=0, wall_seconds=1.0,
        deliveries=9, failures=["unexpected exit of worker P0: EOF"])
    monkeypatch.setattr(module, "run_serve", lambda plan: report)
    assert cli.main(["serve", "--n", "2", "--run-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "unexpected exit of worker P0: EOF" in out
    assert "certified" not in out


def test_a_malformed_trace_record_fails_the_run_with_a_report(
        tmp_path, monkeypatch, capsys):
    """A damaged ``dep.*`` record ends ``repro serve`` with a report that
    names it and exit 1, not with a traceback and no report."""
    from repro import __main__ as cli

    async def fake_worker(port, pid, run_dir):
        with open(os.path.join(run_dir, "trace", f"p{pid:03d}.jsonl"), "w",
                  encoding="utf-8") as fh:
            fh.write(json.dumps({"time": 1.5, "category": "dep.stable",
                                 "process": pid, "data": {"inc": 0}}) + "\n")
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        write_frame(writer, {"t": "hello", "pid": pid, "recovered": False})
        await writer.drain()
        while True:
            frame = await read_frame(reader)
            if frame is None or frame.get("op") == "shutdown":
                break
            if frame.get("op") == "status":
                write_frame(writer, {"t": "status", "rid": frame["rid"],
                                     "pid": pid, "quiescent": True,
                                     "deliveries": 0})
                await writer.drain()
        writer.close()

    def spawn(self, pid):
        port = self._server.sockets[0].getsockname()[1]
        asyncio.ensure_future(fake_worker(port, pid, self.run_dir))

    monkeypatch.setattr(Coordinator, "_spawn", spawn)
    code = cli.main(["serve", "--n", "2", "--duration", "2", "--rate", "1",
                     "--timescale", "0.001", "--run-dir", str(tmp_path)])
    expected = [f"malformed dep.stable record at P{pid}, t=1.5: KeyError "
                f"'sii'" for pid in range(2)]
    with open(tmp_path / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    assert code == 1
    assert report["violations"] == expected and not report["ok"]
    assert expected[0] in capsys.readouterr().out
