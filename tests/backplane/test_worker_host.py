"""``backplane.Worker`` in process, over a loopback in place of TCP.

The worker is a thin driver: it decodes a frame and calls the shared
:class:`~repro.runtime.host.ProcessHost`.  Two things are pinned here
without spawning an OS process: every frame type reaches the one host
method it names, and a serve-hosted node accepts the checker's effect
probes — the write-ahead rule holds on the real file journals under a
run that commits outputs.  The loopback reads the wire format itself (the
7-byte header and the batches an outbox writes), so the transport's
framing and its one-write-per-turn outbox are pinned here too.
"""

import json
import os
import struct

import pytest

from repro.backplane.codec import encode_app, encode_control
from repro.backplane.framing import HEADER_SIZE, KIND_APP, KIND_CTL, FramingError
from repro.backplane.worker import CoordinatorTransport, Worker
from repro.check.probes import ProbeSet
from repro.storage.filelog import FileLogBackend
from helpers import make_announcement, make_msg

N = 2


class ManualClock:
    """``now`` / ``schedule`` the test advances by hand (timers parked)."""

    def __init__(self):
        self.now = 0.0
        self.timers = []

    def schedule(self, delay, callback, label=None):
        self.timers.append((self.now + delay, callback))
        return self

    def cancel(self):
        pass


HEADER = struct.Struct(">IBh")


class Loopback:
    """Stands in for the coordinator: it parses what the workers write —
    one batch of frames per write — and routes each frame on its header to
    the destination worker's ``dispatch``.  The callbacks the transports
    schedule with ``call_soon`` run at :meth:`end_turn`, the end of a turn
    of the event loop."""

    def __init__(self):
        self.workers = {}
        self.queue = []
        self.frames = []
        self.writes = []
        self.soon = []

    def writer_for(self, pid):
        loopback = self

        class Writer:
            def write(self, data):
                loopback.writes.append((pid, data))
                while data:
                    length, kind, dst = HEADER.unpack_from(data)
                    end = HEADER_SIZE + length
                    frame = json.loads(data[HEADER_SIZE:end].decode("utf-8"))
                    loopback.frames.append(frame)
                    loopback.queue.append((pid, kind, dst, frame))
                    data = data[end:]

        return Writer()

    def transport_for(self, pid):
        return CoordinatorTransport(self.writer_for(pid), self.soon.append)

    def end_turn(self):
        while self.soon:
            self.soon.pop(0)()

    def pump(self):
        self.end_turn()
        while self.queue:
            src, kind, dst, frame = self.queue.pop(0)
            if kind not in (KIND_APP, KIND_CTL):
                continue
            assert dst == frame["dst"]
            targets = ([pid for pid in self.workers if pid != src]
                       if dst == -1 else [dst])
            for pid in targets:
                self.workers[pid].dispatch(frame)
            self.end_turn()


@pytest.fixture
def fleet(tmp_path):
    """N in-process workers over one run directory, booted."""
    for sub in ("storage", "trace"):
        os.makedirs(tmp_path / sub)
    (tmp_path / "run.json").write_text(json.dumps({
        "n": N, "k": 1, "seed": 3, "timescale": 0.001, "port": 0,
        "behavior": "hopchain"}))
    loopback, clock = Loopback(), ManualClock()
    for pid in range(N):
        worker = Worker(pid, str(tmp_path))
        recovering = worker.build_host(clock, loopback.transport_for(pid))
        assert not recovering
        loopback.workers[pid] = worker
    yield loopback
    for worker in loopback.workers.values():
        worker.host.protocol.storage.close()
        worker.tracer.close()


def test_every_frame_type_reaches_its_host_method(fleet):
    worker = fleet.workers[0]
    host, calls = worker.host, []
    for name in ("incoming", "inject", "flush", "notify"):
        setattr(host, name,
                lambda *args, _name=name: calls.append((_name,) + args))
    msg = make_msg(1, 0, n=N)
    announcement = make_announcement(1, 0, 3)
    worker.dispatch({"t": "app", "msg": encode_app(msg)})
    worker.dispatch({"t": "ctl", "body": encode_control(announcement)})
    worker.dispatch({"t": "cmd", "op": "inject", "seq": 9,
                     "payload": {"tag": "t1", "hops": 0}})
    for op in ("flush", "notify"):
        worker.dispatch({"t": "cmd", "op": op})
    assert [call[0] for call in calls] == [
        "incoming", "incoming", "inject", "flush", "notify"]
    assert calls[0][1].msg_id == msg.msg_id
    assert calls[1][1] == announcement
    assert calls[2][1:] == ({"tag": "t1", "hops": 0}, 9)

    worker.dispatch({"t": "cmd", "op": "status", "rid": 4})
    fleet.end_turn()
    status = fleet.frames[-1]
    assert status["t"] == "status" and status["rid"] == 4
    assert status["quiescent"] is True
    worker.dispatch({"t": "cmd", "op": "shutdown"})
    assert worker._shutdown.is_set()
    for frame in ({"t": "nope"}, {"t": "cmd", "op": "nope"},
                  {"t": "cmd", "op": "checkpoint"}):
        with pytest.raises(FramingError):
            worker.dispatch(frame)


def test_write_ahead_probe_is_silent_on_a_serve_hosted_run(fleet):
    probes = ProbeSet()
    for worker in fleet.workers.values():
        assert isinstance(worker.host.protocol.storage, FileLogBackend)
        worker.host.effect_probes.append(probes.write_ahead)
        worker.host.boot()
    # Hop-chain tokens that cross between the two workers before they
    # emit, then flush/notify rounds until every output is committed.
    for seq in range(6):
        fleet.workers[seq % N].dispatch(
            {"t": "cmd", "op": "inject", "seq": seq,
             "payload": {"tag": f"t{seq}", "hops": 2}})
        fleet.pump()
    for _ in range(3):
        for op in ("flush", "notify"):
            for worker in fleet.workers.values():
                worker.dispatch({"t": "cmd", "op": op})
            fleet.pump()
    hosts = [worker.host for worker in fleet.workers.values()]
    assert sum(h.protocol.stats.outputs_committed for h in hosts) == 6
    assert sum(h.protocol.storage.sync_writes for h in hosts) > 6
    assert all(h.quiescent() for h in hosts)
    assert probes.violations == []

    # The probe is live, not vacuous: a host that skips the barrier trips it.
    broken = hosts[0]
    broken.executor.storage = type(
        "NoBarrier", (), {"barrier": lambda self: None})()
    fleet.workers[0].dispatch(
        {"t": "cmd", "op": "inject", "seq": 99,
         "payload": {"tag": "t99", "hops": 0}})
    broken.flush()
    assert [v for v in probes.violations if "write-ahead violated: P0" in v]


def test_the_outbox_leaves_as_one_write_per_turn_in_send_order(fleet):
    transport = fleet.workers[0].transport
    sent = [{"t": "ctl", "src": 0, "dst": 1, "body": {"kind": "req",
                                                       "origin": i}}
            for i in range(5)]
    for frame in sent[:3]:
        transport.send_frame(frame)
    assert fleet.writes == [] and len(fleet.soon) == 1
    fleet.end_turn()
    for frame in sent[3:]:
        transport.send_frame(frame)
    fleet.end_turn()
    fleet.end_turn()  # an empty turn writes nothing
    assert [len(data) > 0 for _pid, data in fleet.writes] == [True, True]
    assert fleet.frames == sent
    assert [dst for _src, _kind, dst, _frame in fleet.queue] == [1] * 5
