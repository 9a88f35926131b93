"""``backplane.Worker`` in process, over a loopback in place of TCP.

The worker is a thin driver: it decodes a frame and calls the shared
:class:`~repro.runtime.host.ProcessHost`.  Two things are pinned here
without spawning an OS process: every frame type reaches the one host
method it names, and a serve-hosted node accepts the checker's effect
probes — the write-ahead rule holds on the real file journals under a
run that commits outputs.
"""

import json
import os

import pytest

from repro.backplane.codec import encode_app, encode_control
from repro.backplane.framing import FramingError
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


class Loopback:
    """Stands in for the coordinator: frames the workers write are decoded
    and routed to the destination worker's ``dispatch``."""

    def __init__(self):
        self.workers = {}
        self.queue = []
        self.frames = []

    def writer_for(self, pid):
        loopback = self

        class Writer:
            def write(self, data):
                frame = json.loads(data[4:].decode("utf-8"))
                loopback.frames.append(frame)
                loopback.queue.append((pid, frame))

        return Writer()

    def pump(self):
        while self.queue:
            src, frame = self.queue.pop(0)
            if frame["t"] == "status":
                continue
            targets = ([pid for pid in self.workers if pid != src]
                       if frame["dst"] == -1 else [frame["dst"]])
            for pid in targets:
                self.workers[pid].dispatch(frame, None)


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
        recovering = worker.build_host(
            clock, CoordinatorTransport(loopback.writer_for(pid)))
        assert not recovering
        loopback.workers[pid] = worker
    yield loopback
    for worker in loopback.workers.values():
        worker.host.protocol.storage.close()
        worker.tracer.close()


def test_every_frame_type_reaches_its_host_method(fleet):
    worker = fleet.workers[0]
    host, calls = worker.host, []
    for name in ("incoming", "inject", "flush", "notify", "checkpoint"):
        setattr(host, name,
                lambda *args, _name=name: calls.append((_name,) + args))
    msg = make_msg(1, 0, n=N)
    announcement = make_announcement(1, 0, 3)
    writer = fleet.writer_for(0)
    worker.dispatch({"t": "app", "msg": encode_app(msg)}, writer)
    worker.dispatch({"t": "ctl", "body": encode_control(announcement)}, writer)
    worker.dispatch({"t": "cmd", "op": "inject", "seq": 9,
                     "payload": {"tag": "t1", "hops": 0}}, writer)
    for op in ("flush", "notify", "checkpoint"):
        worker.dispatch({"t": "cmd", "op": op}, writer)
    assert [call[0] for call in calls] == [
        "incoming", "incoming", "inject", "flush", "notify", "checkpoint"]
    assert calls[0][1].msg_id == msg.msg_id
    assert calls[1][1] == announcement
    assert calls[2][1:] == ({"tag": "t1", "hops": 0}, 9)

    worker.dispatch({"t": "cmd", "op": "status", "rid": 4}, writer)
    status = fleet.frames[-1]
    assert status["t"] == "status" and status["rid"] == 4
    assert status["quiescent"] is True
    worker.dispatch({"t": "cmd", "op": "shutdown"}, writer)
    assert worker._shutdown.is_set()
    for frame in ({"t": "nope"}, {"t": "cmd", "op": "nope"}):
        with pytest.raises(FramingError):
            worker.dispatch(frame, writer)


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
             "payload": {"tag": f"t{seq}", "hops": 2}}, None)
        fleet.pump()
    for _ in range(3):
        for op in ("flush", "notify"):
            for worker in fleet.workers.values():
                worker.dispatch({"t": "cmd", "op": op}, None)
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
         "payload": {"tag": "t99", "hops": 0}}, None)
    broken.flush()
    assert [v for v in probes.violations if "write-ahead violated: P0" in v]
