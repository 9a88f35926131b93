"""Unit tests for the network layer."""

import pytest

from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.net.channel import FixedLatency, UniformLatency
from repro.net.message import AppMessage, FailureAnnouncement
from repro.net.network import Network
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.types import MessageId


def make_net(n=3, latency=None, fifo=False):
    engine = Engine()
    net = Network(n, engine, RngRegistry(0),
                  latency=latency or FixedLatency(1.0), fifo=fifo)
    return engine, net


def app_msg(src, dst, n=3, entries=None):
    return AppMessage(
        msg_id=MessageId(src, 0, 1, 0),
        src=src, dst=dst, payload={},
        tdv=DependencyVector(n, entries or {}),
        send_interval=Entry(0, 1),
    )


class TestTransmission:
    def test_app_message_arrives_at_hook(self):
        engine, net = make_net()
        inbox = []
        net.register(1, inbox.append)
        msg = app_msg(0, 1)
        net.send_app(msg)
        engine.run()
        assert inbox == [msg]

    def test_arrival_respects_latency(self):
        engine, net = make_net(latency=FixedLatency(5.0))
        times = []
        net.register(1, lambda m: times.append(engine.now))
        net.send_app(app_msg(0, 1))
        engine.run()
        assert times == [5.0]

    def test_piggyback_entries_add_latency(self):
        engine, net = make_net(latency=UniformLatency(1.0, 1.0, per_entry=1.0))
        times = []
        net.register(1, lambda m: times.append(engine.now))
        net.send_app(app_msg(0, 1, entries={0: Entry(0, 1), 2: Entry(0, 2)}))
        engine.run()
        assert times == [3.0]

    def test_missing_hook_raises(self):
        engine, net = make_net()
        net.send_app(app_msg(0, 1))
        with pytest.raises(RuntimeError):
            engine.run()

    def test_pid_bounds(self):
        _engine, net = make_net()
        with pytest.raises(IndexError):
            net.send_app(app_msg(0, 7, n=3))


class TestBroadcast:
    def test_control_broadcast_excludes_sender(self):
        engine, net = make_net()
        received = {pid: [] for pid in range(3)}
        for pid in range(3):
            net.register(pid, received[pid].append)
        ann = FailureAnnouncement(0, Entry(0, 3))
        net.broadcast_control(0, ann)
        engine.run()
        assert received[0] == []
        assert received[1] == [ann]
        assert received[2] == [ann]
        assert net.control_messages_sent == 2


class TestStatistics:
    def test_mean_piggyback(self):
        engine, net = make_net()
        net.register(1, lambda m: None)
        net.send_app(app_msg(0, 1, entries={0: Entry(0, 1)}))
        net.send_app(app_msg(0, 1, entries={0: Entry(0, 1), 2: Entry(0, 2),
                                            1: Entry(0, 3)}))
        engine.run()
        assert net.app_messages_sent == 2
        assert net.mean_piggyback_entries() == 2.0

    def test_mean_piggyback_empty(self):
        _engine, net = make_net()
        assert net.mean_piggyback_entries() == 0.0
