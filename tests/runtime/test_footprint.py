"""What a process costs before it has anything to hold.

Two structures used to be allocated ahead of their information:

- every ``EntrySetTable`` began one n-wide incarnation block wide, so a
  failure-free process's ``iet`` — which nothing ever writes — held n
  slots of ``-1``;
- every control hop built a per-pair :class:`~repro.net.channel.Channel`,
  although over a latency model that does not draw it only ever answers
  ``now + delay``.

Now an empty table is zero-wide and grows on its first entry, and a
control hop over such a model makes no ``Channel``.  The per-pair
network those hops used to go through lives on here, in the test tree
only, as the reference the channel-free send must be indistinguishable
from.
"""

from typing import Dict, List
from unittest import mock

import pytest

from repro.core import columnar
from repro.failures.injector import CrashEvent, FailureSchedule
from repro.net.network import Network
from repro.runtime import harness as harness_module
from tests.helpers import build_sim

np = columnar.numpy_module()

BACKENDS = ["list"] + (["ndarray"] if np is not None else [])


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    """Pin the dense table backend for n = 64: lists when asked, numpy
    columns otherwise (numpy's threshold is n = 64)."""
    if request.param == "list":
        monkeypatch.setattr(columnar, "NP_MIN_N", 10 ** 9)
    return request.param


def _run(n, crashes=(), duration=30.0, **config):
    harness = build_sim(
        n=n, k=2, seed=7, rate=2.0, until=duration * 0.7,
        failures=FailureSchedule([CrashEvent(t, pid) for t, pid in crashes]),
        notify_interval=4.0, flush_interval=6.0, restart_delay=3.0,
        **config)
    harness.run(duration)
    return harness


def _backend_of(table):
    return "list" if isinstance(table._cols, list) else "ndarray"


# -- control hops -------------------------------------------------------------


def test_a_fixed_latency_control_hop_builds_no_channel():
    harness = _run(64)
    try:
        network = harness.network
        assert network.control_messages_sent > 1000
        # Not vacuous: application traffic still has its channels.
        assert any(not control for _src, _dst, control in network._channels)
        assert not [key for key in network._channels if key[2]]
    finally:
        harness.close()


# -- zero-wide tables ---------------------------------------------------------


def test_an_untouched_iet_holds_no_column(backend):
    harness = _run(64)
    try:
        for host in harness.hosts:
            iet, log = host.protocol.iet, host.protocol.log
            assert _backend_of(iet) == backend
            assert iet.version == 0
            assert iet.snapshot_columns().stride == 0
            assert len(iet._cols) == 0
            # ``log`` holds the process's own initial checkpoint at least.
            assert log.snapshot_columns().stride == 1
            assert len(log._cols) == 64
    finally:
        harness.close()


def test_a_crash_grows_each_iet_to_exactly_the_announced_incarnations(backend):
    # P5 fails twice: incarnations 0 and 1 end, so every iet that heard
    # both announcements is two blocks wide and holds just those entries.
    harness = _run(64, crashes=[(6.0, 5), (16.0, 5)], duration=40.0)
    try:
        crashed = harness.hosts[5].protocol
        announced = crashed.iet.snapshot_columns().rows()
        assert sorted(announced[5]) == [0, 1]
        assert not any(announced[pid] for pid in range(64) if pid != 5)
        for host in harness.hosts:
            iet = host.protocol.iet
            assert _backend_of(iet) == backend
            snap = iet.snapshot_columns()
            assert snap.rows() == announced
            assert snap.stride == 2
            assert len(iet._cols) == 2 * 64
    finally:
        harness.close()


# -- against the per-pair network it replaced ---------------------------------


class ChannelPerPairNetwork(Network):
    """The network before control hops stopped building channels: every
    control hop goes through its pair's ``Channel``, whatever the model."""

    def multicast_control(self, src, dsts, payload):
        self._check_pid(src)
        if dsts:
            self._check_pid(min(dsts))
            self._check_pid(max(dsts))
        self.control_messages_sent += len(dsts)
        engine = self.engine
        now = engine.now
        faults = self.faults
        solo = faults is not None or engine.steps_observed
        labelled = engine.wants_labels
        shared: Dict[float, List[int]] = {}
        for dst in dsts:
            label = (f"ctl:{src}->{dst}:{type(payload).__name__}"
                     if labelled else None)
            extra_delay, duplicate = 0.0, False
            if faults is not None:
                decision = faults.decide(src, dst, control=True)
                if decision.drop:
                    self._count_drop(decision, control=True, src=src, dst=dst,
                                     what=str(payload))
                    continue
                extra_delay, duplicate = decision.extra_delay, decision.duplicate
            channel = self._channel(src, dst, control=True)
            arrival = channel.arrival_time(now, 0) + extra_delay
            if solo:
                self._deliver_at(arrival, src, (dst,), payload, label=label)
                if duplicate:
                    self.duplicates_injected += 1
                    self._deliver_at(channel.arrival_time(now, 0), src, (dst,),
                                     payload,
                                     label=f"dup:{label}" if label else None)
            elif arrival in shared:
                shared[arrival].append(dst)
            else:
                shared[arrival] = [dst]
        for arrival, members in shared.items():
            self._deliver_at(arrival, src, members, payload)


def _observe(network_cls, **config):
    with mock.patch.object(harness_module, "Network", network_cls):
        harness = _run(12, crashes=[(9.5, 3), (14.0, 8)], duration=40.0,
                       **config)
    try:
        return {
            "trace": [(e.time, e.category, e.process,
                       repr(sorted(e.data.items())))
                      for e in harness.tracer.events],
            "events_executed": harness.engine.events_executed,
            "control_messages_sent": harness.network.control_messages_sent,
            "rng": {name: stream.random()
                    for name, stream in harness.rngs._streams.items()},
            "violations": list(harness.violations),
            "control_channels": sum(
                1 for key in harness.network._channels if key[2]),
        }
    finally:
        harness.close()


@pytest.mark.parametrize("config", [
    {},
    {"fifo": True},
    {"drop_rate": 0.08, "duplicate_rate": 0.1, "reorder_rate": 0.1,
     "retransmit_timeout": 4.0},
    {"drop_rate": 0.05, "duplicate_rate": 0.05, "retransmit_timeout": 4.0,
     "fifo": True, "notify_fanout": 3},
], ids=["reliable", "reliable-fifo", "lossy", "lossy-fifo-fanout"])
def test_no_control_channel_is_indistinguishable_from_one_per_pair(config):
    channel_free = _observe(Network, **config)
    reference = _observe(ChannelPerPairNetwork, **config)
    assert reference.pop("control_channels") > 0
    assert channel_free.pop("control_channels") == 0
    assert channel_free["control_messages_sent"] > 100
    assert channel_free["trace"]
    for key in reference:
        assert channel_free[key] == reference[key], key
