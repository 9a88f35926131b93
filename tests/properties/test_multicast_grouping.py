"""The grouped control send against the per-destination loop it replaced.

``Network.multicast_control`` schedules one arrival record per distinct
arrival time, carrying the destination list.  The loop it replaced — one
transmission and one engine record per destination — lives on here, in the
test tree only, as the reference: hypothesis drives whole simulated runs
through both networks and requires that nothing observable differs — the
full trace, ``events_executed``, ``control_messages_sent`` and the next
draw of every rng stream; under a tie-breaker also every candidate list
the chooser was offered (order and labels), so the explorer loses no
choice point.
"""

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.failures.injector import CrashEvent, FailureSchedule
from repro.net.channel import LatencyModel
from repro.net.network import Network
from repro.runtime import harness as harness_module
from repro.runtime.config import SimConfig
from repro.runtime.harness import SimulationHarness
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.workloads.random_peers import RandomPeersWorkload
from tests.helpers import next_draws

# -- the reference: every destination its own transmission ----------------------


class PerDestinationNetwork(Network):
    """The pre-grouping network: a multicast is a ``send_control`` loop,
    so every destination gets its own record (consecutive sequence
    numbers, same fault decisions and channel draws in the same order)."""

    def multicast_control(self, src, dsts, payload):
        for dst in dsts:
            super().multicast_control(src, (dst,), payload)


class SteppedLatency(LatencyModel):
    """Jitter on a coarse grid, so that some — not all — of one tick's
    arrivals coincide."""

    def delay(self, rng, piggyback_entries=0):
        return (0.5, 1.0, 1.0, 1.5)[rng.randrange(4)]


# -- driving one run -------------------------------------------------------------


class RecordingChooser:
    """A seeded tie-breaker that logs every candidate list it is offered."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.offered = []

    def __call__(self, candidates):
        self.offered.append([(c.time, c.label) for c in candidates])
        return self.rng.randrange(len(candidates))


def run(network_cls, config, crashes, jittered, chooser_seed, step_probe):
    workload = RandomPeersWorkload(rate=1.5)
    with mock.patch.object(harness_module, "Network", network_cls):
        harness = SimulationHarness(
            config, workload.behavior(),
            failures=FailureSchedule([CrashEvent(t, pid) for t, pid in crashes]))
    try:
        if jittered:
            # Before the first control channel exists (channels are made
            # on first use and keep the model they were made with).
            assert not harness.network._channels
            harness.network._control_latency = SteppedLatency()
        chooser = None
        if chooser_seed is not None:
            chooser = RecordingChooser(chooser_seed)
            harness.engine.set_tie_breaker(chooser)
        steps = []
        if step_probe:
            harness.add_step_probe(
                lambda h: steps.append((h.engine.now, h.engine.events_executed)))
        workload.install(harness, until=30.0)
        harness.run(40.0)
        return {
            "trace": [(e.time, e.category, e.process, repr(sorted(e.data.items())))
                      for e in harness.tracer.events],
            "events_executed": harness.engine.events_executed,
            "control_messages_sent": harness.network.control_messages_sent,
            "rng": next_draws(harness.network),
            "offered": chooser.offered if chooser else None,
            "steps": steps,
            "violations": list(harness.violations),
            "scheduled": harness.engine._seq,
        }
    finally:
        harness.close()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2 ** 16),
    n=st.integers(3, 7),
    fifo=st.booleans(),
    jittered=st.booleans(),
    drop=st.sampled_from([0.0, 0.0, 0.08]),
    duplicate=st.sampled_from([0.0, 0.0, 0.1]),
    timeout=st.sampled_from([0.0, 0.0, 4.0]),
    fanout=st.sampled_from([None, None, 1, 2, 3]),
    chooser_seed=st.one_of(st.none(), st.integers(0, 99)),
    step_probe=st.booleans(),
    crash=st.booleans(),
)
def test_grouped_send_is_indistinguishable_from_the_per_destination_loop(
        seed, n, fifo, jittered, drop, duplicate, timeout, fanout,
        chooser_seed, step_probe, crash):
    config = SimConfig(
        n=n, k=2, seed=seed, fifo=fifo, drop_rate=drop,
        duplicate_rate=duplicate, retransmit_timeout=timeout,
        notify_fanout=fanout,
        notify_interval=4.0, flush_interval=6.0,
        checkpoint_interval=15.0, restart_delay=3.0)
    crashes = [(12.5, seed % n)] if crash else []
    args = (config, crashes, jittered, chooser_seed, step_probe)
    grouped = run(Network, *args)
    reference = run(PerDestinationNetwork, *args)
    scheduled, reference_scheduled = (grouped.pop("scheduled"),
                                      reference.pop("scheduled"))
    for key in reference:
        assert grouped[key] == reference[key], key
    assert scheduled <= reference_scheduled


def test_the_comparison_is_not_vacuous():
    # On a clean broadcast run the two networks really do differ in how
    # many records they schedule, and notifications really do arrive.
    config = SimConfig(n=6, k=2, seed=5, notify_interval=4.0,
                       flush_interval=6.0)
    grouped = run(Network, config, [], False, None, False)
    reference = run(PerDestinationNetwork, config, [], False, None, False)
    assert grouped["control_messages_sent"] > 100
    assert grouped["scheduled"] < reference["scheduled"] * 0.6
    assert grouped["events_executed"] == reference["events_executed"]


# -- the grouping rule, on a bare network -----------------------------------------


def bare_network(n=5, export=None, control_latency=None, hosted=None):
    engine = Engine()
    network = Network(n, engine, RngRegistry(3), export=export,
                      control_latency=control_latency)
    arrived = []
    for pid in (range(n) if hosted is None else hosted):
        network.register(pid, lambda payload, pid=pid: arrived.append(
            (engine.now, pid, payload)))
    return engine, network, arrived


class TestGroupingRule:
    def test_one_record_per_distinct_arrival_time(self):
        engine, network, arrived = bare_network()
        network.multicast_control(0, [1, 2, 3, 4], "note")
        assert engine.pending == 1
        engine.run()
        assert arrived == [(1.0, pid, "note") for pid in (1, 2, 3, 4)]
        assert engine.events_executed == 4
        assert network.control_messages_sent == 4

        engine, network, arrived = bare_network(
            control_latency=SteppedLatency())
        network.multicast_control(0, [1, 2, 3, 4], "note")
        engine.run()
        times = {time for time, _pid, _payload in arrived}
        assert len(arrived) == 4 and engine._seq == len(times) < 4

    def test_broadcast_and_unicast_are_the_same_send(self):
        engine, network, arrived = bare_network()
        network.broadcast_control(2, "all")
        network.send_control(2, 0, "one")
        assert engine.pending == 2
        engine.run()
        assert [pid for _t, pid, p in arrived if p == "all"] == [0, 1, 3, 4]
        assert [pid for _t, pid, p in arrived if p == "one"] == [0]

    def test_a_tie_breaker_or_a_step_probe_keeps_every_arrival_apart(self):
        engine, network, _arrived = bare_network()
        engine.set_tie_breaker(lambda candidates: 0)
        network.multicast_control(0, [1, 2, 3], "note")
        assert engine.pending == 3
        labels = [record[4] for record in sorted(engine._queue)]
        assert labels == [f"ctl:0->{dst}:str" for dst in (1, 2, 3)]

        engine, network, _arrived = bare_network()
        engine.post_step = lambda: None
        network.multicast_control(0, [1, 2, 3], "note")
        assert engine.pending == 3

    def test_destinations_hosted_elsewhere_are_exported_one_by_one(self):
        exported = []
        engine, network, arrived = bare_network(
            export=lambda *entry: exported.append(entry), hosted=[0, 2, 4])
        network.multicast_control(0, [1, 2, 3, 4], "note")
        assert [(dst, payload) for _a, _src, dst, payload, _l in exported] == [
            (1, "note"), (3, "note")]
        assert engine.pending == 1
        engine.run()
        assert [pid for _t, pid, _p in arrived] == [2, 4]
        assert engine.events_executed == 2

    def test_out_of_range_destination_is_rejected_before_anything_is_sent(self):
        engine, network, _arrived = bare_network()
        with pytest.raises(IndexError):
            network.multicast_control(0, [1, 9], "note")
        assert engine.pending == 0 and network.control_messages_sent == 0
