"""Property tests for the unreliable-network fault model.

Two contracts the simulator's determinism story rests on:

- the fault pattern is a pure function of the seed and the per-channel
  stream names: the same seed reproduces the exact drop/duplicate/reorder
  decisions on every channel, independent of evaluation order across
  channels;
- the fault-free path draws **zero** RNG: attaching a fault model with
  all rates at zero perturbs nothing (so enabling the fault machinery
  cannot change a reliable run's schedule).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.faults import ChannelFaults, FaultDecision, NetworkFaultModel
from repro.sim.rng import Draws, RngRegistry

rates = st.floats(0.05, 0.9)
seeds = st.integers(0, 2 ** 32 - 1)


def decisions(model, pairs, control=False, per_pair=20):
    return {
        (src, dst): [model.decide(src, dst, control) for _ in range(per_pair)]
        for src, dst in pairs
    }


class TestSeedDeterminism:
    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, drop=rates, duplicate=rates, reorder=rates)
    def test_same_seed_identical_decisions_per_channel(
        self, seed, drop, duplicate, reorder
    ):
        faults = ChannelFaults(drop=drop, duplicate=duplicate, reorder=reorder)
        pairs = [(0, 1), (1, 0), (2, 3), (0, 3)]
        a = decisions(NetworkFaultModel(RngRegistry(seed), faults), pairs)
        b = decisions(NetworkFaultModel(RngRegistry(seed), faults), pairs)
        assert a == b

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, drop=rates)
    def test_channel_streams_are_independent_of_order(self, seed, drop):
        # Interleaving decisions across channels must not change any
        # channel's own sequence: each channel draws from its own stream.
        faults = ChannelFaults(drop=drop)
        pairs = [(0, 1), (1, 0)]
        sequential = decisions(
            NetworkFaultModel(RngRegistry(seed), faults), pairs, per_pair=10)
        interleaved_model = NetworkFaultModel(RngRegistry(seed), faults)
        interleaved = {pair: [] for pair in pairs}
        for _ in range(10):
            for pair in pairs:
                interleaved[pair].append(
                    interleaved_model.decide(pair[0], pair[1], False))
        assert sequential == interleaved

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds)
    def test_app_and_control_streams_are_distinct(self, seed):
        # The stream name includes the traffic class, so app and control
        # decisions on the same channel never share draws.
        registry = RngRegistry(seed)
        app = Draws(registry.key("faults/0->1/app"))
        ctl = Draws(registry.key("faults/0->1/ctl"))
        assert ([app.random() for _ in range(5)]
                != [ctl.random() for _ in range(5)])


class TestFaultFreePathDrawsNoRng:
    @settings(max_examples=20, deadline=None)
    @given(seed=seeds)
    def test_zero_rates_never_touch_streams(self, seed):
        registry = RngRegistry(seed)
        model = NetworkFaultModel(registry, ChannelFaults())
        for _ in range(25):
            for src, dst in ((0, 1), (1, 2), (2, 0)):
                assert model.decide(src, dst, False) == FaultDecision()
                assert model.decide(src, dst, True) == FaultDecision()
        # No per-channel fault stream was ever made, let alone advanced.
        assert model._draws == {}

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_partition_drop_draws_no_rng(self, seed):
        registry = RngRegistry(seed)
        model = NetworkFaultModel(registry,
                                  ChannelFaults(drop=0.5, duplicate=0.5))
        model.start_partition(((0,),), now=1.0)
        for _ in range(25):
            decision = model.decide(0, 1, False)
            assert decision.drop and decision.partition_drop
        model.heal(now=2.0)
        # Partitioned transmissions short-circuit before the stream; the
        # first post-heal decision matches a fresh model's first decision.
        after = model.decide(0, 1, False)
        fresh = NetworkFaultModel(RngRegistry(seed),
                                  ChannelFaults(drop=0.5, duplicate=0.5))
        assert after == fresh.decide(0, 1, False)
