"""Unit tests for the network fault model (loss, duplication, reordering,
partitions)."""

import pytest

from repro.net.faults import DELIVER, ChannelFaults, NetworkFaultModel
from repro.sim.rng import RngRegistry


def model(seed=0, **kwargs):
    return NetworkFaultModel(RngRegistry(seed), ChannelFaults(**kwargs))


class TestChannelFaults:
    def test_defaults_disabled(self):
        faults = ChannelFaults()
        assert not faults.any_enabled
        faults.validate()

    @pytest.mark.parametrize("field", ["drop", "duplicate", "reorder"])
    def test_rejects_out_of_range(self, field):
        with pytest.raises(ValueError):
            ChannelFaults(**{field: 1.5}).validate()
        with pytest.raises(ValueError):
            ChannelFaults(**{field: -0.1}).validate()

    def test_rejects_negative_spread(self):
        with pytest.raises(ValueError):
            ChannelFaults(reorder_spread=-1.0).validate()


class TestDecide:
    def test_no_faults_is_identity(self):
        # The fault-free decision is the shared DELIVER singleton and the
        # channel's fault draws are never made (determinism of legacy
        # runs depends on this).
        fm = model()
        assert fm.decide(0, 1, control=False) is DELIVER
        assert fm._draws == {}

    def test_certain_drop(self):
        fm = model(drop=1.0)
        for _ in range(5):
            decision = fm.decide(0, 1, control=False)
            assert decision.drop and not decision.partition_drop

    def test_certain_duplicate(self):
        fm = model(duplicate=1.0)
        decision = fm.decide(0, 1, control=False)
        assert decision.duplicate and not decision.drop

    def test_reorder_adds_bounded_delay(self):
        fm = model(reorder=1.0, reorder_spread=3.0)
        for _ in range(20):
            decision = fm.decide(0, 1, control=False)
            assert 0.0 <= decision.extra_delay <= 3.0

    def test_control_exempt_when_configured(self):
        fm = NetworkFaultModel(RngRegistry(0), ChannelFaults(drop=1.0),
                               apply_to_control=False)
        assert fm.decide(0, 1, control=True) is DELIVER
        assert fm.decide(0, 1, control=False).drop

    def test_deterministic_per_seed(self):
        decisions_a = [model(3, drop=0.3, duplicate=0.3).decide(0, 1, False)
                       for _ in range(1)]
        fm_a = model(3, drop=0.3, duplicate=0.3, reorder=0.3)
        fm_b = model(3, drop=0.3, duplicate=0.3, reorder=0.3)
        seq_a = [fm_a.decide(0, 1, control=False) for _ in range(50)]
        seq_b = [fm_b.decide(0, 1, control=False) for _ in range(50)]
        assert seq_a == seq_b

    def test_channels_draw_independent_streams(self):
        fm = model(5, drop=0.5)
        # Draining one channel's decisions must not change another's.
        fm_ref = model(5, drop=0.5)
        for _ in range(25):
            fm.decide(0, 1, control=False)
        a = [fm.decide(2, 3, control=False).drop for _ in range(25)]
        b = [fm_ref.decide(2, 3, control=False).drop for _ in range(25)]
        assert a == b

    def test_overrides_take_precedence(self):
        fm = NetworkFaultModel(
            RngRegistry(0), ChannelFaults(),
            overrides={(0, 1): ChannelFaults(drop=1.0)},
        )
        assert fm.decide(0, 1, control=False).drop
        assert fm.decide(1, 0, control=False) is DELIVER


class TestRates:
    def test_set_rates_partial_update(self):
        fm = model(drop=0.1, duplicate=0.2)
        fm.set_rates(drop=0.5)
        assert fm.default.drop == 0.5
        assert fm.default.duplicate == 0.2

    def test_set_rates_validates(self):
        with pytest.raises(ValueError):
            model().set_rates(drop=2.0)


class TestPartitions:
    def test_partitioned_islands_and_mainland(self):
        fm = model()
        fm.start_partition(((2, 3),), now=10.0)
        assert fm.partition_active
        assert fm.partitioned(0, 2)
        assert fm.partitioned(2, 1)
        assert not fm.partitioned(2, 3)  # same island
        assert not fm.partitioned(0, 1)  # both on the implicit mainland

    def test_partition_drop_decision(self):
        fm = model()
        fm.start_partition(((1,),), now=0.0)
        decision = fm.decide(0, 1, control=True)
        assert decision.drop and decision.partition_drop

    def test_heal_accumulates_time(self):
        fm = model()
        fm.start_partition(((1,),), now=10.0)
        fm.heal(now=35.0)
        assert fm.partition_time == 25.0
        assert not fm.partition_active
        fm.heal(now=99.0)  # idempotent
        assert fm.partition_time == 25.0

    def test_new_partition_replaces_old(self):
        fm = model()
        fm.start_partition(((1,),), now=0.0)
        fm.start_partition(((2,),), now=5.0)
        assert fm.partition_time == 5.0  # first segment closed at takeover
        assert fm.partitions_seen == 2
        assert fm.partitioned(0, 2)
        assert not fm.partitioned(0, 1)
