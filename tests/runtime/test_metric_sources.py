"""The declared sources of ``RunMetrics`` and the merge of run shares.

Every counted field names the attribute path it is read from; a path
that does not resolve must raise rather than report the field's default,
and only an absent optional owner (a reliable network's fault model, the
inline certifier) may stand in for a default.  ``merge``
combines the shares of a run by each field's kind, with no parallel
runner involved.
"""

import dataclasses

import pytest

from repro.failures.injector import CrashEvent, FailureSchedule
from repro.runtime.metrics import (
    RunMetrics,
    merge,
    reader,
    sample_percentile,
)

from helpers import build_sim

DECLARED = [f for f in dataclasses.fields(RunMetrics) if f.metadata]
OPTIONAL = ("network.faults.", "certifier.")


def sources(harness, f):
    """``(path, value)`` for each path ``f`` declares, on each owner."""
    owners = harness.hosts if f.metadata["hosts"] else [harness]
    paths = [f.metadata["source"]] + ([f.metadata["over"]]
                                      if f.metadata["over"] else [])
    return [(path, reader(path)(owner))
            for path in paths for owner in owners]


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def run(**config):
    harness = build_sim(n=4, k=2, seed=1, until=120.0,
                        failures=FailureSchedule([CrashEvent(60.0, 2)]),
                        **config)
    harness.run(150.0)
    return harness


class TestDeclaredSources:
    def test_every_field_but_the_computed_ones_declares_a_source(self):
        computed = {f.name for f in dataclasses.fields(RunMetrics)
                    if not f.metadata}
        assert computed == {
            "storage_cost", "output_latency_p50", "output_latency_p95",
            "output_latency_p99", "output_latency_count", "slo_attained",
            "adaptive_k", "k_decisions", "k_mean", "k_final_mean",
            "crashes", "processes_rolled_back", "mean_recovery_span"}

    def test_every_source_resolves_to_a_number_on_a_full_harness(self):
        harness = run(drop_rate=0.05, duplicate_rate=0.02,
                      storage_backend="filelog", adaptive_k=True,
                      slo_output_latency=30.0, oracle_enabled=True)
        try:
            assert harness.network.faults is not None
            assert harness.certifier is not None
            for f in DECLARED:
                for path, value in sources(harness, f):
                    if f.name == "violations":
                        assert value == [], path
                    else:
                        assert is_number(value), (f.name, path, value)
        finally:
            harness.close()

    @pytest.mark.parametrize("config, absent", [
        ({}, {"partitions", "partition_time"}),
        ({"oracle_enabled": False, "check_invariants": False},
         {"partitions", "partition_time", "total_intervals",
          "rolled_back_intervals", "max_release_revokers"}),
    ], ids=["default", "oracle-off"])
    def test_only_an_absent_optional_owner_reads_as_none(self, config,
                                                         absent):
        harness = run(**config)
        assert harness.network.faults is None
        read_none = set()
        for f in DECLARED:
            for path, value in sources(harness, f):
                if value is None:
                    assert path.startswith(OPTIONAL), path
                    read_none.add(f.name)
                elif f.name != "violations":
                    assert is_number(value), (f.name, path, value)
        assert read_none == absent
        metrics = harness.metrics()
        for name in absent:
            assert getattr(metrics, name) == getattr(RunMetrics(), name)

    @pytest.mark.parametrize("on_host, path", [
        (False, "network.control_mesages_sent"),
        (True, "protocol.stats.rolbacks"),
        (True, "protocol.storage.fsync"),
        (True, "controller.decisions"),     # no controller: not optional
    ])
    def test_a_path_that_does_not_resolve_raises(self, on_host, path):
        harness = build_sim(until=None)
        with pytest.raises(AttributeError):
            reader(path)(harness.hosts[0] if on_host else harness)

    def test_a_misspelling_under_a_present_optional_owner_raises(self):
        harness = build_sim(until=None, drop_rate=0.1)
        assert harness.network.faults is not None
        with pytest.raises(AttributeError):
            reader("network.faults.partition_seen")(harness)


def hand_share(**values):
    """A share with every declared field at its default (a mean's as
    ``(0.0, 0)``) and no samples, overridden by ``values``."""
    blank = RunMetrics()
    part = {f.name: (0.0, 0) if f.metadata["over"] else getattr(blank, f.name)
            for f in DECLARED}
    part.update(latency_samples=[], rollback_times=[], crash_times=[],
                k_history=[], k_final=[], k_decisions=[])
    part.update(values)
    return part


class TestMergeContract:
    def test_each_kind_combines_as_declared(self):
        first = hand_share(
            n=8, k=2, duration=100.0, slo_target=5.0,          # run
            rollbacks=3, storage_recovery_wall_s=0.25,         # sum
            violations=["a"],
            max_send_hold=4.0, max_piggyback_entries=7,        # max
            mean_send_hold=(30.0, 10),                         # mean
            latency_samples=[1.0, 9.0], crash_times=[50.0],
            rollback_times=[(52.0, 0), (60.0, 1)],
            k_history=[2.0, 4.0], k_final=[4.0], k_decisions=[1])
        second = hand_share(
            n=99, k=99, duration=1.0, slo_target=0.0,
            rollbacks=4, storage_recovery_wall_s=0.5, violations=["b"],
            max_send_hold=6.0, max_piggyback_entries=3,
            mean_send_hold=(2.0, 1),
            latency_samples=[3.0, 4.0, 5.0, 6.0], crash_times=[50.0, 70.0],
            rollback_times=[(71.0, 1)],
            k_history=[3.0], k_final=[3.0], k_decisions=[2])
        m = merge([first, second])
        assert (m.n, m.k, m.duration, m.slo_target) == (8, 2, 100.0, 5.0)
        assert m.rollbacks == 7 and m.storage_recovery_wall_s == 0.75
        assert m.violations == ["a", "b"]
        assert (m.max_send_hold, m.max_piggyback_entries) == (6.0, 7)
        # Summed total over summed count, not the mean of 3.0 and 2.0.
        assert m.mean_send_hold == 32.0 / 11
        # Percentiles of the concatenated samples (the shares' own p50s
        # are 5.0 and 4.5).
        samples = [1.0, 9.0, 3.0, 4.0, 5.0, 6.0]
        assert m.output_latency_count == 6 and m.output_latency_p50 == 4.5
        for q, value in ((50.0, m.output_latency_p50),
                         (95.0, m.output_latency_p95),
                         (99.0, m.output_latency_p99)):
            assert value == sample_percentile(samples, q)
        assert m.slo_attained == 4 / 6       # 1, 3, 4, 5 meet 5.0
        assert m.adaptive_k and m.k_decisions == 3
        assert m.k_mean == 3.0 and m.k_final_mean == 3.5
        assert m.crashes == 3 and m.processes_rolled_back == 2
        # Two crashes at 50 open one window; 70 opens the next.
        assert m.mean_recovery_span == ((60.0 - 50.0) + (71.0 - 70.0)) / 2

    def test_a_mean_with_no_count_is_zero(self):
        m = merge([hand_share(mean_send_hold=(5.0, 0)), hand_share()])
        assert m.mean_send_hold == 0.0
