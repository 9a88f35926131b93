"""Unit tests for simulation config and metrics formatting."""

import pytest

from repro.runtime.config import SimConfig
from repro.runtime.metrics import RunMetrics, format_table


class TestSimConfig:
    def test_defaults_valid(self):
        SimConfig().validate()

    def test_resolved_k_defaults_to_n(self):
        assert SimConfig(n=8).resolved_k() == 8
        assert SimConfig(n=8, k=3).resolved_k() == 3
        assert SimConfig(n=8, k=0).resolved_k() == 0

    def test_with_k_copies(self):
        base = SimConfig(n=8, seed=3)
        derived = base.with_k(2)
        assert derived.k == 2
        assert derived.seed == 3
        assert base.k is None

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            SimConfig(n=0).validate()
        with pytest.raises(ValueError):
            SimConfig(k=-1).validate()
        with pytest.raises(ValueError):
            SimConfig(flush_interval=0).validate()
        with pytest.raises(ValueError):
            SimConfig(restart_delay=-1).validate()
        with pytest.raises(ValueError):
            SimConfig(notify_fanout=0).validate()


class TestRunMetrics:
    def test_throughput(self):
        m = RunMetrics(duration=100.0, messages_delivered=250)
        assert m.throughput() == 2.5

    def test_throughput_zero_duration(self):
        assert RunMetrics().throughput() == 0.0

    def test_as_row_keys_stable(self):
        row = RunMetrics(n=4, k=2).as_row()
        assert row["n"] == 4
        assert row["K"] == 2
        assert "rollbacks" in row

    def test_format_table(self):
        rows = [RunMetrics(n=4, k=k).as_row() for k in (0, 4)]
        table = format_table(rows)
        lines = table.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "K" in lines[0]

    def test_format_empty(self):
        assert format_table([]) == "(no rows)"
