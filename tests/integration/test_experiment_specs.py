"""Every declared experiment table resolves, without running a simulation.

A column names a ``RunMetrics`` field, a header of the shared vocabulary
or a named derived function; a run names only ``SimConfig`` fields, a
protocol class and a workload.
A misspelt name would otherwise surface minutes into ``experiment all``.
"""

import dataclasses
import importlib

import pytest

from repro.__main__ import EXPERIMENTS
from repro.experiments.runner import COLUMNS, Sweep, resolve
from repro.runtime.config import SimConfig
from repro.runtime.metrics import RunMetrics

FIELDS = {f.name for f in dataclasses.fields(RunMetrics)}
CONFIG_FIELDS = {f.name for f in dataclasses.fields(SimConfig)}


def _sweeps():
    for name, path in EXPERIMENTS.items():
        module = importlib.import_module(path)
        for attr, value in vars(module).items():
            if isinstance(value, Sweep):
                yield pytest.param(value, id=f"{name}.{attr}")


SWEEPS = list(_sweeps())


def test_every_sweep_table_is_found():
    # E3, E4, E5a/b, E6, E7a-c, E9, E11, E12, E13a, A1-A6, multiseed, E15.
    assert len({id(p.values[0]) for p in SWEEPS}) == 20


def test_vocabulary_reads_metric_fields():
    for header, (name, digits) in COLUMNS.items():
        assert name in FIELDS, header
        assert digits is None or digits >= 0


@pytest.mark.parametrize("sweep", SWEEPS)
def test_columns_resolve(sweep):
    p = sweep.bind()
    rows = list(sweep.rows(p))
    assert rows
    for labels, *runs in rows:
        assert runs
        for run in runs:
            assert set(run) - {"protocol", "workload"} <= CONFIG_FIELDS
            assert {"n", "seed"} <= set(run)
        for column in sweep.columns:
            if column in labels:
                continue
            header, source, _ = resolve(column)
            header.format(**vars(p))
            if callable(source):
                assert source.__name__ != "<lambda>", header
            else:
                assert source in FIELDS, header


def test_unknown_parameter_is_rejected():
    from repro.experiments.tradeoff import run

    with pytest.raises(TypeError, match="unknown parameter"):
        run(n=4, k=2)
