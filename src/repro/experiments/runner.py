"""Shared experiment plumbing: an experiment is a declared :class:`Sweep`.

A sweep is one table: parameters with their defaults, rows of label
columns and runs, and the columns every row reports.  :meth:`Sweep.run`
simulates the rows and returns the table as row dicts; :meth:`Sweep.main`
prints it.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.protocol import KOptimisticProcess
from repro.failures.injector import FailureSchedule
from repro.runtime.config import SimConfig
from repro.runtime.harness import SimulationHarness
from repro.runtime.metrics import RunMetrics, format_table
from repro.workloads.base import Workload

#: Default virtual duration of one experiment run.
DURATION = 1200.0
#: Traffic stops at this fraction of the horizon so the system can drain.
INJECT_FRACTION = 0.8

#: The headers the tables share: ``(RunMetrics field, digits)``.
COLUMNS: Dict[str, Tuple[str, Optional[int]]] = {
    "K": ("k", None), "hold": ("mean_send_hold", 2),
    "pgb": ("mean_piggyback_entries", 2),
    "pgb_mean": ("mean_piggyback_entries", 3), "sync_w": ("sync_writes", None),
    "async_w": ("async_writes", None), "out_lat": ("mean_output_latency", 2),
    "outputs": ("outputs_committed", None), "rollbacks": ("rollbacks", None),
    "procs_rb": ("processes_rolled_back", None),
    "undone": ("intervals_undone", None), "lost": ("intervals_lost", None),
    "orphans": ("orphans_discarded", None),
    "control_msgs": ("control_messages", None),
}


def prepare(config: SimConfig, workload: Workload,
            failures: Optional[FailureSchedule] = None,
            protocol: type = KOptimisticProcess,
            duration: float = DURATION) -> SimulationHarness:
    """A harness with the workload installed, ready to run ``duration``."""
    harness = SimulationHarness(config, workload.behavior(),
                                failures=failures,
                                protocol=protocol)
    workload.install(harness, until=duration * INJECT_FRACTION)
    return harness


def simulate(config: SimConfig, workload: Workload,
             failures: Optional[FailureSchedule] = None,
             protocol: type = KOptimisticProcess,
             duration: float = DURATION) -> RunMetrics:
    """Run one configuration to completion and return its metrics.

    Raises if the run violated any oracle-checked invariant — experiment
    numbers from an inconsistent run would be meaningless.
    """
    harness = prepare(config, workload, failures, protocol, duration)
    try:
        harness.run(duration)
        metrics = harness.metrics()
    finally:
        harness.close()
    if metrics.violations:
        raise AssertionError(
            f"invariant violations in experiment run: {metrics.violations[:3]}"
        )
    return metrics


def print_experiment(title: str, rows: List[Dict[str, object]], notes: str = "") -> None:
    """Uniform experiment output: a title, the table, optional notes."""
    print("=" * 78)
    print(title)
    print("=" * 78)
    print(format_table(rows))
    if notes:
        print()
        print(notes.strip())
    print()


@dataclass(frozen=True)
class Sweep:
    """One experiment table, declared.

    ``rows(p)`` yields ``(labels, run, ...)``: the label columns' values,
    then the row's runs.  A run is the ``SimConfig`` fields of one
    simulation (tracing off unless it says otherwise) plus, optionally,
    its ``protocol`` class and ``workload``.  Every run shares the sweep's
    ``workload``, ``failures(p)`` and horizon: ``duration``, or the
    ``duration`` parameter when that is None.

    A column is a header, naming a label of the row or one of
    :data:`COLUMNS`, or ``(header, source[, digits])``: the source is a
    ``RunMetrics`` field, read on the row's first run, or a named
    function called with the metrics of each of the row's runs.  A header
    may name a parameter (``"K={k_fixed}_max"``).  A cell whose value is
    None is left out of its row.
    """

    title: str
    params: Mapping[str, Any]
    rows: Callable[[SimpleNamespace], Iterable[Tuple[Any, ...]]]
    columns: Tuple[Any, ...]
    workload: Optional[Workload] = None
    failures: Callable[[SimpleNamespace], Optional[FailureSchedule]] = (
        lambda p: None)
    duration: Optional[float] = None
    notes: str = ""

    def bind(self, **params: Any) -> SimpleNamespace:
        """The defaults with ``params`` over them, and the horizon."""
        unknown = sorted(set(params) - set(self.params))
        if unknown:
            raise TypeError(f"unknown parameter(s) {unknown}")
        return SimpleNamespace(
            **{"duration": self.duration, **self.params, **params})

    def run(self, **params: Any) -> List[Dict[str, object]]:
        """Simulate every row; the table as row dicts."""
        p = self.bind(**params)
        return [self._row(p, labels, [self._simulate(p, run) for run in runs])
                for labels, *runs in self.rows(p)]

    def main(self, **params: Any) -> List[Dict[str, object]]:
        """Print the table and return its rows."""
        rows = self.run(**params)
        print_experiment(self.title, rows, notes=self.notes)
        return rows

    def _simulate(self, p: SimpleNamespace,
                  run: Mapping[str, Any]) -> RunMetrics:
        fields = {"trace_enabled": False, **run}
        protocol = fields.pop("protocol", KOptimisticProcess)
        workload = fields.pop("workload", self.workload)
        return simulate(SimConfig(**fields), workload, self.failures(p),
                        protocol, p.duration)

    def _row(self, p: SimpleNamespace, labels: Mapping[str, object],
             metrics: List[RunMetrics]) -> Dict[str, object]:
        row: Dict[str, object] = {}
        for column in self.columns:
            if column in labels:
                row[column] = labels[column]
                continue
            header, source, digits = resolve(column)
            value = (getattr(metrics[0], source) if isinstance(source, str)
                     else source(*metrics))
            if value is not None:
                row[header.format(**vars(p))] = (
                    value if digits is None else round(value, digits))
        return row


def resolve(column: Any) -> Tuple[str, Any, Optional[int]]:
    """A non-label column as ``(header, source, digits)``."""
    if isinstance(column, str):
        return (column, *COLUMNS[column])
    header, source, *digits = column
    return header, source, digits[0] if digits else None
