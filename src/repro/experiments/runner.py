"""Shared experiment plumbing: build-and-run one simulation, collect rows."""

from __future__ import annotations

from typing import Dict, List, Optional

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


def simulate(
    config: SimConfig,
    workload: Workload,
    failures: Optional[FailureSchedule] = None,
    protocol: type = KOptimisticProcess,
    duration: float = DURATION,
) -> RunMetrics:
    """Run one configuration to completion and return its metrics.

    Raises if the run violated any oracle-checked invariant — experiment
    numbers from an inconsistent run would be meaningless.
    """
    harness = SimulationHarness(config, workload.behavior(),
                                failures=failures,
                                protocol=protocol)
    workload.install(harness, until=duration * INJECT_FRACTION)
    harness.run(duration)
    metrics = harness.metrics()
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
