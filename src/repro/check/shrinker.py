"""Delta-debugging shrinker and counterexample persistence.

Given a violating scenario, :func:`shrink` minimizes it with classic
ddmin passes over each scenario component — injections, crashes,
partitions, the tie-break choice list — plus horizon reduction, iterated
to a fixpoint under a run budget.  The reduction predicate is simply
"re-running the candidate still violates *some* invariant": any smaller
failing scenario is a better counterexample.

:func:`dump_counterexample` writes the shrunk scenario together with the
violations, the exact decision path, and a filtered protocol-level trace
as one JSON file; :func:`load_counterexample` restores the scenario so
``python -m repro check replay`` (or a test) can re-execute it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple, TypeVar

from repro.check.scenario import CheckResult, Scenario, run_scenario
from repro.core.protocol import KOptimisticProcess

T = TypeVar("T")

COUNTEREXAMPLE_FORMAT = "repro-check-counterexample-v1"


@dataclass
class ShrinkResult:
    """A minimized counterexample."""

    scenario: Scenario
    result: CheckResult
    runs: int

    @property
    def trace_length(self) -> int:
        return len(self.result.trace)


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def take(self) -> bool:
        if self.used >= self.limit:
            return False
        self.used += 1
        return True


def _ddmin(items: List[T], still_fails: Callable[[List[T]], bool],
           budget: _Budget) -> List[T]:
    """Classic ddmin: greedily remove chunks while the test still fails."""
    chunks = 2
    while len(items) >= 2:
        size = max(1, len(items) // chunks)
        reduced = False
        for start in range(0, len(items), size):
            complement = items[:start] + items[start + size:]
            if not budget.take():
                return items
            if still_fails(complement):
                items = complement
                chunks = max(2, chunks - 1)
                reduced = True
                break
        if not reduced:
            if size == 1:
                break
            chunks = min(len(items), chunks * 2)
    if len(items) == 1:
        if budget.take() and still_fails([]):
            return []
    return items


def shrink(
    scenario: Scenario,
    protocol: type = KOptimisticProcess,
    max_runs: int = 400,
) -> ShrinkResult:
    """Minimize a violating ``scenario``; raises if it does not violate."""
    budget = _Budget(max_runs)
    last_failing: List[CheckResult] = []

    def fails(candidate: Scenario) -> bool:
        result = run_scenario(candidate, protocol)
        if result.violations:
            last_failing.append(result)
            del last_failing[:-1]
        return bool(result.violations)

    if not budget.take() or not fails(scenario):
        raise ValueError("scenario does not violate any invariant; "
                         "nothing to shrink")
    current = scenario

    def attempt(candidate: Scenario) -> bool:
        nonlocal current
        if budget.take() and fails(candidate):
            current = candidate
            return True
        return False

    changed = True
    while changed and budget.used < budget.limit:
        changed = False
        before = current

        injections = _ddmin(
            list(current.injections),
            lambda items: fails(replace(current, injections=items)),
            budget,
        )
        if len(injections) < len(current.injections):
            current = replace(current, injections=injections)

        crashes = _ddmin(
            list(current.crashes),
            lambda items: fails(replace(current, crashes=items)),
            budget,
        )
        if len(crashes) < len(current.crashes):
            current = replace(current, crashes=crashes)

        partitions = _ddmin(
            list(current.partitions),
            lambda items: fails(replace(current, partitions=items)),
            budget,
        )
        if len(partitions) < len(current.partitions):
            current = replace(current, partitions=partitions)

        # Choice-list reduction: positions are meaningful, so only try
        # suffix truncation and zeroing individual picks (a zero is the
        # engine's default order — the "simplest" choice).
        while current.choices:
            half = list(current.choices[:len(current.choices) // 2])
            if not attempt(replace(current, choices=half)):
                break
        for i, pick in enumerate(current.choices):
            if pick != 0:
                zeroed = list(current.choices)
                zeroed[i] = 0
                attempt(replace(current, choices=zeroed))

        # Horizon reduction: half it, or cut just past the last event.
        last_event = max(
            [i.time for i in current.injections]
            + [t for t, _ in current.crashes]
            + [p.end for p in current.partitions]
            + [0.0]
        )
        for horizon in sorted({round(current.horizon / 2, 1),
                               round(last_event + 5.0, 1)}):
            if horizon < current.horizon:
                attempt(replace(current, horizon=horizon))

        changed = current != before

    final = last_failing[0] if last_failing else run_scenario(
        current, protocol)
    return ShrinkResult(scenario=current, result=final, runs=budget.used)


# -- persistence -------------------------------------------------------------


def dump_counterexample(path: str, scenario: Scenario, result: CheckResult,
                        mutant: Optional[str] = None) -> None:
    """Write a replayable counterexample file.

    ``mutant`` names the broken protocol variant the violation was found
    against (``None`` for the real protocol) so replay can rebuild the
    same protocol class.
    """
    payload = {
        "format": COUNTEREXAMPLE_FORMAT,
        "mutant": mutant,
        "scenario": scenario.to_dict(),
        "violations": result.violations,
        "choices_taken": result.choices,
        "choice_counts": result.counts,
        "events_executed": result.events_executed,
        "trace": [
            {"time": event.time, "category": event.category,
             "process": event.process,
             "data": {k: str(v) for k, v in event.data.items()}}
            for event in result.trace
        ],
    }
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)


def load_counterexample(path: str) -> Tuple[Scenario, Optional[str]]:
    """Restore ``(scenario, mutant_name)`` from a counterexample file."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != COUNTEREXAMPLE_FORMAT:
        raise ValueError(f"{path} is not a {COUNTEREXAMPLE_FORMAT} file")
    return Scenario.from_dict(payload["scenario"]), payload.get("mutant")
