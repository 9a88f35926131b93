"""Delta-debugging shrinker and counterexample persistence.

Given a violating scenario, :func:`shrink` minimizes it with classic
ddmin passes over each scenario component — injections, crashes,
partitions, storage faults, the tie-break choice list — plus simpler
injections (fewer hops, no output), single crash points dropped and
horizon reduction, iterated to a fixpoint under a run budget.  The
reduction predicate is simply "re-running the candidate still violates
*some* invariant": any smaller failing scenario is a better
counterexample.

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

from repro.check.scenario import CheckResult, Injection, Scenario, run_scenario
from repro.core.protocol import KOptimisticProcess

T = TypeVar("T")

COUNTEREXAMPLE_FORMAT = "repro-check-counterexample-v1"
#: The runs one shrink may spend.
MAX_RUNS = 400


@dataclass
class ShrinkResult:
    """A minimized counterexample."""

    scenario: Scenario
    result: CheckResult
    runs: int

    @property
    def trace_length(self) -> int:
        return len(self.result.trace)


def _ddmin(items: List[T], still_fails: Callable[[List[T]], bool]
           ) -> List[T]:
    """Classic ddmin: greedily remove chunks while the test still fails."""
    chunks = 2
    while len(items) >= 2:
        size = max(1, len(items) // chunks)
        reduced = False
        for start in range(0, len(items), size):
            complement = items[:start] + items[start + size:]
            if still_fails(complement):
                items = complement
                chunks = max(2, chunks - 1)
                reduced = True
                break
        if not reduced:
            if size == 1:
                break
            chunks = min(len(items), chunks * 2)
    if len(items) == 1 and still_fails([]):
        return []
    return items


def _with(injections: List[Injection], i: int, **changes) -> List[Injection]:
    """``injections`` with the ``i``-th one changed."""
    return injections[:i] + [replace(injections[i], **changes)] \
        + injections[i + 1:]


def shrink(scenario: Scenario,
           protocol: type = KOptimisticProcess) -> ShrinkResult:
    """Minimize a violating ``scenario``; raises if it does not violate.

    Each candidate costs one run, at most :data:`MAX_RUNS` in all; once
    they are spent, every further candidate counts as passing."""
    runs = 0
    # The run of ``current``: the last candidate that still violated.
    failing: List[CheckResult] = []

    def fails(candidate: Scenario) -> bool:
        nonlocal runs
        if runs >= MAX_RUNS:
            return False
        runs += 1
        result = run_scenario(candidate, protocol)
        if result.violations:
            failing[:] = [result]
        return bool(result.violations)

    if not fails(scenario):
        raise ValueError("scenario does not violate any invariant; "
                         "nothing to shrink")
    current = scenario

    def attempt(candidate: Scenario) -> bool:
        nonlocal current
        if fails(candidate):
            current = candidate
            return True
        return False

    changed = True
    while changed and runs < MAX_RUNS:
        changed = False
        before = current

        for name in ("injections", "crashes", "partitions",
                     "storage_faults"):
            items = getattr(current, name)
            kept = _ddmin(
                list(items),
                lambda kept: fails(replace(current, **{name: kept})))
            if len(kept) < len(items):
                current = replace(current, **{name: kept})

        # Simpler injections: fewer hops, lowest first (a token may start
        # where one of its hops took it), then no output.
        for i, injection in enumerate(current.injections):
            others = [p for p in range(current.n) if p != injection.dst]
            any(attempt(replace(current, injections=_with(
                current.injections, i, hops=hops, dst=dst)))
                for hops in range(injection.hops)
                for dst in [injection.dst] + others)
            if current.injections[i].emit_output:
                attempt(replace(current, injections=_with(
                    current.injections, i, emit_output=False)))

        for point in current.crash_points:
            attempt(replace(current, crash_points=tuple(
                p for p in current.crash_points if p != point)))

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
            + [f.time for f in current.storage_faults]
            + [0.0]
        )
        for horizon in sorted({round(current.horizon / 2, 1),
                               round(last_event + 5.0, 1)}):
            if horizon < current.horizon:
                attempt(replace(current, horizon=horizon))

        changed = current != before

    return ShrinkResult(scenario=current, result=failing[0], runs=runs)


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
            {"time": time, "category": category, "process": process,
             "data": {k: str(v) for k, v in data.items()}}
            for time, category, process, data in result.trace
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
