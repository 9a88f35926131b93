"""Schedule and fault exploration drivers.

Two strategies over :class:`~repro.check.scenario.Scenario` runs:

- :class:`BoundedDFSExplorer` — *exhaustive* depth-bounded DFS over the
  same-time tie-break choices of one fixed scenario.  Each run replays a
  forced choice prefix and defaults beyond it; the recorded candidate
  counts tell the explorer where the schedule tree branches, and every
  untried alternative at or beyond the prefix becomes a new prefix.
  Tractable for tiny configs (2-3 processes, a handful of tokens).
- :class:`RandomExplorer` — seeded random sampling for 3-6 process
  configs: each index deterministically derives a scenario (injections,
  crash points, partition placements, tie-break seed, dissemination
  mode) from the sampler seed, so a violating sample is reproducible
  from ``(seed, index)`` alone — and, being a plain scenario,
  shrinkable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.check.scenario import (
    CheckResult,
    Injection,
    Partition,
    Scenario,
    run_scenario,
)
from repro.core.protocol import KOptimisticProcess


@dataclass
class ExplorationStats:
    """Outcome of one exploration campaign."""

    runs: int = 0
    #: The violating scenario (exact choices pinned), or ``None``.
    counterexample: Optional[Scenario] = None
    result: Optional[CheckResult] = None
    #: DFS only: the bounded tree was explored completely.
    exhausted: bool = False
    #: Largest same-time candidate set seen anywhere (schedule freedom).
    max_branching: int = 0
    max_release_revokers: int = 0

    @property
    def found(self) -> bool:
        return self.counterexample is not None

    def record(self, scenario: Scenario, result: CheckResult) -> bool:
        """Count one run; keep it as the counterexample if it violates."""
        self.runs += 1
        self.max_branching = max([self.max_branching, *result.counts])
        self.max_release_revokers = max(
            self.max_release_revokers, result.metrics.max_release_revokers)
        if result.violations:
            self.counterexample = scenario
            self.result = result
        return bool(result.violations)


class BoundedDFSExplorer:
    """Depth-bounded exhaustive DFS over tie-break choices."""

    def __init__(
        self,
        scenario: Scenario,
        max_depth: int = 10,
        max_runs: int = 2000,
    ):
        if scenario.choice_seed is not None:
            raise ValueError("DFS needs deterministic fallback choices; "
                             "use a scenario without choice_seed")
        self.scenario = scenario
        self.max_depth = max_depth
        self.max_runs = max_runs

    def explore(self) -> ExplorationStats:
        stats = ExplorationStats()
        root = list(self.scenario.choices)
        stack: List[List[int]] = [root]
        while stack:
            if stats.runs >= self.max_runs:
                return stats  # budget exhausted, tree not fully covered
            prefix = stack.pop()
            result = run_scenario(replace(self.scenario, choices=prefix))
            if stats.record(replace(self.scenario, choices=result.choices),
                            result):
                return stats
            # Branch at every decision point at or beyond this prefix (the
            # points before it were branched when the parent ran).  LIFO
            # push order keeps the traversal depth-first.
            limit = min(len(result.counts), self.max_depth)
            for i in range(limit - 1, len(prefix) - 1, -1):
                for alternative in range(result.counts[i] - 1, 0, -1):
                    stack.append(result.choices[:i] + [alternative])
        stats.exhausted = True
        return stats


# The random sampler's scenario shape.
#: Process counts to sample.
N_CHOICES: Tuple[int, ...] = (3, 4, 5, 6)
HORIZON = 40.0
MIN_TOKENS = 3
MAX_TOKENS = 8
MAX_HOPS = 4
OUTPUT_FRACTION = 0.4
CRASH_PROBABILITY = 0.7
MAX_CRASHES = 2
PARTITION_PROBABILITY = 0.25


@dataclass
class RandomScenarioSampler:
    """Deterministically derives the ``index``-th random scenario."""

    seed: int = 0
    #: Degrees of optimism to sample (``None`` = K=N, fully optimistic).
    k_choices: Tuple[Optional[int], ...] = (0, 1, 2, None)

    def sample(self, index: int) -> Scenario:
        rng = random.Random(f"repro-check/{self.seed}/{index}")
        n = rng.choice(N_CHOICES)
        k = rng.choice(self.k_choices)
        injections = []
        for token in range(rng.randint(MIN_TOKENS, MAX_TOKENS)):
            injections.append(Injection(
                time=round(rng.uniform(1.0, HORIZON * 0.6), 1),
                dst=rng.randrange(n),
                token=token,
                hops=rng.randint(1, MAX_HOPS),
                emit_output=rng.random() < OUTPUT_FRACTION,
            ))
        injections.sort(key=lambda i: i.time)
        crashes = []
        if rng.random() < CRASH_PROBABILITY:
            for _ in range(rng.randint(1, MAX_CRASHES)):
                crashes.append((
                    round(rng.uniform(HORIZON * 0.2, HORIZON * 0.8), 1),
                    rng.randrange(n),
                ))
            crashes.sort()
        partitions = []
        if rng.random() < PARTITION_PROBABILITY:
            start = round(rng.uniform(HORIZON * 0.1, HORIZON * 0.6), 1)
            length = round(rng.uniform(4.0, 12.0), 1)
            isolated = rng.randrange(n)
            partitions.append(Partition(
                start=start, end=min(start + length, HORIZON * 0.9),
                islands=((isolated,),),
            ))
        choice_seed = rng.randrange(2 ** 32)
        # A quarter of the scenarios pull logging progress, asking two
        # awaited owners per tick (drawn last: no other field depends on
        # it).
        fanout = 2 if rng.random() < 0.25 else None
        # Crash points, each drawn with probability 1/2 and last (no
        # other field depends on them); each is one more crash, within
        # the same budget.
        crash_points = tuple(
            kind for kind in ("checkpoint", "rollback") if rng.random() < 0.5
        )[:max(0, MAX_CRASHES - len(crashes))]
        return Scenario(
            n=n, k=k, seed=index, horizon=HORIZON,
            injections=injections, crashes=crashes, partitions=partitions,
            choices=[], choice_seed=choice_seed, notify_fanout=fanout,
            crash_points=crash_points,
        )


class RandomExplorer:
    """Seeded random sampling of scenarios; stops at the first violation."""

    def __init__(
        self,
        sampler: RandomScenarioSampler,
        runs: int = 1000,
        protocol: type = KOptimisticProcess,
    ):
        self.sampler = sampler
        self.runs = runs
        self.protocol = protocol

    def explore(self) -> ExplorationStats:
        stats = ExplorationStats()
        for index in range(self.runs):
            scenario = self.sampler.sample(index)
            if stats.record(scenario, run_scenario(scenario, self.protocol)):
                break
        return stats
