"""Systematic schedule/fault exploration checker.

This package drives the deterministic simulation through *controlled*
schedules and checks protocol invariants after every step:

- :mod:`repro.check.scenario` — a JSON-serializable :class:`Scenario`
  (topology, workload injections, crash/partition placements, and the
  same-time tie-break choices) plus :func:`run_scenario` to execute one;
- :mod:`repro.check.probes` — the invariant probe layer (no known orphan
  is ever delivered, live chains stay structurally sound, dependency
  vectors cover every non-stable causal dependency, Theorem 4's release
  bound via the harness);
- :mod:`repro.check.explorer` — bounded DFS over tie-break choices for
  tiny configs and seeded random sampling for 3-6 process configs;
- :mod:`repro.check.shrinker` — delta debugging that minimizes a
  violating scenario to a short replayable counterexample;
- :mod:`repro.check.mutants` — deliberately broken protocol variants
  used to prove the checker can actually detect violations;
- :mod:`repro.check.cli` — the ``python -m repro check`` entry point.
"""

from repro.check.explorer import (
    BoundedDFSExplorer,
    ExplorationStats,
    RandomExplorer,
    RandomScenarioSampler,
)
from repro.check.mutants import MUTANTS
from repro.check.probes import ProbeSet
from repro.check.scenario import (
    CheckResult,
    ChoiceRecorder,
    Injection,
    Partition,
    Scenario,
    run_scenario,
)
from repro.check.shrinker import (
    ShrinkResult,
    dump_counterexample,
    load_counterexample,
    shrink,
)

__all__ = [
    "BoundedDFSExplorer",
    "CheckResult",
    "ChoiceRecorder",
    "ExplorationStats",
    "Injection",
    "MUTANTS",
    "Partition",
    "ProbeSet",
    "RandomExplorer",
    "RandomScenarioSampler",
    "Scenario",
    "ShrinkResult",
    "dump_counterexample",
    "load_counterexample",
    "run_scenario",
    "shrink",
]
