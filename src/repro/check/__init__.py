"""Systematic schedule/fault exploration checker.

Every checked run is a :class:`Scenario` judged by :func:`run_scenario`
(:mod:`repro.check.scenario`), which installs the invariant probes of
:mod:`repro.check.probes` next to the harness's certifier.  The
campaigns generate scenarios: :mod:`repro.check.explorer` (bounded DFS
over same-time tie-breaks, seeded random sampling) and
:mod:`repro.check.storage_campaign` (storage faults, the fsync sweep).
:mod:`repro.check.shrinker` minimizes a violating scenario to a short
replayable counterexample, :mod:`repro.check.mutants` holds the broken
variants that prove the checker has teeth, and :mod:`repro.check.cli`
is the ``python -m repro check`` entry point.
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
