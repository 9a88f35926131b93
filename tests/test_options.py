"""Every option a carrier offers is set somewhere outside ``tests/``.

An option that only a test ever sets is one value in use: the program
always runs the default, so the default is a constant, and the code that
only another value would run is code the program never runs.  This guard
parses ``src/``, ``bench/`` and ``examples/`` and fails naming each option
of a carrier in ``CARRIERS`` that nothing there sets.

An option is a field of a dataclass carrier or a defaulted parameter of a
callable one.  It counts as set where a call of the carrier passes it —
as a keyword argument, or as a positional argument in its position — or
where a dict names it as a key, in a literal or a ``dict(...)`` call
(``bench/workloads.py`` and the experiment specs spell configs as dicts
and build them with ``SimConfig(**fields)``).  A carrier's calls are matched
by name: the carrier's own, plus the names its builders call it through
(``build_protocol`` calls the protocol class as ``cls``, the storage
campaigns build a ``Scenario`` through ``_filelog``).  A dataclass
that a carrier takes as a parameter is a carrier too: a config object is
a bundle of options.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import inspect
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

from repro.analysis.report import ascii_series
from repro.analysis.stats import summarize
from repro.analysis.timeline import TimelineRenderer
from repro.backplane.coordinator import ServePlan
from repro.backplane.worker import CoordinatorTransport
from repro.check.cli import small_scenario
from repro.check.explorer import BoundedDFSExplorer, RandomScenarioSampler
from repro.check.scenario import Scenario, random_peers, run_scenario
from repro.check.shrinker import shrink
from repro.check.storage_campaign import (
    fault_campaign,
    fsync_sweep,
    sweep_baseline,
)
from repro.control.controller import AdaptiveKController
from repro.core.protocol import KOptimisticProcess
from repro.net.channel import FixedLatency
from repro.net.faults import ChannelFaults, NetworkFaultModel
from repro.net.network import Network
from repro.runtime.config import SimConfig
from repro.sim.engine import Engine
from repro.storage.filelog import FileLogBackend
from repro.workloads.openloop import open_loop_times

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "bench", "examples")

#: ``(carrier, the names a call of it goes by)``.
CARRIERS = (
    (SimConfig, ("SimConfig",)),
    (ServePlan, ("ServePlan",)),
    (ChannelFaults, ("ChannelFaults",)),
    (NetworkFaultModel, ("NetworkFaultModel",)),
    (Network, ("Network",)),
    (Network.broadcast_control, ("broadcast_control",)),
    (CoordinatorTransport.broadcast_control, ("broadcast_control",)),
    (AdaptiveKController, ("AdaptiveKController",)),
    (FileLogBackend, ("FileLogBackend",)),
    (KOptimisticProcess, ("KOptimisticProcess", "cls")),
    (Engine, ("Engine",)),
    (open_loop_times, ("open_loop_times",)),
    (FixedLatency, ("FixedLatency",)),
    (summarize, ("summarize",)),
    (TimelineRenderer, ("TimelineRenderer",)),
    (ascii_series, ("ascii_series",)),
    (Scenario, ("Scenario", "_filelog")),
    (RandomScenarioSampler, ("RandomScenarioSampler",)),
    (small_scenario, ("small_scenario",)),
    (BoundedDFSExplorer, ("BoundedDFSExplorer",)),
    (fault_campaign, ("fault_campaign",)),
    (sweep_baseline, ("sweep_baseline",)),
    (fsync_sweep, ("fsync_sweep",)),
    (random_peers, ("random_peers",)),
    (run_scenario, ("run_scenario",)),
    (shrink, ("shrink",)),
)

#: ``"Carrier.option"`` kept although no caller outside the tests sets
#: it, each with its reason.
ALLOWED = {
    "SimConfig.delta_notifications":
        "bench/tracing.py times the delta path; it goes with the benchmark's "
        "own change (ROADMAP 3(a))",
    "ServePlan.stimuli":
        "a workload input: the sim-vs-serve differential replays one "
        "stimulus list through both drivers",
}


def _parameters(carrier) -> List[inspect.Parameter]:
    """A dataclass's fields, or a callable's parameters, ``self`` aside."""
    params = list(inspect.signature(carrier).parameters.values())
    return params[1:] if params and params[0].name == "self" else params


def options(carrier) -> List[str]:
    """The carrier's settable values, in declaration order."""
    return [p.name for p in _parameters(carrier)
            if p.default is not inspect.Parameter.empty]


def positions(carrier) -> List[str]:
    """Parameter names in the order positional arguments fill them."""
    return [p.name for p in _parameters(carrier)
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]


def carriers() -> List[Tuple[object, Tuple[str, ...]]]:
    """``CARRIERS`` plus every dataclass one of them takes."""
    found = list(CARRIERS)
    for carrier, _ in CARRIERS:
        scope = vars(sys.modules[carrier.__module__])
        for p in _parameters(carrier):
            bundle = scope.get(p.annotation) if isinstance(
                p.annotation, str) else p.annotation
            if dataclasses.is_dataclass(bundle) and bundle not in {
                    listed for listed, _ in found}:
                found.append((bundle, (bundle.__name__,)))
    return found


def _callee(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


@functools.lru_cache(maxsize=None)
def scan() -> Tuple[Dict[str, Set[str]], Dict[str, List[int]], Set[str]]:
    """``(keywords, positional, keys)``: the keyword names each callee
    name is called with, the positional argument counts it is called
    with, and every string key of a dict."""
    keywords: Dict[str, Set[str]] = {}
    positional: Dict[str, List[int]] = {}
    keys: Set[str] = set()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    name = _callee(node)
                    keywords.setdefault(name, set()).update(
                        kw.arg for kw in node.keywords if kw.arg)
                    count = 0
                    for arg in node.args:
                        if isinstance(arg, ast.Starred):
                            break
                        count += 1
                    positional.setdefault(name, []).append(count)
                    if name == "dict":
                        keys.update(kw.arg for kw in node.keywords if kw.arg)
                elif isinstance(node, ast.Dict):
                    keys.update(k.value for k in node.keys
                                if isinstance(k, ast.Constant)
                                and isinstance(k.value, str))
    return keywords, positional, keys


def unset() -> List[str]:
    """Every option no scanned caller sets, allowlisted or not."""
    keywords, positional, keys = scan()
    found = []
    for carrier, names in carriers():
        given = set(keys)
        order = positions(carrier)
        for name in names:
            given |= keywords.get(name, set())
            for count in positional.get(name, []):
                given.update(order[:count])
        found.extend(f"{carrier.__qualname__}.{option}"
                     for option in options(carrier) if option not in given)
    return found


def test_every_option_is_set_outside_tests():
    lonely = [name for name in unset() if name not in ALLOWED]
    assert not lonely, (
        "set by no caller in src/, bench/ or examples/ (make each a module "
        "constant, or allow it with a reason):\n  " + "\n  ".join(lonely))


def test_the_allowlist_stays_small_and_current():
    assert len(ALLOWED) <= 5
    stale = sorted(set(ALLOWED) - set(unset()))
    assert not stale, f"allowlisted but set by a caller or gone: {stale}"
