"""Replayable check scenarios.

A :class:`Scenario` is a complete JSON-serializable description of one
controlled run: topology (n, K, seed), token-workload injections,
crash/partition placements, the horizon, and the schedule *choices* — the
indices an external tie-breaker picks among same-time engine events.
``run_scenario`` executes one scenario with the invariant probe layer
installed, runs the quiescent liveness probe once it has settled, and
returns a :class:`CheckResult`.

Scenarios use a **lockstep** network (fixed unit latency, no jitter, no
per-entry cost) so that independently sent messages arrive at the same
virtual time: same-time ties are exactly the schedule freedom the real
system has, and the explorer enumerates or samples them through the
engine's tie-breaker hook.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.effects import Effect, RollbackPerformed, StableProgress
from repro.core.entry import Entry
from repro.core.protocol import KOptimisticProcess
from repro.failures.injector import (
    CrashEvent,
    FailureEvent,
    FailureSchedule,
    HealEvent,
    PartitionEvent,
)
from repro.runtime.config import SimConfig
from repro.runtime.harness import ProcessHost, SimulationHarness
from repro.sim.engine import EventHandle
from repro.sim.trace import Record
from repro.workloads.random_peers import TokenBehavior


@dataclass(frozen=True)
class Injection:
    """One outside-world token handed to ``dst`` at ``time``."""

    time: float
    dst: int
    token: int = 0
    hops: int = 2
    emit_output: bool = False

    def payload(self) -> dict:
        return {"token": self.token, "hops": self.hops,
                "emit_output": self.emit_output}


@dataclass(frozen=True)
class Partition:
    """Split the network into ``islands`` during [start, end)."""

    start: float
    end: float
    islands: Tuple[Tuple[int, ...], ...]


class ChoiceRecorder:
    """Engine tie-breaker that replays a forced choice prefix and records
    every decision it makes.

    Beyond the prefix it falls back to index 0 (the engine's default
    order) or, when ``seed`` is given, to a seeded uniform pick — the
    random explorer's schedule perturbation.  ``taken``/``counts`` hold
    the full decision path, which the DFS explorer uses to branch and the
    counterexample dump stores for replay.
    """

    def __init__(self, prefix: Sequence[int] = (), seed: Optional[int] = None):
        self.prefix = list(prefix)
        self._rng = random.Random(seed) if seed is not None else None
        self.taken: List[int] = []
        self.counts: List[int] = []

    def __call__(self, candidates: List[EventHandle]) -> int:
        position = len(self.taken)
        if position < len(self.prefix):
            # A shrunk scenario can drift (fewer same-time events than the
            # original run); clamp rather than abort the replay.
            index = min(self.prefix[position], len(candidates) - 1)
        elif self._rng is not None:
            index = self._rng.randrange(len(candidates))
        else:
            index = 0
        self.taken.append(index)
        self.counts.append(len(candidates))
        return index


@dataclass
class CheckResult:
    """Outcome of one scenario run."""

    violations: List[str]
    #: Full tie-break decision path actually taken (prefix + fallbacks).
    choices: List[int]
    #: Number of same-time candidates at each decision point.
    counts: List[int]
    events_executed: int
    outputs_committed: int
    max_release_revokers: int
    trace: List[Record] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


#: Trace categories worth keeping in a counterexample dump — the protocol
#: story, without per-transmission noise.
TRACE_KEEP = (
    "msg.deliver", "msg.release", "msg.discard", "msg.duplicate",
    "output.", "recovery.", "failure.", "ann.broadcast",
    "net.partition", "net.heal", "net.drop",
)


@dataclass
class Scenario:
    """One fully determined checkable run."""

    n: int = 3
    k: Optional[int] = 1
    seed: int = 0
    horizon: float = 40.0
    injections: List[Injection] = field(default_factory=list)
    crashes: List[Tuple[float, int]] = field(default_factory=list)
    partitions: List[Partition] = field(default_factory=list)
    #: Forced tie-break prefix (DFS exploration / replay).
    choices: List[int] = field(default_factory=list)
    #: Seeded random tie-breaking beyond the prefix (random exploration);
    #: ``None`` falls back to the engine's default order.
    choice_seed: Optional[int] = None
    # Timers are tightened versus SimConfig defaults so stability (and
    # therefore nullification/release) happens inside short horizons.
    flush_interval: float = 10.0
    checkpoint_interval: float = 40.0
    notify_interval: float = 5.0
    restart_delay: float = 5.0
    #: Fanout-pull dissemination: each notify tick asks at most this many
    #: awaited owners (``None``: every process broadcasts its table).
    notify_fanout: Optional[int] = None
    #: Crashes the protocol's own steps place, each once (see
    #: :class:`CrashPoint`): ``"checkpoint"`` and/or ``"rollback"``.
    crash_points: Tuple[str, ...] = ()

    # -- construction ------------------------------------------------------

    def config(self) -> SimConfig:
        return SimConfig(
            n=self.n,
            k=self.k,
            seed=self.seed,
            flush_interval=self.flush_interval,
            checkpoint_interval=self.checkpoint_interval,
            notify_interval=self.notify_interval,
            restart_delay=self.restart_delay,
            notify_fanout=self.notify_fanout,
            # Lockstep network: maximal same-time ties for the explorer.
            msg_latency_jitter=0.0,
            per_entry_latency=0.0,
        )

    def failure_schedule(self) -> FailureSchedule:
        events: List[FailureEvent] = [
            CrashEvent(time, pid) for time, pid in self.crashes
        ]
        for part in self.partitions:
            events.append(PartitionEvent(part.start, part.islands))
            events.append(HealEvent(part.end))
        return FailureSchedule(events)

    def with_choices(self, choices: Sequence[int],
                     choice_seed: Optional[int] = None) -> "Scenario":
        return replace(self, choices=list(choices), choice_seed=choice_seed)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        data = asdict(self)
        data["injections"] = [asdict(i) for i in self.injections]
        data["partitions"] = [
            {"start": p.start, "end": p.end,
             "islands": [list(group) for group in p.islands]}
            for p in self.partitions
        ]
        data["crashes"] = [[t, pid] for t, pid in self.crashes]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        return cls(
            n=data["n"],
            k=data.get("k"),
            seed=data.get("seed", 0),
            horizon=data.get("horizon", 40.0),
            injections=[Injection(**i) for i in data.get("injections", [])],
            crashes=[(t, pid) for t, pid in data.get("crashes", [])],
            partitions=[
                Partition(p["start"], p["end"],
                          tuple(tuple(g) for g in p["islands"]))
                for p in data.get("partitions", [])
            ],
            choices=list(data.get("choices", [])),
            choice_seed=data.get("choice_seed"),
            flush_interval=data.get("flush_interval", 10.0),
            checkpoint_interval=data.get("checkpoint_interval", 40.0),
            notify_interval=data.get("notify_interval", 5.0),
            restart_delay=data.get("restart_delay", 5.0),
            notify_fanout=data.get("notify_fanout"),
            crash_points=tuple(data.get("crash_points", ())),
        )

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    @classmethod
    def load(cls, path: str) -> "Scenario":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


class CrashPoint:
    """Crashes one process right after a step that made something durable
    which, at that moment, only its own stable storage records (before
    anything else falls due at that instant, its notification included).

    - ``"checkpoint"``: the first checkpoint that still owes a send, an
      output or an undelivered message: Restart must take them back from
      the checkpoint, for replay regenerates none of them;
    - ``"rollback"``: after a Rollback that replayed past its checkpoint,
      the first flush or checkpoint making intervals of the new
      incarnation stable while no other process knows where the closed
      incarnation ended: Restart must recover that end from the journal.
    """

    def __init__(self, kind: str, harness: SimulationHarness):
        if kind not in ("checkpoint", "rollback"):
            raise ValueError(f"unknown crash point {kind!r}")
        self.kind = kind
        self.harness = harness
        #: pid -> (the end its last Rollback closed, the next interval).
        self.rolled_back: Dict[int, Tuple[Entry, Entry]] = {}
        self.fired = False

    def __call__(self, host: ProcessHost, effect: Effect) -> None:
        if self.fired or not isinstance(effect, (RollbackPerformed,
                                                 StableProgress)):
            return
        checkpoint = host.protocol.storage.checkpoints[-1]
        if isinstance(effect, RollbackPerformed):
            if effect.restored_to.sii > checkpoint.entry.sii:
                self.rolled_back[host.pid] = (effect.restored_to,
                                              effect.new_current)
            return
        checkpointed = (checkpoint.entry == effect.through
                        and checkpoint.time_taken > 0.0)
        if self.kind == "checkpoint":
            due = checkpointed and bool(checkpoint.sends or checkpoint.outputs
                                        or checkpoint.receive_buffer)
        else:
            # Restart resumes in the new incarnation: from this checkpoint,
            # or by replaying a delivery this flush made stable.
            end, began = self.rolled_back.get(host.pid, (None, None))
            due = (began is not None and effect.through.inc == began.inc
                   and (checkpointed or effect.through.sii > began.sii)
                   and not any(other.protocol.log.covers(host.pid, end)
                               for other in self.harness.hosts
                               if other is not host))
        if due:
            self.fired = True
            self.harness.engine.schedule(0.0, host.crash)


def run_scenario(
    scenario: Scenario,
    protocol: type = KOptimisticProcess,
) -> CheckResult:
    """Execute ``scenario`` under the probe layer and report the outcome.

    The run is fully deterministic given the scenario (including its
    ``choice_seed``), so any violation found here can be replayed from the
    serialized form alone.
    """
    from repro.check.probes import ProbeSet  # circular-at-import otherwise

    harness = SimulationHarness(
        scenario.config(), TokenBehavior(),
        failures=scenario.failure_schedule(),
        protocol=protocol,
    )
    probes = ProbeSet()
    probes.install(harness)
    for kind in scenario.crash_points:
        harness.add_effect_probe(CrashPoint(kind, harness))
    recorder = ChoiceRecorder(scenario.choices, seed=scenario.choice_seed)
    harness.engine.set_tie_breaker(recorder)
    for injection in scenario.injections:
        harness.inject_at(injection.time, injection.dst, injection.payload())
    harness.run(scenario.horizon)
    probes.check_quiescent(harness)
    violations = list(harness.violations) + list(probes.violations)
    return CheckResult(
        violations=violations,
        choices=list(recorder.taken),
        counts=list(recorder.counts),
        events_executed=harness.engine.events_executed,
        outputs_committed=len(harness.committed_outputs),
        max_release_revokers=harness.certifier.max_release_revokers,
        trace=[record for record in harness.tracer.rows()
               if record[1].startswith(TRACE_KEEP)],
    )
