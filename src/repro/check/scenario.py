"""Replayable check scenarios and the one runner that judges them.

A :class:`Scenario` is a complete JSON-serializable description of one
controlled run: topology (n, K, seed), token injections, crash,
partition and storage-fault placements, storage backend and fsync
policy, network, timers, horizon, and the schedule *choices* — the
indices an external tie-breaker picks among same-time engine events.
Every campaign (the explorers, the storage campaigns, the variant
matrix) generates scenarios for :func:`run_scenario`, which judges each
alike: the certifier's rules, a :class:`~repro.check.probes.ProbeSet`
(its quiescent own-stability probe and durability guard included), the
commit-deadline rule and the storm rule.

Checker scenarios default to a **lockstep** network (fixed unit latency,
no jitter, no per-entry cost) so that independently sent messages arrive
at the same virtual time: same-time ties are exactly the schedule
freedom the real system has, and the explorer enumerates or samples them
through the engine's tie-breaker hook.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.check.probes import CommitDeadline, ProbeSet
from repro.core.baselines import StromYeminiProcess
from repro.core.effects import (
    Effect,
    MessageDelivered,
    RollbackPerformed,
    StableProgress,
)
from repro.core.entry import Entry
from repro.core.protocol import KOptimisticProcess
from repro.failures.injector import (
    CrashEvent,
    FailureEvent,
    FailureSchedule,
    HealEvent,
    PartitionEvent,
    StorageFaultEvent,
)
from repro.runtime.config import SimConfig
from repro.runtime.harness import ProcessHost, SimulationHarness
from repro.runtime.metrics import RunMetrics
from repro.sim.engine import EventHandle
from repro.sim.rng import RngRegistry
from repro.sim.trace import Record
from repro.workloads.random_peers import RandomPeersWorkload, TokenBehavior

#: The networks a scenario names, as the config fields each sets.
NETWORKS: Dict[str, dict] = {
    # Fixed unit latency: maximal same-time ties for the explorer.
    "lockstep": {"msg_latency_jitter": 0.0, "per_entry_latency": 0.0},
    # SimConfig's jittered latency.
    "jittered": {},
    # Jittered and faulty, with a sent-log window for restarted receivers.
    "lossy": {"drop_rate": 0.05, "duplicate_rate": 0.02,
              "reorder_rate": 0.05, "retransmit_window": 16},
}
#: Where file-log scenarios keep their journals: on tmpfs where there is
#: one (a run judges the protocol over the journal, not the device).
JOURNALS = "/dev/shm" if os.path.isdir("/dev/shm") else None
#: The storm rule: a run may fire at most this many engine events per
#: first-time delivery — the first delivery of a token at a hop (a
#: rollback's re-execution delivers the same hop again) — and as many per
#: pair of processes and notify tick elapsed (what an idle system
#: exchanges).  A run past the bound is a cascade, and ends there.
STORM_EVENTS = 20


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
    #: Settle left every process quiescent.
    quiescent: bool
    metrics: RunMetrics
    #: Each process's fsyncs (the fsync sweep crashes at these boundaries).
    fsyncs: List[int]
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
    storage_faults: List[StorageFaultEvent] = field(default_factory=list)
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
    #: One of :data:`NETWORKS`.
    network: str = "lockstep"
    storage_backend: str = "model"
    fsync_policy: str = "group"

    # -- construction ------------------------------------------------------

    def config(self) -> SimConfig:
        return SimConfig(
            n=self.n, k=self.k, seed=self.seed,
            flush_interval=self.flush_interval,
            checkpoint_interval=self.checkpoint_interval,
            notify_interval=self.notify_interval,
            restart_delay=self.restart_delay,
            notify_fanout=self.notify_fanout,
            storage_backend=self.storage_backend,
            fsync_policy=self.fsync_policy,
            **NETWORKS[self.network])

    def failure_schedule(self) -> FailureSchedule:
        events: List[FailureEvent] = [
            CrashEvent(time, pid) for time, pid in self.crashes
        ]
        for part in self.partitions:
            events.append(PartitionEvent(part.start, part.islands))
            events.append(HealEvent(part.end))
        return FailureSchedule(events + list(self.storage_faults))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        data = dict(data, crash_points=tuple(data.get("crash_points", ())))
        for name, kind in (("injections", Injection),
                           ("storage_faults", StorageFaultEvent)):
            data[name] = [kind(**item) for item in data.get(name, [])]
        data["crashes"] = [tuple(c) for c in data.get("crashes", [])]
        data["partitions"] = [
            Partition(p["start"], p["end"], tuple(map(tuple, p["islands"])))
            for p in data.get("partitions", [])]
        return cls(**data)


def random_peers(seed: int, n: int, until: float) -> List[Injection]:
    """The Poisson tokens :class:`RandomPeersWorkload` at rate 1 injects
    into a run seeded ``seed``, drawn up front as injections."""
    return [Injection(time, dst, **payload) for time, dst, payload
            in RandomPeersWorkload(rate=1.0).injections(
                RngRegistry(seed), n, until)]


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


class Storm(Exception):
    """A run broke the storm rule; the message says how."""


class StormRule:
    """Counts first-time deliveries and ends the run, raising
    :class:`Storm`, once the engine has fired more events than
    :data:`STORM_EVENTS` allows."""

    def __init__(self, harness: SimulationHarness):
        self.pairs = harness.config.n ** 2
        self.tick = harness.config.notify_interval
        #: ``(token, hops)`` of every token hop delivered.
        self.hops: Set[Tuple[Any, Any]] = set()
        harness.add_effect_probe(self._on_effect)
        harness.add_step_probe(self._on_step)

    def _on_effect(self, host: ProcessHost, effect: Effect) -> None:
        if isinstance(effect, MessageDelivered) and not effect.replay:
            payload = effect.message.payload
            self.hops.add((payload.get("token"), payload.get("hops")))

    def _on_step(self, harness: SimulationHarness) -> None:
        events, now = harness.engine.events_executed, harness.engine.now
        bound = STORM_EVENTS * (len(self.hops)
                                + self.pairs * int(now // self.tick + 1))
        if events > bound:
            raise Storm(f"storm: {events} engine events by t={now:g} for "
                        f"{len(self.hops)} first-time deliveries (bound "
                        f"{bound})")


def run_scenario(
    scenario: Scenario,
    protocol: type = KOptimisticProcess,
) -> CheckResult:
    """Execute ``scenario`` under every rule and report the outcome.

    The run is fully deterministic given the scenario (including its
    ``choice_seed``), so any violation found here can be replayed from the
    serialized form alone.
    """
    journals = (tempfile.mkdtemp(prefix="repro-check-", dir=JOURNALS)
                if scenario.storage_backend == "filelog" else None)
    config = replace(scenario.config(), storage_dir=journals,
                     fifo=issubclass(protocol, StromYeminiProcess))
    harness = SimulationHarness(config, TokenBehavior(),
                                failures=scenario.failure_schedule(),
                                protocol=protocol)
    try:
        probes = ProbeSet()
        probes.install(harness)
        for kind in scenario.crash_points:
            harness.add_effect_probe(CrashPoint(kind, harness))
        deadline = CommitDeadline(harness)
        StormRule(harness)
        recorder = ChoiceRecorder(scenario.choices, seed=scenario.choice_seed)
        harness.engine.set_tie_breaker(recorder)
        for injection in scenario.injections:
            harness.inject_at(injection.time, injection.dst,
                              injection.payload())
        storm: List[str] = []
        try:
            harness.run(scenario.horizon)
            probes.check_quiescent(harness)
        except Storm as cascade:
            storm.append(str(cascade))
        violations = (list(harness.violations) + probes.violations
                      + deadline.violations + storm)
        return CheckResult(
            violations=violations,
            choices=list(recorder.taken),
            counts=list(recorder.counts),
            events_executed=harness.engine.events_executed,
            quiescent=not storm and harness.quiescent(),
            metrics=harness.metrics(),
            fsyncs=[host.protocol.storage.fsyncs for host in harness.hosts],
            trace=[record for record in harness.tracer.rows()
                   if record[1].startswith(TRACE_KEEP)],
        )
    finally:
        harness.close()
        if journals is not None:
            shutil.rmtree(journals, ignore_errors=True)
