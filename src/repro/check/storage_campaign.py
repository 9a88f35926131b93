"""Seeded storage-fault campaigns for the durable file-log backend.

Two campaign styles, both deterministic given their seed:

- :func:`fault_campaign` — randomized runs on the ``filelog`` backend with
  crashes plus paired storage faults (a torn final write at the crash,
  fsync lies *covered* by a later honest group commit, transient EIO
  bursts, I/O stalls).  Every run must finish with zero invariant
  violations and zero durability violations.
- :func:`fsync_sweep` — crash one process at *every* fsync boundary of a
  baseline run (``crash_after_fsyncs`` faults), i.e. the classic
  crash-consistency sweep: whatever prefix of the journal survives, the
  REDO-only restart must rebuild a state that loses no committed output
  and re-commits no duplicate.

Every run is judged by the harness's certifier (its ledger: each output
committed once, none from an interval rolled back or orphaned by the end;
its lost-work rules) and a :class:`~repro.check.probes.ProbeSet`, its
own-stability probe included.  The campaigns add
:func:`durability_violations`: every committed output is still recorded
as committed in its process's stable storage — the at-most-once guard
that survives REDO replay.

Schedule-design note: a lying fsync whose bytes are *never* covered by a
later honest fsync before the device crashes is genuinely unrecoverable —
announced-stable intervals are silently lost, which no local protocol can
detect (reading the file back returns the cached bytes).  The campaign
therefore arms ``fsync_lie`` faults several flush intervals before the
victim's crash, so the per-flush group commit covers the lie first; the
uncovered case is exercised (and its belief/truth counter divergence
asserted) by the unit tests instead.  ``bit_flip`` faults are likewise
covered by unit tests: a flip inside already-announced-stable journal
bytes is indistinguishable from media loss and needs replication, not
logging, to survive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.check.probes import ProbeSet
from repro.failures.injector import (
    CrashEvent,
    FailureSchedule,
    StorageFaultEvent,
)
from repro.runtime.config import SimConfig
from repro.runtime.harness import SimulationHarness
from repro.workloads.random_peers import RandomPeersWorkload


def durability_violations(harness: SimulationHarness) -> List[str]:
    """The at-most-once guard survives REDO replay: every output committed
    to the outside world is still recorded as committed in its process's
    stable storage."""
    hosts = harness.hosts
    return [
        f"output {record.output_id} no longer recorded as committed in P"
        f"{record.process}'s stable storage (REDO lost the at-most-once "
        f"guard)"
        for _, record in harness.committed_outputs
        if not hosts[record.process].protocol.storage.output_committed(
            record.output_id)
    ]


@dataclass
class CampaignRun:
    """One campaign run's identity and outcome."""

    index: int
    seed: int
    description: str
    violations: List[str] = field(default_factory=list)
    outputs_committed: int = 0
    recoveries: int = 0
    fsync_lies: int = 0
    torn_dropped: int = 0
    io_retries: int = 0
    storage_deaths: int = 0


@dataclass
class CampaignResult:
    """Aggregate outcome of a campaign."""

    runs: List[CampaignRun] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return all(not r.violations for r in self.runs)

    @property
    def failures(self) -> List[CampaignRun]:
        return [r for r in self.runs if r.violations]

    def summary(self) -> str:
        total = len(self.runs)
        outputs = sum(r.outputs_committed for r in self.runs)
        recoveries = sum(r.recoveries for r in self.runs)
        lies = sum(r.fsync_lies for r in self.runs)
        torn = sum(r.torn_dropped for r in self.runs)
        retries = sum(r.io_retries for r in self.runs)
        deaths = sum(r.storage_deaths for r in self.runs)
        status = "clean" if self.clean else f"{len(self.failures)} FAILED"
        return (f"{total} run(s) {status}: {outputs} outputs committed, "
                f"{recoveries} REDO recoveries, {lies} fsync lies, "
                f"{torn} torn records dropped, {retries} I/O retries, "
                f"{deaths} dead-storage crashes")


def _run_one(config: SimConfig, schedule: FailureSchedule,
             horizon: float, rate: float = 1.0) -> Tuple[List[str], object]:
    """Run one seeded scenario; return (violations, metrics)."""
    workload = RandomPeersWorkload(rate=rate)
    harness = SimulationHarness(config, workload.behavior(),
                                failures=schedule)
    probes = ProbeSet()
    probes.install(harness)
    workload.install(harness, until=horizon - 100.0)
    try:
        harness.run(horizon)
        probes.check_quiescent(harness)
        metrics = harness.metrics()
        violations = list(metrics.violations)
        violations.extend(probes.violations)
        violations.extend(durability_violations(harness))
    finally:
        harness.close()
    return violations, metrics


# With flush_interval = _FLUSH, a lie armed at t is consumed within one
# flush period and covered by the next honest per-flush group commit, so
# any crash >= 3 periods after the arm sees fully durable announced state.
_FLUSH = 20.0
_LIE_COVER_MARGIN = 3 * _FLUSH


def _campaign_schedule(rng: random.Random, n: int,
                       horizon: float) -> Tuple[FailureSchedule, str]:
    """One randomized crash + storage-fault schedule (lies always covered)."""
    events: List[object] = []
    parts: List[str] = []

    crash_times = sorted(
        rng.uniform(80.0, horizon - 80.0)
        for _ in range(rng.randint(1, 3))
    )
    crash_pids = [rng.randrange(n) for _ in crash_times]
    for t, pid in zip(crash_times, crash_pids):
        events.append(CrashEvent(t, pid))
    parts.append("crash " + ",".join(
        f"P{p}@{t:.0f}" for t, p in zip(crash_times, crash_pids)))

    # Torn final write: armed on a crashing process a bit more than one
    # flush period before its crash, so at least one flush batch is held
    # in flight (an armed tear suppresses tolerant commits — the write
    # the crash interrupts never reaches its fsync) and the truncation at
    # restart really does drop a half-written record tail.
    torn_idx = rng.randrange(len(crash_times))
    events.append(StorageFaultEvent(
        max(1.0, crash_times[torn_idx] - 1.2 * _FLUSH),
        crash_pids[torn_idx], "torn_write"))
    parts.append(f"torn P{crash_pids[torn_idx]}")

    # Covered fsync lie: arm it >= _LIE_COVER_MARGIN before the victim's
    # crash so an honest per-flush commit persists the lied bytes first.
    lie_idx = rng.randrange(len(crash_times))
    lie_t = crash_times[lie_idx] - _LIE_COVER_MARGIN - rng.uniform(0.0, 20.0)
    if lie_t > 5.0:
        events.append(StorageFaultEvent(
            lie_t, crash_pids[lie_idx], "fsync_lie",
            count=rng.randint(1, 2)))
        parts.append(f"lie P{crash_pids[lie_idx]}@{lie_t:.0f}")

    # Transient EIO burst and an I/O stall anywhere: both are absorbed
    # (retries with capped backoff; stalls are recorded, not slept).
    events.append(StorageFaultEvent(
        rng.uniform(20.0, horizon - 50.0), rng.randrange(n), "eio",
        count=rng.randint(1, 3)))
    events.append(StorageFaultEvent(
        rng.uniform(20.0, horizon - 50.0), rng.randrange(n), "stall",
        duration=rng.uniform(0.1, 1.0)))

    return FailureSchedule(events), "; ".join(parts)


def fault_campaign(runs: int = 10, seed: int = 0, n: int = 6,
                   k: Optional[int] = 2,
                   horizon: float = 300.0) -> CampaignResult:
    """Randomized crash + storage-fault campaign on the filelog backend."""
    result = CampaignResult()
    for index in range(runs):
        rng = random.Random((seed << 20) ^ (index * 0x9E3779B1))
        config = SimConfig(
            n=n, k=k, seed=rng.randrange(1 << 30),
            flush_interval=_FLUSH,
            checkpoint_interval=4 * _FLUSH,
            storage_backend="filelog",
            fsync_policy=rng.choice(("group", "group", "strict")),
        )
        schedule, description = _campaign_schedule(rng, n, horizon)
        violations, metrics = _run_one(config, schedule, horizon)
        result.runs.append(CampaignRun(
            index=index, seed=config.seed,
            description=f"{config.fsync_policy}; {description}",
            violations=violations,
            outputs_committed=metrics.outputs_committed,
            recoveries=metrics.storage_recoveries,
            fsync_lies=metrics.storage_fsync_lies,
            torn_dropped=metrics.storage_torn_dropped,
            io_retries=metrics.storage_io_retries,
            storage_deaths=metrics.storage_deaths,
        ))
    return result


@dataclass
class SweepPoint:
    """One crash-at-fsync-boundary run."""

    pid: int
    fsync_index: int
    violations: List[str] = field(default_factory=list)
    outputs_committed: int = 0
    recoveries: int = 0


@dataclass
class SweepResult:
    """Aggregate outcome of an fsync-boundary sweep."""

    baseline_fsyncs: List[int] = field(default_factory=list)
    points: List[SweepPoint] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return all(not p.violations for p in self.points)

    @property
    def failures(self) -> List[SweepPoint]:
        return [p for p in self.points if p.violations]

    def summary(self) -> str:
        status = "clean" if self.clean else f"{len(self.failures)} FAILED"
        recoveries = sum(p.recoveries for p in self.points)
        return (f"{len(self.points)} boundary crash(es) {status} "
                f"(baseline fsyncs per process: {self.baseline_fsyncs}; "
                f"{recoveries} REDO recoveries)")


def _sweep_config(seed: int, n: int, k: Optional[int]) -> SimConfig:
    return SimConfig(
        n=n, k=k, seed=seed,
        flush_interval=_FLUSH,
        checkpoint_interval=4 * _FLUSH,
        storage_backend="filelog",
    )


def fsync_sweep(seed: int = 0, n: int = 4, k: Optional[int] = 2,
                horizon: float = 200.0,
                max_points: int = 24) -> SweepResult:
    """Crash one process after its i-th fsync, for i sweeping the run.

    A baseline (fault-free) run counts each process's fsyncs; the sweep
    then re-runs the identical scenario with a ``crash_after_fsyncs``
    fault pinned to each sampled boundary.  The device dies immediately
    after that fsync reports success, the runtime converts it into a
    fail-stop crash, and the REDO-only restart must come back without
    losing a committed output or re-committing a duplicate.
    """
    result = SweepResult()

    # Baseline: how many fsync boundaries does each process cross?
    workload = RandomPeersWorkload(rate=1.0)
    harness = SimulationHarness(_sweep_config(seed, n, k),
                                workload.behavior(),
                                failures=FailureSchedule.none())
    workload.install(harness, until=horizon - 80.0)
    try:
        harness.run(horizon)
        result.baseline_fsyncs = [
            host.protocol.storage.fsyncs for host in harness.hosts
        ]
    finally:
        harness.close()

    per_pid = max(1, max_points // max(1, n))
    for pid, total in enumerate(result.baseline_fsyncs):
        if total <= 0:
            continue
        stride = max(1, total // per_pid)
        boundaries = list(range(1, total + 1, stride))
        for index in boundaries:
            schedule = FailureSchedule([
                StorageFaultEvent(0.0, pid, "crash_after_fsyncs",
                                  count=index)
            ])
            violations, metrics = _run_one(
                _sweep_config(seed, n, k), schedule, horizon)
            result.points.append(SweepPoint(
                pid=pid, fsync_index=index,
                violations=violations,
                outputs_committed=metrics.outputs_committed,
                recoveries=metrics.storage_recoveries,
            ))
    return result
