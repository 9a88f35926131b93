"""Seeded storage-fault campaigns for the durable file-log backend.

Two campaign styles, each a deterministic generator of
:class:`~repro.check.scenario.Scenario` runs for
:func:`~repro.check.scenario.run_scenario`, which judges every one of them
alike (certifier, probes, the durability guard, the storm rule):

- :func:`fault_campaign` — randomized runs on the ``filelog`` backend with
  crashes plus paired storage faults (a torn final write at the crash,
  fsync lies *covered* by a later honest group commit, transient EIO
  bursts, I/O stalls).
- :func:`fsync_sweep` — crash one process at *every* fsync boundary of a
  baseline run (:func:`sweep_baseline`; ``crash_after_fsyncs`` faults),
  i.e. the classic crash-consistency sweep: whatever prefix of the
  journal survives, the REDO-only restart must rebuild a state that loses
  no committed output and re-commits no duplicate.

Both run the random-peers token workload at rate 1, its tokens drawn up
front from the run's seed, on a jittered reliable network.

Lies are armed only where a later honest group commit covers them, and
bit flips are left to the unit tests: uncovered, either is media loss,
which needs replication, not logging (docs/STORAGE.md §4).
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.check.scenario import Scenario, random_peers
from repro.failures.injector import StorageFaultEvent

# With flush_interval = _FLUSH, a lie armed at t is consumed within one
# flush period and covered by the next honest per-flush group commit, so
# any crash >= 3 periods after the arm sees fully durable announced state.
_FLUSH = 20.0
_LIE_COVER_MARGIN = 3 * _FLUSH


def _filelog(seed: int, n: int, k: Optional[int], horizon: float,
             until: float, **fields) -> Scenario:
    """A file-log campaign run: tokens injected until ``until``."""
    return Scenario(n=n, k=k, seed=seed, horizon=horizon,
                    injections=random_peers(seed, n, until),
                    flush_interval=_FLUSH, checkpoint_interval=4 * _FLUSH,
                    notify_interval=20.0, restart_delay=10.0,
                    network="jittered", storage_backend="filelog", **fields)


def _campaign_faults(rng: random.Random, n: int, horizon: float
                     ) -> Tuple[List[Tuple[float, int]],
                                List[StorageFaultEvent], str]:
    """One randomized crash + storage-fault schedule (lies always covered)."""
    faults: List[StorageFaultEvent] = []
    parts: List[str] = []

    crash_times = sorted(
        rng.uniform(80.0, horizon - 80.0)
        for _ in range(rng.randint(1, 3))
    )
    crash_pids = [rng.randrange(n) for _ in crash_times]
    parts.append("crash " + ",".join(
        f"P{p}@{t:.0f}" for t, p in zip(crash_times, crash_pids)))

    # Torn final write: armed on a crashing process a bit more than one
    # flush period before its crash, so at least one flush batch is held
    # in flight (an armed tear suppresses tolerant commits — the write
    # the crash interrupts never reaches its fsync) and the truncation at
    # restart really does drop a half-written record tail.
    torn_idx = rng.randrange(len(crash_times))
    faults.append(StorageFaultEvent(
        max(1.0, crash_times[torn_idx] - 1.2 * _FLUSH),
        crash_pids[torn_idx], "torn_write"))
    parts.append(f"torn P{crash_pids[torn_idx]}")

    # Covered fsync lie: arm it >= _LIE_COVER_MARGIN before the victim's
    # crash so an honest per-flush commit persists the lied bytes first.
    lie_idx = rng.randrange(len(crash_times))
    lie_t = crash_times[lie_idx] - _LIE_COVER_MARGIN - rng.uniform(0.0, 20.0)
    if lie_t > 5.0:
        faults.append(StorageFaultEvent(
            lie_t, crash_pids[lie_idx], "fsync_lie",
            count=rng.randint(1, 2)))
        parts.append(f"lie P{crash_pids[lie_idx]}@{lie_t:.0f}")

    # Transient EIO burst and an I/O stall anywhere: both are absorbed
    # (retries with capped backoff; stalls are recorded, not slept).
    faults.append(StorageFaultEvent(
        rng.uniform(20.0, horizon - 50.0), rng.randrange(n), "eio",
        count=rng.randint(1, 3)))
    faults.append(StorageFaultEvent(
        rng.uniform(20.0, horizon - 50.0), rng.randrange(n), "stall",
        duration=rng.uniform(0.1, 1.0)))

    return list(zip(crash_times, crash_pids)), faults, "; ".join(parts)


def fault_campaign(runs: int = 10, seed: int = 0, n: int = 6,
                   k: Optional[int] = 2, horizon: float = 300.0
                   ) -> Iterator[Tuple[str, Scenario]]:
    """Randomized crash + storage-fault runs on the file log, each with a
    line describing its faults."""
    for index in range(runs):
        rng = random.Random((seed << 20) ^ (index * 0x9E3779B1))
        run_seed = rng.randrange(1 << 30)
        policy = rng.choice(("group", "group", "strict"))
        crashes, faults, description = _campaign_faults(rng, n, horizon)
        yield f"{policy}; {description}", _filelog(
            run_seed, n, k, horizon, horizon - 100.0, crashes=crashes,
            storage_faults=faults, fsync_policy=policy)


def sweep_baseline(seed: int = 0, n: int = 4, k: Optional[int] = 2,
                   horizon: float = 200.0) -> Scenario:
    """The fault-free run whose fsyncs :func:`fsync_sweep` crashes at."""
    return _filelog(seed, n, k, horizon, horizon - 80.0)


def fsync_sweep(baseline: Scenario, fsyncs: Sequence[int],
                max_points: int = 24) -> Iterator[Tuple[int, int, Scenario]]:
    """Crash one process after its i-th fsync, for i sweeping the run.

    ``fsyncs`` is each process's fsync count in the baseline's run; the
    sweep samples up to ``max_points`` boundaries from them and re-runs
    the scenario with a ``crash_after_fsyncs`` fault pinned to each, as
    ``(pid, i, scenario)``.  The device dies immediately after that fsync
    reports success, the runtime converts it into a fail-stop crash, and
    the REDO-only restart must come back without losing a committed
    output or re-committing a duplicate.
    """
    n = baseline.n
    # The crash runs inject tokens until 100 before the horizon, the
    # baseline until 80 before it.
    point = replace(baseline, injections=random_peers(
        baseline.seed, n, baseline.horizon - 100.0))
    per_pid = max(1, max_points // max(1, n))
    for pid, total in enumerate(fsyncs):
        if total <= 0:
            continue
        stride = max(1, total // per_pid)
        for index in range(1, total + 1, stride):
            yield pid, index, replace(point, storage_faults=[
                StorageFaultEvent(0.0, pid, "crash_after_fsyncs",
                                  count=index)])
