"""Seeded input generators and the six benchmark workloads.

The program under test receives only what this module generates: lists of
``(time, dst, payload)`` stimuli handed over through ``inject_at`` (or, for
the live stack, over one TCP connection), and lists of ``(time, pid)``
crashes.  Every list is a pure function of ``(workload, seed, iteration)``.

Token payloads follow ``repro.workloads.openloop.OpenLoopBehavior``: a token
makes ``hops`` forwards between random peers, and every second token emits an
output at the end of the chain.  ``t0`` stamps the injection time so the
runtime accounts commit latency from injection.
"""

from __future__ import annotations

import math
import os
import random
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
_SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
if not os.path.isdir(os.path.join(_SRC, "repro")):
    raise ImportError(
        f"the program under test is missing: no package at {_SRC}/repro")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.failures.injector import CrashEvent, FailureSchedule  # noqa: E402
from repro.runtime.config import SimConfig  # noqa: E402
from repro.runtime.harness import SimulationHarness  # noqa: E402
from repro.workloads.openloop import OpenLoopBehavior  # noqa: E402

Stimulus = Tuple[float, int, Dict[str, Any]]
Crash = Tuple[float, int]

MIN_HOPS, MAX_HOPS = 2, 6
#: A stimulus never enters at a process that is down or about to crash
#: with the stimulus still in its volatile buffer: nobody retransmits an
#: outside-world message, so it would be lost by design (footnote 3) and
#: "token never committed" would be a property of the inputs, not the
#: program.  (``repro.backplane.loadgen`` excludes crash victims likewise.)
DOWN_MARGIN = 1.0


def stream(workload: str, seed: int, iteration: int, name: str) -> random.Random:
    """The named random stream of one iteration of one workload."""
    return random.Random(f"bench/{workload}/{seed}/{iteration}/{name}")


# -- arrival processes ---------------------------------------------------------


def poisson_times(rng: random.Random, rate: float, until: float) -> List[float]:
    """Poisson arrivals at ``rate`` per virtual unit on ``[0, until)``."""
    times = []
    t = rng.expovariate(rate)
    while t < until:
        times.append(t)
        t += rng.expovariate(rate)
    return times


def bursty_times(rng: random.Random, rate: float, until: float,
                 alpha: float = 1.7,
                 diurnal: Tuple[float, float] = (0.4, 400.0),
                 bursts: Tuple[float, float, float] = (0.02, 6.0, 12.0),
                 ) -> List[float]:
    """Open-loop arrivals with mean ``rate``: Pareto(``alpha``) gaps, a
    sinusoid of ``diurnal = (amplitude, period)`` over the rate, and burst
    episodes ``bursts = (probability, multiplier, mean length)`` during
    which the rate is multiplied."""
    amplitude, period = diurnal
    burst_probability, burst_multiplier, burst_length = bursts
    gap_scale = (alpha - 1.0) / alpha  # Pareto(alpha, xm) has mean xm*alpha/(alpha-1)
    times = []
    t = 0.0
    burst_left = 0
    while True:
        r = rate * (1.0 + amplitude * math.sin(2.0 * math.pi * t / period))
        if burst_left > 0:
            burst_left -= 1
            r *= burst_multiplier
        elif rng.random() < burst_probability:
            burst_left = 1 + int(rng.expovariate(1.0 / burst_length))
        t += gap_scale / r * rng.paretovariate(alpha)
        if t >= until:
            return times
        times.append(t)


# -- crash schedules -----------------------------------------------------------


def spread_crashes(rng: random.Random, n: int, count: int,
                   duration: float) -> List[Crash]:
    """``count`` single crashes, evenly spaced, on seeded processes."""
    return [((i + 1) / (count + 3) * duration, rng.randrange(n))
            for i in range(count)]


def clustered_crashes(rng: random.Random, n: int, clusters: int,
                      duration: float, size: int = 4,
                      gap: float = 60.0) -> List[Crash]:
    """``clusters`` groups of ``size`` crashes ``gap`` units apart, each
    group on distinct seeded processes."""
    crashes = []
    for c in range(clusters):
        base = (c + 1) / (clusters + 1) * duration
        for j, pid in enumerate(rng.sample(range(n), size)):
            crashes.append((base + j * gap, pid))
    return crashes


# -- stimuli -------------------------------------------------------------------


def token_stimuli(rng: random.Random, times: List[float], n: int,
                  crashes: List[Crash], unlogged: float,
                  restart_delay: float) -> List[Stimulus]:
    """One hop-chain token per arrival time, entering at a process that
    stays up for the ``unlogged`` units a delivery can wait for its flush."""
    stimuli = []
    for token, t in enumerate(times):
        down = {pid for at, pid in crashes
                if at - unlogged - DOWN_MARGIN <= t
                <= at + restart_delay + DOWN_MARGIN}
        dst = rng.randrange(n)
        while dst in down:
            dst = rng.randrange(n)
        stimuli.append((t, dst, {
            "token": token,
            "hops": rng.randint(MIN_HOPS, MAX_HOPS),
            # Every second token emits: exactly half, so outputs per
            # delivery do not add seed-to-seed noise of their own.
            "emit_output": token % 2 == 0,
            "t0": t,
        }))
    return stimuli


class StimulusList:
    """The workload object ``ParallelHarness`` installs in every forked
    worker: the same stimulus list, injected in the same order, so message
    sequence numbers match the serial run."""

    def __init__(self, stimuli: List[Stimulus]):
        self.stimuli = stimuli

    def install(self, harness: Any, until: float = 0.0) -> None:
        for time, dst, payload in self.stimuli:
            harness.inject_at(time, dst, payload)


# -- simulated workloads -------------------------------------------------------


@dataclass(frozen=True)
class Inputs:
    """Everything one iteration hands to the program."""

    seed: int
    duration: float
    stimuli: List[Stimulus]
    crashes: List[Crash]

    @property
    def expected_outputs(self) -> Dict[int, float]:
        """Token -> injection time, for every token that must emit."""
        return {p["token"]: p["t0"] for _, _, p in self.stimuli
                if p["emit_output"]}


@dataclass(frozen=True)
class SimWorkload:
    """One simulated workload: configuration plus input recipe."""

    name: str
    why: str
    #: ``SimConfig`` fields that differ from the defaults.
    config: Dict[str, Any]
    duration: float
    #: Tokens per process per virtual unit, injected on
    #: ``[0, inject_fraction * duration)``.
    rate: float
    inject_fraction: float
    arrivals: str = "poisson"
    #: ``("spread", count)`` or ``("clusters", count)`` at scale 1.
    crashes: Optional[Tuple[str, int]] = None
    #: Wall seconds one iteration takes on the 2-core reference box; the
    #: runner executes ``round(seconds / iteration_s)`` iterations.
    iteration_s: float = 3.3
    #: Certify the ``dep.*`` trace post hoc (no inline oracle).
    certify: bool = False
    #: The serial workload whose figures this one must reproduce exactly.
    twin: Optional[str] = None
    kind: str = field(default="sim", init=False)

    @property
    def n(self) -> int:
        return self.config["n"]

    @property
    def parallel(self) -> bool:
        """Runs on forked epoch-barrier workers (``ParallelHarness``)."""
        return self.config.get("parallel_workers", 0) > 1

    def inputs(self, seed: int, iteration: int, scale: float = 1.0) -> Inputs:
        # A twin draws from its serial workload's streams: identical inputs.
        owner = self.twin or self.name
        duration = max(40.0, self.duration * scale)
        defaults = SimConfig()
        crashes: List[Crash] = []
        if self.crashes is not None:
            shape, count = self.crashes
            count = max(1, round(count * scale))
            rng = stream(owner, seed, iteration, "crashes")
            if shape == "spread":
                crashes = spread_crashes(rng, self.n, count, duration)
            else:
                crashes = clustered_crashes(rng, self.n, count, duration)
        rng = stream(owner, seed, iteration, "arrivals")
        generate = poisson_times if self.arrivals == "poisson" else bursty_times
        times = generate(rng, self.rate * self.n,
                         self.inject_fraction * duration)
        stimuli = token_stimuli(stream(owner, seed, iteration, "tokens"),
                                times, self.n, crashes,
                                defaults.flush_interval,
                                defaults.restart_delay)
        return Inputs(seed * 1000 + iteration, duration, stimuli, crashes)

    def build(self, inputs: Inputs, storage_dir: str) -> Any:
        """A ready-to-run harness with the inputs installed."""
        fields = dict(self.config, seed=inputs.seed)
        if fields.get("storage_backend") == "filelog":
            fields["storage_dir"] = storage_dir
        config = SimConfig(**fields)
        failures = FailureSchedule(
            [CrashEvent(time, pid) for time, pid in inputs.crashes])
        if self.parallel:
            from repro.parallel import ParallelHarness

            return ParallelHarness(
                config, OpenLoopBehavior(), failures=failures,
                workload=StimulusList(inputs.stimuli),
                install_until=inputs.duration)
        harness = SimulationHarness(config, OpenLoopBehavior(),
                                    failures=failures)
        StimulusList(inputs.stimuli).install(harness)
        return harness


_GOSSIP_N1024 = {
    "n": 1024, "k": 4, "notify_fanout": 8,
    "oracle_enabled": False, "check_invariants": False,
    "trace_prefix": "dep.", "dep_trace": True,
}


# -- the live stack ------------------------------------------------------------


@dataclass(frozen=True)
class ServeWorkload:
    """The deployed path: worker OS processes behind the TCP coordinator,
    driven by this benchmark as the external open-loop load client."""

    name: str
    why: str
    n: int = 2
    k: int = 1
    timescale: float = 0.005
    #: Stimuli per wall second, on a fixed schedule.
    rate: float = 200.0
    hops: Tuple[int, int] = (1, 3)
    kind: str = field(default="serve", init=False)

    def stimuli(self, seed: int, iteration: int,
                seconds: float) -> List[Dict[str, Any]]:
        """``{"due", "dst", "payload"}`` with ``due`` in wall seconds after
        the start of the schedule."""
        rng = stream(self.name, seed, iteration, "stimuli")
        return [{"due": (i + 1) / self.rate,
                 "dst": rng.randrange(self.n),
                 "payload": {"tag": f"t{i:06d}",
                             "hops": rng.randint(*self.hops)}}
                for i in range(max(1, int(seconds * self.rate)))]


async def run_load_client(port: int, stimuli: List[Dict[str, Any]],
                          ) -> Tuple[Dict[str, float], List[float]]:
    """Send ``stimuli`` on one connection, each at its due time whether or
    not earlier ones were answered (open loop).

    Returns the epoch second each tag was *due* (latency is timed from
    there, so a late generator cannot hide queueing) and how late each
    send actually left."""
    import asyncio
    import time

    from repro.backplane.framing import read_frame, write_frame

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        write_frame(writer, {"t": "load-hello"})
        await writer.drain()
        loop = asyncio.get_running_loop()
        start, epoch = loop.time(), time.time()
        due_at: Dict[str, float] = {}
        lags: List[float] = []
        for stimulus in stimuli:
            due = start + stimulus["due"]
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(max(0.0, loop.time() - due))
            due_at[stimulus["payload"]["tag"]] = epoch + stimulus["due"]
            write_frame(writer, {"t": "inject", "dst": stimulus["dst"],
                                 "payload": stimulus["payload"]})
            await writer.drain()
        write_frame(writer, {"t": "load-done"})
        await writer.drain()
        await read_frame(reader)  # the coordinator confirms every inject
    finally:
        writer.close()
    return due_at, lags


# -- the suite -----------------------------------------------------------------

WORKLOADS = (
    SimWorkload(
        name="steady_dense_n64",
        why="Failure-free hot path under per-process load on the dense-numpy "
            "tables with n^2 notification broadcasts and the inline oracle; "
            "dominant layers core.protocol + core.tables, storage ~0.",
        config={"n": 64, "k": 4},
        duration=200.0, rate=0.25, inject_fraction=0.7,
    ),
    SimWorkload(
        name="crash_filelog_n16",
        why="Durable journal, fsync, REDO restart and rollback/replay on the "
            "list-backed tables (n<64) under evenly spaced crashes; dominant "
            "layer storage, protocol work is light.",
        config={"n": 16, "k": 2, "storage_backend": "filelog",
                "retransmit_window": 32},
        duration=1200.0, rate=0.08, inject_fraction=0.9,
        crashes=("spread", 8),
    ),
    SimWorkload(
        name="chaos_adaptive_n16",
        why="Lossy network (drop/dup/reorder), ack and retransmit timers, "
            "crash clusters and the adaptive-K controller under bursty "
            "arrivals; dominant layers core.protocol + net + control.",
        config={"n": 16, "k": 8, "adaptive_k": True, "k_max": 8,
                "slo_output_latency": 90.0, "control_interval": 10.0,
                "drop_rate": 0.05, "duplicate_rate": 0.02,
                "reorder_rate": 0.05, "retransmit_window": 32},
        duration=1500.0, rate=0.1, inject_fraction=0.9,
        arrivals="bursty", crashes=("clusters", 2),
    ),
    SimWorkload(
        name="scale_gossip_n1024",
        why="Width: 3 periodic timers x 1024 processes, fanout-8 full-table "
            "gossip merges, O(n) app work per hop, no inline oracle "
            "(certified post hoc); dominant layers sim + core.tables + app.",
        config=dict(_GOSSIP_N1024),
        duration=200.0, rate=0.02, inject_fraction=0.3,
        iteration_s=5.0, certify=True,
    ),
    SimWorkload(
        name="scale_gossip_n1024_par2",
        why="The same inputs as scale_gossip_n1024 on 2 forked epoch-barrier "
            "workers: prices repro.parallel against its serial twin on real "
            "cores; dominant layer parallel (barrier + exchange).",
        config=dict(_GOSSIP_N1024, parallel_workers=2),
        duration=200.0, rate=0.02, inject_fraction=0.3,
        iteration_s=5.0, certify=True, twin="scale_gossip_n1024",
    ),
    ServeWorkload(
        name="serve_paced_n2",
        why="The deployed path: 2 worker OS processes, asyncio TCP star, "
            "codec, wall-clock timers, JSONL tracer and file journals under "
            "a paced open-loop client; dominant layer backplane.",
    ),
)


def workload_by_name(name: str) -> Any:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(f"unknown workload {name!r}; "
                   f"known: {[w.name for w in WORKLOADS]}")
