"""Deterministic stimulus generation and the external load client.

``generate_stimuli`` derives the entire outside-world workload from
``(n, seed, duration, rate)`` alone, so the *same* stimulus list can be
injected into the discrete-event simulation and into a live serve run —
the backbone of the differential sim-vs-serve test.  Destinations in
``exclude`` (typically the crash victims) are never used as entry
points: an injection to a down process is dropped by both drivers, and a
nondeterministically-dropped stimulus would make the committed-output
sets incomparable.

``run_load_client`` is the ``repro load`` implementation: it connects to
a running coordinator and injects the same deterministic stimuli over
the wire, paced in real time.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Dict, Iterable, List, Optional

from repro.backplane.framing import read_frame, write_frame


def generate_stimuli(
    n: int,
    seed: int,
    duration: float,
    rate: float,
    exclude: Iterable[int] = (),
    profile: str = "uniform",
) -> List[Dict[str, Any]]:
    """Outside-world stimuli ``{"time", "dst", "payload"}`` in time order.

    ``time`` is in virtual units; ``rate`` is stimuli per unit.  Payloads
    are hop-chain requests (see :mod:`repro.app.hopchain`) of 1 to 3 hops,
    each with a globally unique tag.

    ``profile`` selects the arrival shape: ``"uniform"`` (evenly spaced,
    the closed-form historical default) or ``"openloop"`` (heavy-tailed
    Pareto interarrivals with diurnal modulation and burst episodes —
    :func:`repro.workloads.openloop.open_loop_times`).  Both are pure
    functions of the arguments, keeping sim and serve runs comparable.
    """
    excluded = set(exclude)
    targets = [pid for pid in range(n) if pid not in excluded]
    if not targets:
        raise ValueError("every process is excluded from load injection")
    rng = random.Random(f"loadgen/{seed}")
    if profile == "uniform":
        count = max(1, int(duration * rate))
        times = [(i + 1) * duration / (count + 1) for i in range(count)]
    elif profile == "openloop":
        # Imported here so plain-uniform callers never pay the import;
        # times are materialized *before* any per-stimulus draws so the
        # uniform branch's RNG stream stays byte-identical to what it
        # produced before profiles existed.
        from repro.workloads.openloop import open_loop_times

        times = list(open_loop_times(rng, rate, duration))
        if not times:
            times = [duration / 2.0]
    else:
        raise ValueError(f"unknown load profile {profile!r}")
    stimuli = []
    for i, time in enumerate(times):
        stimuli.append({
            "time": time,
            "dst": rng.choice(targets),
            "payload": {"tag": f"t{i:05d}",
                        "hops": rng.randint(1, 3)},
        })
    return stimuli


async def run_load_client(
    port: int,
    stimuli: List[Dict[str, Any]],
    timescale: float,
    host: str = "127.0.0.1",
) -> int:
    """Inject ``stimuli`` into a running coordinator; returns the count."""
    reader, writer = await asyncio.open_connection(host, port)
    write_frame(writer, {"t": "load-hello"})
    await writer.drain()
    start = asyncio.get_running_loop().time()
    sent = 0
    for stimulus in stimuli:
        due = start + stimulus["time"] * timescale
        delay = due - asyncio.get_running_loop().time()
        if delay > 0:
            await asyncio.sleep(delay)
        write_frame(writer, {"t": "inject", "dst": stimulus["dst"],
                             "payload": stimulus["payload"]})
        await writer.drain()
        sent += 1
    write_frame(writer, {"t": "load-done"})
    await writer.drain()
    # The coordinator confirms once every inject has been routed.
    await read_frame(reader)
    writer.close()
    return sent


def load_main(port: int, n: int, seed: int, duration: float, rate: float,
              timescale: float, exclude: Iterable[int] = (),
              profile: str = "uniform") -> int:
    """Synchronous entry point for ``repro load``."""
    stimuli = generate_stimuli(n, seed, duration, rate, exclude=exclude,
                               profile=profile)
    sent = asyncio.run(run_load_client(port, stimuli, timescale))
    print(f"injected {sent} stimuli")
    return 0
