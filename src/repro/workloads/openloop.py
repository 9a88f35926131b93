"""Open-loop heavy-traffic workload: the millions-of-users arrival shape.

Closed-loop generators (inject, wait, inject) flatter a recovery protocol:
backpressure hides every latency excursion.  Production front-end traffic
is *open-loop* — arrivals do not wait for the system — and three shape
features dominate its tail behaviour:

- **heavy-tailed interarrivals** (Pareto): most gaps are short, a few are
  very long, so load arrives in uneven clumps rather than a Poisson purr;
- **diurnal modulation**: a slow sinusoid over the base rate models the
  daily cycle of a planet-scale user population;
- **burst episodes**: with small probability an arrival opens a burst
  window during which the rate is multiplied — flash crowds.

Every payload carries its injection time ``t0``, and the final hop of a
token chain copies ``t0`` into the output payload, so the runtime can
account *end-to-end* output-commit latency (injection to commit) — the
quantity the adaptive-K controller's SLO is stated over.

All randomness comes from the caller's RNG, so the same
``(seed, rate, until)`` triple yields the same arrival schedule in the
simulator and in the serve backplane's load generator
(:func:`repro.backplane.loadgen.generate_stimuli` with
``profile="openloop"``).
"""

from __future__ import annotations

import math
import random
from typing import Any, Iterator

from repro.app.behavior import AppBehavior, AppContext
from repro.workloads.base import Workload


def open_loop_times(
    rng: random.Random,
    rate: float,
    until: float,
    *,
    alpha: float = 1.7,
    diurnal_amplitude: float = 0.4,
    diurnal_period: float = 400.0,
    burst_probability: float = 0.02,
    burst_multiplier: float = 6.0,
    burst_mean_length: float = 12.0,
) -> Iterator[float]:
    """Yield open-loop arrival times in ``[0, until)``.

    Interarrival gaps are Pareto(``alpha``) scaled so the *instantaneous*
    mean rate tracks ``rate`` modulated by a diurnal sinusoid; a burst
    episode (geometric length, mean ``burst_mean_length`` arrivals)
    multiplies the instantaneous rate by ``burst_multiplier``.
    ``alpha`` must exceed 1 (a finite-mean tail), and values close to 1
    make the tail heavier.
    """
    if rate <= 0:
        return
    if alpha <= 1.0:
        raise ValueError(f"alpha must be > 1 for a finite mean, got {alpha}")
    if not 0.0 <= diurnal_amplitude < 1.0:
        raise ValueError(
            f"diurnal_amplitude must be in [0, 1), got {diurnal_amplitude}"
        )
    t = 0.0
    burst_left = 0
    # Pareto(alpha, xm) has mean xm * alpha / (alpha - 1); choose xm so
    # the mean gap is 1/r at the instantaneous rate r.
    mean_factor = (alpha - 1.0) / alpha
    while True:
        r = rate
        if diurnal_amplitude > 0:
            r *= 1.0 + diurnal_amplitude * math.sin(
                2.0 * math.pi * t / diurnal_period
            )
        if burst_left > 0:
            burst_left -= 1
            r *= burst_multiplier
        elif burst_probability > 0 and rng.random() < burst_probability:
            burst_left = 1 + int(rng.expovariate(1.0 / burst_mean_length))
        xm = mean_factor / max(r, 1e-9)
        t += xm * rng.paretovariate(alpha)
        if t >= until:
            return
        yield t


class OpenLoopBehavior(AppBehavior):
    """Token hop-chains that carry their injection time end to end.

    Identical in spirit to :class:`~repro.workloads.random_peers.TokenBehavior`
    but every forwarded payload and every emitted output keeps the
    injection stamp ``t0``, enabling end-to-end commit-latency SLOs.
    """

    def initial_state(self, pid: int, n: int) -> Any:
        return {"tokens_seen": 0, "work": 0}

    def next_hop(self, ctx: AppContext) -> int:
        """A uniform peer other than ourselves, without building the O(n)
        peer list: index i of that list is pid i below us, i+1 above."""
        i = ctx.rng.randrange(ctx.n - 1)
        return i if i < ctx.pid else i + 1

    def on_message(self, state: Any, payload: Any, ctx: AppContext) -> Any:
        state["tokens_seen"] += 1
        state["work"] = (state["work"] * 31 + payload.get("token", 0)) % 1_000_003
        hops = payload.get("hops", 0)
        if hops > 0:
            ctx.send(self.next_hop(ctx), {
                "token": payload.get("token", 0),
                "hops": hops - 1,
                "emit_output": payload.get("emit_output", False),
                "t0": payload.get("t0", 0.0),
            })
        elif payload.get("emit_output"):
            ctx.output({
                "token": payload.get("token", 0),
                "work": state["work"],
                "t0": payload.get("t0", 0.0),
            })
        return state


class OpenLoopWorkload(Workload):
    """Open-loop token injection: heavy tails, diurnal cycle, bursts, in
    :func:`open_loop_times`'s default shape."""

    def __init__(
        self,
        rate: float = 1.0,
        min_hops: int = 2,
        max_hops: int = 6,
        output_fraction: float = 0.5,
    ):
        if not 0 <= min_hops <= max_hops:
            raise ValueError("need 0 <= min_hops <= max_hops")
        if not 0.0 <= output_fraction <= 1.0:
            raise ValueError("output_fraction must be in [0, 1]")
        self.rate = rate
        self.min_hops = min_hops
        self.max_hops = max_hops
        self.output_fraction = output_fraction

    def behavior(self) -> AppBehavior:
        return OpenLoopBehavior()

    def install(self, harness, until: float) -> None:
        rng = harness.rngs.stream("workload/openloop")
        for token, time in enumerate(open_loop_times(rng, self.rate, until)):
            dst = rng.randrange(harness.config.n)
            payload = {
                "token": token,
                "hops": rng.randint(self.min_hops, self.max_hops),
                "emit_output": rng.random() < self.output_fraction,
                "t0": time,
            }
            harness.inject_at(time, dst, payload)
