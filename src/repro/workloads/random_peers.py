"""Uniform peer-gossip workload.

Tokens are injected at Poisson times to random processes; each delivery
forwards the token to a random peer until its hop budget is exhausted, and
the final hop may emit an outside-world output.  Hop chains build exactly
the transitive cross-process dependencies that make dependency vectors grow
— the stress case for commit dependency tracking.
"""

from __future__ import annotations

from typing import Any, Iterator, Tuple

from repro.app.behavior import AppBehavior, AppContext
from repro.workloads.base import Workload, poisson_times


class TokenBehavior(AppBehavior):
    """Forward tokens for ``hops`` more steps; output on the last hop."""

    def initial_state(self, pid: int, n: int) -> Any:
        return {"tokens_seen": 0, "work": 0}

    def on_message(self, state: Any, payload: Any, ctx: AppContext) -> Any:
        state["tokens_seen"] += 1
        # A little deterministic "work" so state evolves measurably.
        state["work"] = (state["work"] * 31 + payload.get("token", 0)) % 1_000_003
        hops = payload.get("hops", 0)
        if hops > 0:
            # A uniform peer other than ourselves, without building the
            # O(n) peer list: index i of that list is pid i below us, i+1 above.
            i = ctx.rng.randrange(ctx.n - 1)
            dst = i if i < ctx.pid else i + 1
            ctx.send(dst, {
                "token": payload.get("token", 0),
                "hops": hops - 1,
                "emit_output": payload.get("emit_output", False),
            })
        elif payload.get("emit_output"):
            ctx.output({"token": payload.get("token", 0), "work": state["work"]})
        return state


class RandomPeersWorkload(Workload):
    """Poisson token injection over all processes."""

    def __init__(
        self,
        rate: float = 0.5,
        min_hops: int = 2,
        max_hops: int = 6,
        output_fraction: float = 0.25,
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
        return TokenBehavior()

    def injections(self, rngs, n: int,
                   until: float) -> Iterator[Tuple[float, int, dict]]:
        """Every ``(time, dst, payload)`` of a run of ``n`` processes,
        drawn up front from ``rngs``' ``workload/random_peers`` stream."""
        rng = rngs.stream("workload/random_peers")
        for token, time in enumerate(poisson_times(rng, self.rate, until)):
            dst = rng.randrange(n)
            yield time, dst, {
                "token": token,
                "hops": rng.randint(self.min_hops, self.max_hops),
                "emit_output": rng.random() < self.output_fraction,
            }

    def install(self, harness, until: float) -> None:
        for time, dst, payload in self.injections(
                harness.rngs, harness.config.n, until):
            harness.inject_at(time, dst, payload)
