"""The piecewise-deterministic (PWD) application model.

The paper's execution model: a process's execution is a sequence of state
intervals, each started by a nondeterministic *message-delivering* event;
execution within an interval is completely deterministic.  We enforce that
shape by construction:

- all application state lives in a plain value handed to and returned by
  the handler (the recovery layer checkpoints and deep-copies it);
- the handler may interact with the world only through the
  :class:`AppContext` (sends, outputs, and a deterministic per-interval RNG);
- the handler is invoked once per delivered message and must be a pure
  function of ``(state, payload, ctx)``.

Deterministic replay after a failure re-runs the same handler on the same
logged messages in the same order and therefore reconstructs bit-identical
state — the property every message-logging protocol rests on.
"""

from __future__ import annotations

import random
from typing import Any, List, Optional, Tuple

from repro.types import ProcessId


class AppContext:
    """Capabilities available to a handler during one state interval."""

    __slots__ = ("pid", "n", "inc", "sii", "_seed", "_rng", "_sends",
                 "_outputs")

    def __init__(self, pid: ProcessId, n: int, inc: int, sii: int, seed: int):
        self.pid = pid
        self.n = n
        self.inc = inc
        self.sii = sii
        self._seed = seed
        self._rng: Optional[random.Random] = None
        self._sends: List[Tuple[ProcessId, Any, Optional[int]]] = []
        self._outputs: List[Any] = []

    @property
    def rng(self) -> random.Random:
        """The interval's RNG, seeded purely by the interval identity, so a
        replayed interval draws the same numbers as the original execution.
        It is seeded when first read: a handler that never draws does not
        pay for the seeding."""
        if self._rng is None:
            self._rng = random.Random(
                f"{self._seed}/{self.pid}/{self.inc}/{self.sii}")
        return self._rng

    def send(self, dst: ProcessId, payload: Any, k: Optional[int] = None) -> None:
        """Queue an application message to ``dst``.

        ``k`` optionally overrides the system-wide degree of optimism for
        this one message — Section 4.2: "different values of K can in fact
        be applied to different messages in the same system".  ``k=0``
        makes this message as safe as an output (never revocable).
        """
        if not 0 <= dst < self.n:
            raise ValueError(f"destination {dst} out of range [0, {self.n})")
        if dst == self.pid:
            raise ValueError("self-sends are not supported; use local state")
        if k is not None and k < 0:
            raise ValueError(f"per-message K must be >= 0, got {k}")
        self._sends.append((dst, payload, k))

    def output(self, payload: Any) -> None:
        """Queue an outside-world output (printed result, DB update, ...)."""
        self._outputs.append(payload)

    @property
    def sends(self) -> List[Tuple[ProcessId, Any]]:
        """(dst, payload) pairs, in send order."""
        return [(dst, payload) for dst, payload, _k in self._sends]

    @property
    def sends_with_limits(self) -> List[Tuple[ProcessId, Any, Optional[int]]]:
        """(dst, payload, per-message-K) triples, in send order."""
        return list(self._sends)

    @property
    def outputs(self) -> List[Any]:
        return list(self._outputs)


class AppBehavior:
    """Base class for deterministic application behaviours (workloads)."""

    def initial_state(self, pid: ProcessId, n: int) -> Any:
        """The application state a process starts (and restarts) from."""
        return {}

    def on_message(self, state: Any, payload: Any, ctx: AppContext) -> Any:
        """Handle one delivered message; return the new application state.

        Must be deterministic in ``(state, payload, ctx)``.  May mutate and
        return ``state`` or return a fresh value.
        """
        raise NotImplementedError


class EchoBehavior(AppBehavior):
    """Trivial behaviour used by unit tests: counts deliveries, optionally
    forwards ``{"forward_to": pid, "payload": ...}`` requests."""

    def initial_state(self, pid: ProcessId, n: int) -> Any:
        return {"delivered": 0, "log": []}

    def on_message(self, state: Any, payload: Any, ctx: AppContext) -> Any:
        state["delivered"] += 1
        state["log"].append(payload)
        if isinstance(payload, dict):
            if "forward_to" in payload:
                ctx.send(payload["forward_to"], payload.get("payload"))
            if payload.get("output"):
                ctx.output(payload["output"])
        return state
