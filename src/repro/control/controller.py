"""The per-process adaptive-K controller.

Section 4.2 observes that "different values of K can in fact be applied
to different messages in the same system" — commit dependency tracking
(Theorem 2) keeps every receiver correct whatever bound each message
carries.  That makes K a *runtime* control variable: this controller
retunes it per process through the per-message K path, trading the two
costs the paper quantifies against each other:

- **latency**: a larger K releases messages with more non-stable
  dependencies, so chains progress (and outputs commit) sooner;
- **revocation risk**: every released-but-unstable dependency is an
  interval whose loss revokes the message (Theorem 4 bounds the
  exposure by K).

The rule is AIMD over K in [``K_MIN``, k_max]: multiplicative decrease
the moment revocation evidence appears (rollbacks, restarts, orphan or
output discards since the last tick), additive increase while healthy
and under latency pressure.  Decisions are a pure function of the
observation stream — no randomness and no wall-clock reads — so
simulation traces stay deterministically replayable (see the property
tests in ``tests/properties/test_controller_properties.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Tuple

from repro.runtime.metrics import sample_percentile

#: K's floor: 0 can degrade to pessimistic-style release under sustained
#: revocation pressure.
K_MIN = 0
#: Latency samples the SLO test reads (the most recent ones).
WINDOW = 256
#: The percentile of that window the SLO test compares with the target.
SLO_PERCENTILE = 99.0
#: Additive increase per healthy tick under latency pressure.
INCREASE_STEP = 1
#: Multiplicative decrease applied on revocation evidence.
DECREASE_FACTOR = 0.5


@dataclass(frozen=True)
class Observation:
    """One control-tick snapshot of a process's recovery-layer counters.

    ``revocations`` is *cumulative* (the controller diffs successive
    observations): rollbacks + restarts + orphan discards + output
    discards, i.e. every event that proves optimism recently cost us
    work.  ``commit_waits`` are the output-commit latency samples
    collected since the previous tick.
    """

    time: float
    revocations: int
    commit_waits: Tuple[float, ...] = ()


@dataclass(frozen=True)
class KDecision:
    """One K change (the decisions trace records changes, not holds)."""

    time: float
    k: int
    reason: str


class AdaptiveKController:
    """Deterministic AIMD over the degree of optimism for one process.

    ``k_max`` is K's ceiling; ``slo_target`` is the output-commit latency
    target, and 0 disables the SLO test, making the controller always
    hungry (classic AIMD: probe up while healthy)."""

    def __init__(self, pid: int, k_max: int, slo_target: float):
        self.pid = pid
        self.k_max = k_max
        self.slo_target = slo_target
        # Start fully optimistic: under failure-free traffic that is the
        # latency-optimal point, and the first revocation evidence pulls
        # K down multiplicatively.
        self.k = k_max
        self.window: Deque[float] = deque(maxlen=WINDOW)
        #: (time, k) after every observation — the replayability witness.
        self.history: List[Tuple[float, int]] = []
        #: K *changes* only, each with its reason.
        self.decisions: List[KDecision] = [KDecision(0.0, self.k, "init")]
        self._last_revocations = 0

    # -- the per-message K policy ------------------------------------------

    def recommend(self) -> int:
        """Current K bound; installed as the protocol's ``k_policy``."""
        return self.k

    # -- the control loop -----------------------------------------------------

    def observe(self, obs: Observation) -> int:
        """Fold one observation into the loop; returns the (new) K."""
        self.window.extend(obs.commit_waits)
        revoked = obs.revocations - self._last_revocations
        self._last_revocations = obs.revocations
        if revoked > 0:
            # Multiplicative decrease: optimism just cost us work.
            new_k = max(K_MIN, int(self.k * DECREASE_FACTOR))
            reason = f"revocation x{revoked}"
        elif self._latency_pressure():
            new_k = min(self.k_max, self.k + INCREASE_STEP)
            reason = "latency-pressure"
        else:
            new_k = self.k
            reason = "hold"
        if new_k != self.k:
            self.decisions.append(KDecision(obs.time, new_k, reason))
        self.k = new_k
        self.history.append((obs.time, new_k))
        return new_k

    def _latency_pressure(self) -> bool:
        """True when the latency evidence argues for more optimism.

        With no target configured the controller is always hungry; with a
        target, pressure means the watched percentile misses it — or the
        window is empty, which under open-loop traffic means outputs are
        not committing at all (the worst possible latency)."""
        if self.slo_target <= 0 or not self.window:
            return True
        return sample_percentile(self.window, SLO_PERCENTILE) > self.slo_target

    # -- reporting -------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<AdaptiveKController P{self.pid} k={self.k} "
            f"[{K_MIN},{self.k_max}] decisions={len(self.decisions)}>"
        )
