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

The rule is AIMD over K in [k_min, k_max]: multiplicative decrease the
moment revocation evidence appears (rollbacks, restarts, orphan or
output discards since the last tick), additive increase while healthy
and under latency pressure.  Decisions are a pure function of
``(seed, observation stream)`` — the only randomness is a named-seeded
RNG used for optional exploration probes, and there are no wall-clock
reads — so simulation traces stay deterministically replayable (see the
property tests in ``tests/properties/test_controller_properties.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.control.slo import LatencyWindow


@dataclass(frozen=True)
class ControllerConfig:
    """Tuning knobs for one :class:`AdaptiveKController`."""

    #: Inclusive K bounds.  ``k_min=0`` can degrade to pessimistic-style
    #: release under sustained revocation pressure.
    k_min: int = 0
    k_max: int = 4
    #: Output-commit latency target; 0 disables the SLO test, making the
    #: controller always hungry (classic AIMD: probe up while healthy).
    slo_target: float = 0.0
    #: Which percentile of the latency window the SLO test evaluates.
    slo_percentile: float = 99.0
    #: Sliding-window size for latency samples.
    window: int = 256
    #: Additive increase per healthy tick under latency pressure.
    increase_step: int = 1
    #: Multiplicative decrease applied on revocation evidence.
    decrease_factor: float = 0.5
    #: Probability of probing one step up on a healthy tick that is
    #: *not* under latency pressure (0 disables exploration).
    explore_probability: float = 0.0

    def validate(self) -> None:
        if self.k_min < 0:
            raise ValueError(f"k_min must be >= 0, got {self.k_min}")
        if self.k_max < self.k_min:
            raise ValueError(
                f"k_max ({self.k_max}) must be >= k_min ({self.k_min})"
            )
        if not 0.0 < self.slo_percentile <= 100.0:
            raise ValueError(
                f"slo_percentile must be in (0, 100], got {self.slo_percentile}"
            )
        if self.slo_target < 0:
            raise ValueError(f"slo_target must be >= 0, got {self.slo_target}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.increase_step < 1:
            raise ValueError(
                f"increase_step must be >= 1, got {self.increase_step}"
            )
        if not 0.0 <= self.decrease_factor < 1.0:
            raise ValueError(
                f"decrease_factor must be in [0, 1), got {self.decrease_factor}"
            )
        if not 0.0 <= self.explore_probability <= 1.0:
            raise ValueError(
                "explore_probability must be in [0, 1], "
                f"got {self.explore_probability}"
            )


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
    """Deterministic AIMD over the degree of optimism for one process."""

    def __init__(self, pid: int, config: ControllerConfig, seed: int = 0):
        config.validate()
        self.pid = pid
        self.config = config
        # Start fully optimistic: under failure-free traffic that is the
        # latency-optimal point, and the first revocation evidence pulls
        # K down multiplicatively.
        self.k = config.k_max
        self.window = LatencyWindow(config.window)
        #: (time, k) after every observation — the replayability witness.
        self.history: List[Tuple[float, int]] = []
        #: K *changes* only, each with its reason.
        self.decisions: List[KDecision] = [KDecision(0.0, self.k, "init")]
        self._last_revocations = 0
        # A named-seeded stream: decisions depend on (seed, pid, stream)
        # alone — never on wall clock or interleaving with other streams.
        self._rng = random.Random(f"adaptive-k/{seed}/{pid}")

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
        cfg = self.config
        if revoked > 0:
            # Multiplicative decrease: optimism just cost us work.
            new_k = max(cfg.k_min, int(self.k * cfg.decrease_factor))
            reason = f"revocation x{revoked}"
        elif self._latency_pressure():
            new_k = min(cfg.k_max, self.k + cfg.increase_step)
            reason = "latency-pressure"
        elif (cfg.explore_probability > 0
              and self._rng.random() < cfg.explore_probability):
            new_k = min(cfg.k_max, self.k + cfg.increase_step)
            reason = "probe"
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
        if self.config.slo_target <= 0:
            return True
        if self.window.count == 0:
            return True
        watched = self.window.percentile(self.config.slo_percentile)
        return watched > self.config.slo_target

    # -- reporting -------------------------------------------------------------

    def mean_k(self) -> float:
        """Mean K over the recorded history (k_max before any tick)."""
        if not self.history:
            return float(self.k)
        return sum(k for _, k in self.history) / len(self.history)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<AdaptiveKController P{self.pid} k={self.k} "
            f"[{self.config.k_min},{self.config.k_max}] "
            f"decisions={len(self.decisions)}>"
        )
