"""Runtime K control: adaptive degree-of-optimism under live traffic.

The paper poses K as a static, system-wide parameter; Theorem 2's commit
dependency tracking is what makes *per-message*, runtime-chosen K legal
(Section 4.2).  This package closes the loop the ROADMAP asks for: a
per-process controller observes output-commit latency and revocation
risk and retunes K on the fly through the per-message K path, with a
deterministic (wall-clock-free) AIMD rule so simulated traces stay
bit-identically replayable.  See docs/CONTROL.md.
"""

from repro.control.controller import AdaptiveKController, KDecision, Observation

__all__ = [
    "AdaptiveKController",
    "KDecision",
    "Observation",
]
