"""The Strom & Yemini optimistic recovery baseline (TOCS 1985).

The classical protocol the paper improves on.  Differences from the
K-optimistic protocol:

- **always-size-N tracking** — no commit dependency tracking: entries are
  never nullified by logging progress, so every message carries (close to)
  one entry per process it causally depends on;
- **no send buffer** and **announcements on every rollback**, shared with
  the fully asynchronous and direct-tracking baselines
  (:mod:`repro.core.baselines.immediate`);
- **incarnation-gated delivery** — delivery of a message carrying a
  dependency on incarnation t of P_i is delayed until the rollback
  announcement ending incarnation t-1 of P_i has arrived, so the vector
  only ever needs one entry per process (the coupling of dependency and
  failure-information propagation described in Section 2).
"""

from __future__ import annotations

from repro.core.baselines.immediate import ImmediateReleaseProcess
from repro.net.message import AppMessage


class StromYeminiProcess(ImmediateReleaseProcess):
    """Classical optimistic recovery with full transitive vectors.

    Strom & Yemini assume FIFO channels: run it with
    ``SimConfig(fifo=True)``."""

    def __init__(self, pid, n, k=None, behavior=None, **kwargs):
        kwargs["nullify_own_on_flush"] = False
        super().__init__(pid, n, k, behavior, **kwargs)

    # -- no commit dependency tracking ------------------------------------

    def _nullify_stable_tdv_entries(self, merged=None) -> None:
        """Logging progress never shrinks the vector (pre-Theorem-2)."""

    # -- incarnation-gated delivery -----------------------------------------

    def _deliverable(self, msg: AppMessage) -> bool:
        """Delay m until, for each dependency on incarnation t of P_j, the
        ends of all incarnations below t are known; the lexicographic-max
        merge is then unambiguous (Strom & Yemini's rule, which the paper's
        Corollary 1 relaxes)."""
        for pid, m_entry in msg.tdv.items():
            if pid == self.pid:
                continue
            if m_entry.inc > self.iet.highest_ended_incarnation(pid) + 1:
                return False
        return True
