"""What Strom & Yemini, the fully asynchronous protocol and direct tracking
share: no degree of optimism, and an announcement for every rollback.

- **K = N, no send buffer** — a message leaves as soon as it is sent,
  through the same per-message tail as a K-optimistic release
  (:meth:`~repro.core.protocol.KOptimisticProcess._release_held`), so
  hold-time statistics, the footnote-3 sent-log and timer-driven
  retransmission work for these protocols exactly as for the default;
- **every rollback announced** — a rolled-back process "starts a new
  incarnation as if it itself has failed" and broadcasts the end of the
  incarnation it left.  Theorem 1 shows K-optimistic logging needs no
  such announcement; these protocols predate that result or, tracking
  only direct dependencies, cannot do without it.
"""

from __future__ import annotations

from typing import List

from repro.core.effects import Effect
from repro.core.entry import Entry
from repro.core.protocol import KOptimisticProcess
from repro.net.message import FailureAnnouncement


class ImmediateReleaseProcess(KOptimisticProcess):
    """Releases every send at once (K = N) and announces every rollback."""

    def __init__(self, pid, n, k=None, behavior=None, **kwargs):
        del k  # no degree of optimism: nothing is ever held
        super().__init__(pid, n, n, behavior, **kwargs)

    def _check_send_buffer(self) -> List[Effect]:
        """Release the whole send buffer, in order, vectors intact."""
        effects: List[Effect] = []
        now = self.now_fn()
        for msg in self.send_buffer:
            effects += self._release_held(msg, now)
        self.send_buffer = []
        return effects

    def _rollback(self) -> List[Effect]:
        old_inc = max(self._highest_inc, self.current.inc)
        effects = super()._rollback()
        end = Entry(old_inc, self.current.sii - 1)
        announcement = FailureAnnouncement(self.pid, end)
        self.storage.log_announcement(announcement)
        self.iet.insert(self.pid, end)
        self.log.insert(self.pid, end)
        effects += self._broadcast(announcement)
        return effects
