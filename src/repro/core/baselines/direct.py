"""Direct dependency tracking (Section 5 related work).

"Direct dependency tracking techniques [6, 7, 10] piggyback only the
sender's current state interval index, and so are in general more
scalable.  The tradeoff is that, at the time of output commit and
recovery, the system needs to assemble direct dependencies to obtain
transitive dependencies."

This baseline realizes that point in the design space:

- **piggyback** — exactly one entry: the sender's current interval;
- **recovery** — a receiver can only detect orphanhood w.r.t. processes it
  heard from *directly*, so every rollback (not just failures) must be
  announced; orphan elimination then cascades announcement by
  announcement, which is the "assembly at recovery time" cost: more
  announcements and more rollback rounds instead of bigger messages;
- **output commit** — sound commit requires assembling the transitive
  closure of direct dependencies across processes (Johnson's commit
  algorithm), a separate sub-protocol this reproduction scopes out;
  behaviours that emit outputs are rejected so the omission cannot be
  mistaken for support.

The scalability comparison against transitive tracking (message size vs
announcement traffic and rollback rounds) is measured in
``repro.experiments.direct_tracking``.

A fair warning that is itself a finding: this baseline is *deliberately
naive* — it has none of the session/synchronization machinery real
direct-tracking systems add on top — and its announcement cascade is
extremely schedule-sensitive.  On adverse seeds two processes can keep
re-orphaning each other's re-deliveries for a very long virtual time
before quiescing (the engine's max-event guard bounds it).  E9 uses a
schedule that converges quickly; the contrast with one-round transitive
recovery is the point.
"""

from __future__ import annotations

from typing import Any, List

from repro.core.baselines.immediate import ImmediateReleaseProcess
from repro.core.depvec import DependencyVector
from repro.core.effects import Effect


class DirectDependencyProcess(ImmediateReleaseProcess):
    """Sender-index-only piggybacking with cascaded rollback announcements.

    Messages leave at once (scalability is the point of the scheme), and
    every rollback is announced: downstream processes only carry *direct*
    dependencies, so transitive orphan elimination works by propagating
    announcements hop by hop."""

    def __init__(self, pid, n, k=None, behavior=None, **kwargs):
        # Theorem 3 reclaims everything before a checkpoint whose vector is
        # all stable, which proves the checkpoint can never be orphaned only
        # when the vector is transitive.  A direct vector omits the
        # dependencies a cascade later revokes, so reclamation could leave
        # no checkpoint to roll back to: this scheme keeps its history.
        kwargs["gc_on_checkpoint"] = False
        super().__init__(pid, n, k, behavior, **kwargs)

    # -- one-entry piggyback ---------------------------------------------------

    def _piggyback_vector(self) -> DependencyVector:
        """Only the sender's current interval index travels."""
        vector = DependencyVector(self.n)
        vector.set(self.pid, self.current)
        return vector

    # -- outputs are out of scope ------------------------------------------------

    def _enqueue_output(self, payload: Any, seq: int) -> List[Effect]:
        raise NotImplementedError(
            "output commit under direct dependency tracking requires a "
            "transitive-closure assembly sub-protocol (Johnson [6]); this "
            "baseline reproduces only the dependency-tracking/recovery "
            "tradeoff - use an output-free workload"
        )
