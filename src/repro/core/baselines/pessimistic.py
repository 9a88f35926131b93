"""Pessimistic (synchronous receiver-based) message logging.

The paper's description: "Pessimistic logging either synchronously logs
each message upon receiving it, or logs all delivered messages before
sending a message.  It guarantees that any process state from which a
message is sent is always recreatable, and therefore no process failure
will ever revoke any message."

This baseline implements the first form: every delivery is synchronously
forced to stable storage *before* anything of its step can leave the
process — the handler's sends, and the ack of the delivered message too
(every send is an effect the executor runs after the write-ahead
barrier).  Because every interval anywhere is stable by the time anything
depends on it, no dependency tracking is needed at all — messages carry an
empty vector and are released immediately.  The price is one synchronous
stable-storage operation per delivered message, the failure-free overhead
the paper's industrial users pay for localized recovery.
"""

from __future__ import annotations

from typing import List

from repro.core.depvec import DependencyVector
from repro.core.effects import Effect, StableProgress
from repro.core.protocol import KOptimisticProcess


class PessimisticProcess(KOptimisticProcess):
    """0-risk logging: sync-on-delivery, empty piggyback, instant release.

    Run it with ``SimConfig(k=0)``, so the certifier judges its releases
    at the K it keeps."""

    def __init__(self, pid, n, k=0, behavior=None, **kwargs):
        # K is forced to 0: pessimistic logging is 0-optimistic by nature.
        super().__init__(pid, n, 0, behavior, **kwargs)

    def _post_delivery_effects(self) -> List[Effect]:
        """Force the delivery to disk before its sends are released."""
        self.storage.append_log(self.volatile.drain(), sync=True)
        self.log.insert(self.pid, self.current)
        self.tdv.nullify(self.pid)
        return [StableProgress(self.pid, self.current)]

    def _piggyback_vector(self) -> DependencyVector:
        """All causal predecessors are stable; nothing needs tracking."""
        return DependencyVector(self.n)

    def flush(self) -> List[Effect]:
        """Nothing accumulates in the volatile buffer; flushes are no-ops
        (they would double-count storage operations in the cost model)."""
        self._require_running()
        return []
