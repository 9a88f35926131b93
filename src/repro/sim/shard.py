"""Sharded event loop with a deterministic cross-shard merge.

:class:`ShardedEngine` partitions the pending-event set across ``W``
per-worker heaps (shards).  Producers route records with the ``shard``
hint every ``schedule*`` method accepts — the network passes the
destination process id, so each shard holds the inbound event stream of
an ``n/W``-slice of processes, mirroring Taurus-style per-worker log
streams.  Records without a hint are spread round-robin by sequence
number.

**The merge rule.**  Each step fires the minimum record across all shard
fronts, ordered by the same ``(time, seq)`` key a single heap uses.
Since every record still receives a globally unique ``seq`` from one
shared counter, the key is a total order, and the sequence of fired
events is *identical to the single-heap engine for any shard count,
including W=1* — shard routing affects placement only, never order.  The
end-of-instant queue (:meth:`Engine.defer`) is not sharded: it is one
FIFO, served exactly as the base engine serves it.  The differential
suite (``tests/sim/test_shard_differential.py``) locks this down: same
committed outputs, same event counts, same oracle verdicts for
``W ∈ {1, 2, 4}``.

This class is the in-process model of the sharded runtime: each heap is
the event stream one worker OS process would own, and the merge rule is
the contract a multi-process dispatcher must implement to stay
replay-identical with the simulator.  (The blocking cross-shard merge is
what makes the result deterministic; a real deployment would relax it to
a watermark-based merge at the cost of replay identity — see
DESIGN.md.)
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.sim.engine import Engine, _is_dead


class ShardedEngine(Engine):
    """Deterministic W-way sharded variant of :class:`Engine`.

    Observable behaviour is bit-identical to the base engine; only the
    internal placement of pending records differs.  ``events_per_shard``
    counts callbacks *scheduled* to each shard (a raw record standing for
    several counts that many, on the shard it was placed on), exposing how
    evenly a workload's routing hints spread the load.
    """

    def __init__(self, shards: int, start_time: float = 0.0):
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        super().__init__(start_time)
        self.shards = shards
        self._heaps: List[List[Tuple]] = [[] for _ in range(shards)]
        #: Callbacks scheduled per shard (placement statistics).
        self.events_per_shard: List[int] = [0] * shards

    # -- placement ----------------------------------------------------------

    def _place(self, shard: Optional[int], callbacks: int = 1) -> int:
        """The shard ``callbacks`` new callbacks are accounted to."""
        index = (self._seq if shard is None else shard) % self.shards
        self.events_per_shard[index] += callbacks
        return index

    def _heap_for(self, shard: Optional[int], callbacks: int = 1) -> List[Tuple]:
        return self._heaps[self._place(shard, callbacks)]

    def defer(self, callback: Callable[[], None], label: Optional[str] = None,
              shard: Optional[int] = None) -> None:
        self._place(shard)
        super().defer(callback, label)

    def _requeue(self, record: Tuple) -> None:
        # Placement never affects firing order, so an unchosen tie-break
        # candidate goes back by sequence number (deterministic, counted
        # nowhere — it was already counted when first scheduled).
        heapq.heappush(self._heaps[record[1] % self.shards], record)

    # -- the deterministic cross-shard merge --------------------------------

    def step(self) -> bool:
        if self._tie_breaker is not None:
            return self._step_chosen()
        best_heap: Optional[List[Tuple]] = None
        best_key: Optional[Tuple[float, int]] = None
        for heap in self._heaps:
            while heap:
                record = heap[0]
                if _is_dead(record):
                    heapq.heappop(heap)
                    continue
                key = (record[0], record[1])
                if best_key is None or key < best_key:
                    best_key = key
                    best_heap = heap
                break
        deferred = self._deferred
        if deferred and (best_key is None or best_key[0] > self._now):
            self._fire_deferred(deferred.popleft())
            return True
        if best_heap is None:
            return False
        self._fire_record(heapq.heappop(best_heap))
        return True

    def _candidate_records(self) -> List[Tuple]:
        front_time: Optional[float] = None
        for heap in self._heaps:
            while heap and _is_dead(heap[0]):
                heapq.heappop(heap)
            if heap and (front_time is None or heap[0][0] < front_time):
                front_time = heap[0][0]
        if front_time is None:
            return []
        candidates: List[Tuple] = []
        for heap in self._heaps:
            while heap:
                record = heap[0]
                if _is_dead(record):
                    heapq.heappop(heap)
                    continue
                if record[0] == front_time:
                    candidates.append(heapq.heappop(heap))
                    continue
                break
        # Present candidates in the single-heap default firing order.
        candidates.sort(key=lambda record: record[1])
        return candidates

    def _front_time(self) -> Optional[float]:
        earliest: Optional[float] = None
        for heap in self._heaps:
            while heap and _is_dead(heap[0]):
                heapq.heappop(heap)
            if heap and (earliest is None or heap[0][0] < earliest):
                earliest = heap[0][0]
        return earliest

    # -- maintenance ---------------------------------------------------------

    def _note_cancel(self) -> None:
        self._live -= 1
        total = sum(len(heap) for heap in self._heaps)
        dead = total + len(self._deferred) - self._live
        if dead >= self.COMPACT_MIN_DEAD and dead * 2 >= total:
            for index, heap in enumerate(self._heaps):
                compacted = [rec for rec in heap if not _is_dead(rec)]
                heapq.heapify(compacted)
                self._heaps[index] = compacted
