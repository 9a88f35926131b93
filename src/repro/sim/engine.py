"""Deterministic discrete-event simulation engine.

The engine is a classic calendar loop: a binary heap of ``(time, sequence,
...)`` records.  Ties on time are broken by insertion order, which makes
every run with the same seed bit-for-bit reproducible — a property the
recovery tests rely on (deterministic replay must reconstruct identical
states).

Two record shapes share the heap:

- **handle records** ``(time, seq, EventHandle)`` — returned by
  :meth:`Engine.schedule`/:meth:`Engine.schedule_at`, cancellable;
- **raw records** ``(time, seq, fn, args, label, callbacks)`` — pushed by
  :meth:`Engine.schedule_at_raw` for fire-and-forget work (message
  arrivals).  No handle object, no closure: the hot network path schedules
  with zero per-event allocations beyond the heap tuple itself.  One raw
  record may stand for several process-level callbacks (a control message
  arriving at ``callbacks`` destinations at one instant).

A handle record or a deferred callback may likewise stand for several
(one periodic activity of every process sharing a timer slot); each
record counts as many events as the callbacks it delivers, so
:attr:`Engine.events_executed` does not depend on how work is folded.

The two are discriminated by tuple length; the ``(time, seq)`` prefix
alone decides pop order, so mixing shapes never affects the firing
sequence.

Beside the heap sits the **end-of-instant queue** (:meth:`Engine.defer`):
a FIFO of callbacks that run at the current time once no heap record is
due at it any more — "after everything due now".  It is served only
while the heap front is later than ``now``, so a record scheduled *at*
``now`` from inside one deferred callback still fires before the next
deferred callback; the clock cannot pass a non-empty queue.

Two hooks open the loop up to external control without touching the
default behaviour:

- a **tie-breaker** (:meth:`Engine.set_tie_breaker`) chooses which of
  several same-time events fires next — the systematic schedule explorer
  (:mod:`repro.check`) drives it to enumerate delivery orderings;
- a **post-step callback** (:attr:`Engine.post_step`) runs after every
  fired event — the invariant probe layer checks global properties there.

Events may carry a ``label`` so external choosers and dumped
counterexample traces can describe what each choice meant; producers on
hot paths consult :attr:`Engine.wants_labels` and skip building label
strings when no chooser is installed.  A producer that could fold several
callbacks into one record consults :attr:`Engine.steps_observed` and does
not while either hook is installed.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

#: A tie-breaker: receives the same-time candidates in default firing
#: order and returns the index of the event to fire next.
TieBreaker = Callable[[List["EventHandle"]], int]


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (e.g. events in the past)."""


class EventHandle:
    """Handle returned by :meth:`Engine.schedule`; supports cancellation."""

    __slots__ = ("time", "cancelled", "label", "callbacks", "_callback",
                 "_engine")

    def __init__(self, time: float, callback: Callable[..., None],
                 label: Optional[str] = None, callbacks: int = 1):
        self.time = time
        self.cancelled = False
        self.label = label
        #: How many process-level callbacks firing delivers.
        self.callbacks = callbacks
        self._callback = callback
        self._engine: Optional["Engine"] = None

    def cancel(self) -> None:
        """Prevent the event from firing (a no-op if it already ran)."""
        if self.cancelled:
            return
        self.cancelled = True
        self._callback = None  # type: ignore[assignment]
        if self._engine is not None:
            self._engine._note_cancel()


def _is_dead(record: Tuple) -> bool:
    """True for a cancelled handle record (raw records cannot cancel)."""
    return len(record) == 3 and record[2].cancelled


class Engine:
    """A single-threaded discrete-event scheduler with virtual time."""

    def __init__(self):
        self._now = 0.0
        self._seq = 0
        self._queue: List[Tuple] = []
        #: The end-of-instant queue: ``(callback, label, callbacks)`` in
        #: defer order.
        self._deferred: Deque[Tuple[Callable[[], None], Optional[str],
                                    int]] = deque()
        self._live = 0
        self._events_executed = 0
        self._running = False
        self._tie_breaker: Optional[TieBreaker] = None
        #: Invoked (with no arguments) after every fired event; the
        #: checking harness hangs its invariant probes here.
        self.post_step: Optional[Callable[[], None]] = None

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of callbacks delivered so far: ``callbacks`` per fired
        record or deferred callback (one unless it serves several)."""
        return self._events_executed

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled, not yet fired) scheduled records
        and deferred callbacks.

        Cancelled records linger in the heap until lazily popped, but
        they no longer count here.
        """
        return self._live

    @property
    def wants_labels(self) -> bool:
        """Whether event labels will be consumed (a tie-breaker is
        installed).  Hot-path producers skip label formatting otherwise."""
        return self._tie_breaker is not None

    @property
    def steps_observed(self) -> bool:
        """Whether something outside looks at the run one callback at a
        time: a tie-breaker choosing among individual records, or a
        post-step probe running after each.  A producer must then give
        every callback its own record."""
        return self._tie_breaker is not None or self.post_step is not None

    # -- scheduling -----------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        label: Optional[str] = None,
        callbacks: int = 1,
    ) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` time units from now;
        ``callbacks`` is how many process-level callbacks it delivers."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, label, callbacks)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        label: Optional[str] = None,
        callbacks: int = 1,
    ) -> EventHandle:
        """Schedule ``callback`` to fire at absolute virtual ``time``;
        ``callbacks`` is how many process-level callbacks it delivers."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (current time {self._now})"
            )
        handle = EventHandle(time, callback, label, callbacks)
        handle._engine = self
        heapq.heappush(self._queue, (time, self._seq, handle))
        self._seq += 1
        self._live += 1
        return handle

    def schedule_at_raw(
        self,
        time: float,
        fn: Callable[..., None],
        args: Tuple = (),
        label: Optional[str] = None,
        callbacks: int = 1,
    ) -> None:
        """Schedule ``fn(*args)`` at absolute ``time`` with no handle.

        The fire-and-forget fast path: no :class:`EventHandle`, no closure
        capture, not cancellable.  Used by the network for message
        arrivals, which are never revoked individually.  ``callbacks`` is
        how many process-level callbacks ``fn`` will deliver (one arrival
        record may serve several destinations); :attr:`events_executed`
        advances by it.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (current time {self._now})"
            )
        heapq.heappush(self._queue,
                       (time, self._seq, fn, args, label, callbacks))
        self._seq += 1
        self._live += 1

    def defer(
        self,
        callback: Callable[[], None],
        label: Optional[str] = None,
        callbacks: int = 1,
    ) -> None:
        """Run ``callback`` at the current time, once nothing scheduled is
        due at it any more; deferred callbacks run in defer order.
        ``callbacks`` is how many process-level callbacks it delivers.

        No handle and not cancellable.  Whatever a deferred callback
        schedules *at* the current time fires before the next deferred
        callback does."""
        self._deferred.append((callback, label, callbacks))
        self._live += 1

    def _note_cancel(self) -> None:
        """A queued handle was cancelled: one live record fewer.  The
        record itself is deleted lazily, skipped when it is popped."""
        self._live -= 1

    # -- external schedule control --------------------------------------------

    def set_tie_breaker(self, chooser: Optional[TieBreaker]) -> None:
        """Install (or clear) an external same-time tie-breaker.

        When two or more pending events share the earliest time, the
        chooser receives them in default firing order — scheduled records
        by sequence, then (at the current time) the deferred callbacks in
        defer order — and returns the index of the one to fire; the rest
        keep their place.  With no chooser installed the engine behaves
        exactly as before, preserving bit-for-bit reproducibility.
        """
        self._tie_breaker = chooser

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Fire the next event.  Returns False if nothing is pending."""
        if self._tie_breaker is not None:
            return self._step_chosen()
        queue = self._queue
        deferred = self._deferred
        while queue:
            if deferred and queue[0][0] > self._now:
                break  # nothing (else) is due now: the instant ends first
            record = heapq.heappop(queue)
            if len(record) == 3:
                handle = record[2]
                if handle.cancelled:
                    continue
                self._fire(record[0], handle)
            else:
                self._fire_raw(record)
            return True
        if deferred:
            self._fire_deferred(deferred.popleft())
            return True
        return False

    def _candidate_records(self) -> List[Tuple]:
        """Pop every live record sharing the earliest time (tie-breaking)."""
        candidates: List[Tuple] = []
        front_time: Optional[float] = None
        queue = self._queue
        while queue:
            record = heapq.heappop(queue)
            if _is_dead(record):
                continue
            if front_time is None:
                front_time = record[0]
            elif record[0] > front_time:
                heapq.heappush(queue, record)
                break
            candidates.append(record)
        return candidates

    def _step_chosen(self) -> bool:
        """One step under an external tie-breaker."""
        deferred = self._deferred
        records: List[Tuple] = []
        if not deferred or self._front_time() == self._now:
            records = self._candidate_records()
        total = len(records) + len(deferred)
        if total == 0:
            return False
        index = 0
        if total > 1:
            handles = [_display_handle(record) for record in records]
            handles += [EventHandle(self._now, callback, label)
                        for callback, label, _ in deferred]
            index = self._tie_breaker(handles)
            if not 0 <= index < total:
                raise SimulationError(
                    f"tie-breaker chose {index} among {total} events"
                )
        chosen = records.pop(index) if index < len(records) else None
        for record in records:
            heapq.heappush(self._queue, record)
        if chosen is None:
            index -= len(records)
            entry = deferred[index]
            del deferred[index]
            self._fire_deferred(entry)
        elif len(chosen) == 3:
            self._fire(chosen[0], chosen[2])
        else:
            self._fire_raw(chosen)
        return True

    def _fire(self, time: float, handle: EventHandle) -> None:
        self._now = time
        callback = handle._callback
        handle.cancelled = True  # mark consumed; cancel() becomes no-op
        self._live -= 1
        self._events_executed += handle.callbacks
        callback()  # type: ignore[misc]
        if self.post_step is not None:
            self.post_step()

    def _fire_raw(self, record: Tuple) -> None:
        self._now = record[0]
        self._live -= 1
        self._events_executed += record[5]
        record[2](*record[3])
        if self.post_step is not None:
            self.post_step()

    def _fire_deferred(self, entry: Tuple) -> None:
        self._live -= 1
        self._events_executed += entry[2]
        entry[0]()
        if self.post_step is not None:
            self.post_step()

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Drain the event queue.

        ``until`` stops the clock at that virtual time (events scheduled
        later stay queued); ``max_events`` bounds the number of firings —
        a safety net for tests that might otherwise loop forever.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        fired = 0
        try:
            while True:
                next_time = self._peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                if max_events is not None and fired >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; possible livelock"
                    )
                if self.step():
                    fired += 1
            # The clock advances to the horizon on every normal exit: queue
            # exhausted, all remaining records cancelled, or the next event
            # lying beyond ``until``.  (A queue holding only cancelled
            # records must behave exactly like an empty one.)
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def advance_to(self, time: float) -> None:
        """Advance the clock to ``time`` without firing anything.

        Used by the epoch-parallel runner to align worker clocks at a
        barrier; refuses to jump over pending events (that would fire them
        in the past)."""
        if time <= self._now:
            return
        next_time = self._peek_time()
        if next_time is not None and next_time < time:
            raise SimulationError(
                f"cannot advance to {time}: event pending at {next_time}"
            )
        self._now = time

    def _peek_time(self) -> Optional[float]:
        """When the next event fires: now while anything is deferred,
        else the time of the earliest live scheduled record."""
        if self._deferred:
            return self._now
        return self._front_time()

    def _front_time(self) -> Optional[float]:
        """Time of the earliest live scheduled record."""
        queue = self._queue
        while queue:
            record = queue[0]
            if _is_dead(record):
                heapq.heappop(queue)
                continue
            return record[0]
        return None


def _display_handle(record: Tuple) -> EventHandle:
    """A handle view of any record, for tie-breaker/choice display.

    Raw records get a throwaway handle carrying their time and label —
    choosers only read those two fields; firing goes through the record.
    """
    if len(record) == 3:
        return record[2]
    return EventHandle(record[0], record[2], record[4])


def call_soon(engine: Engine, callback: Callable[[], None]) -> EventHandle:
    """Schedule ``callback`` at the current time (after pending same-time events)."""
    return engine.schedule(0.0, callback)
