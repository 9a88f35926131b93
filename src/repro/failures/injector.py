"""Failure injection: a unified, deterministic event stream.

Historically the schedule carried only crash events.  It is now a single
time-ordered stream of *network and process* faults:

- :class:`CrashEvent` — fail-stop crash of one process (loses all volatile
  state, restarts after ``restart_delay``);
- :class:`PartitionEvent` — split the network into islands; traffic between
  different islands is dropped until the next :class:`HealEvent`;
- :class:`HealEvent` — dissolve the current partition;
- :class:`LossEvent` — change the network fault model's default loss /
  duplication / reorder rates from this time on;
- :class:`StorageFaultEvent` — arm a storage-device fault (torn write,
  lying fsync, transient EIO, stalling I/O, bit flip, fsync-boundary
  crash) beneath one process's stable-storage backend.

A crash is fail-stop: the process loses all volatile state, stays down for
``restart_delay`` time units, then runs the protocol's Restart routine.
Schedules are deterministic given the seed, so every protocol variant in a
comparison experiment faces the *same* failures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union


@dataclass(frozen=True)
class CrashEvent:
    """Crash process ``pid`` at virtual ``time``."""

    time: float
    pid: int


@dataclass(frozen=True)
class PartitionEvent:
    """Partition the network at ``time``.

    ``islands`` is a tuple of disjoint process groups.  Two processes can
    communicate iff they are in the same island, or neither is in any
    island (unlisted processes form the implicit "mainland").  Isolating
    P2 from everyone else is simply ``PartitionEvent(t, ((2,),))``.
    """

    time: float
    islands: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class HealEvent:
    """Dissolve the active partition at ``time``."""

    time: float


@dataclass(frozen=True)
class LossEvent:
    """Change the default channel fault rates at ``time``.

    ``None`` leaves the corresponding rate unchanged.
    """

    time: float
    drop: Optional[float] = None
    duplicate: Optional[float] = None
    reorder: Optional[float] = None


@dataclass(frozen=True)
class StorageFaultEvent:
    """Arm a storage fault on ``pid``'s backend at virtual ``time``.

    ``kind`` is one of :data:`repro.storage.faults.FAULT_KINDS`; ``count``
    is how many times the fault fires (how many fsyncs lie, how many ops
    fail with EIO, after how many fsyncs the device dies); ``duration`` is
    the stall length for ``"stall"`` faults.  On the in-memory model
    backend the event is counted and ignored, so a schedule containing
    storage faults still replays against any backend.
    """

    time: float
    pid: int
    kind: str
    count: int = 1
    duration: float = 0.0


FailureEvent = Union[
    CrashEvent, PartitionEvent, HealEvent, LossEvent, StorageFaultEvent
]

#: Event classes that touch the network rather than a process.
NETWORK_EVENTS = (PartitionEvent, HealEvent, LossEvent)


class FailureSchedule:
    """A fixed, time-ordered list of failure events (crashes and network
    faults).  Iteration yields every event; :attr:`crashes` is the
    crash-only view that crash-oriented harnesses consume."""

    def __init__(self, events: Sequence[FailureEvent] = ()):
        self.events: List[FailureEvent] = sorted(events, key=lambda e: e.time)

    @classmethod
    def none(cls) -> "FailureSchedule":
        """The failure-free schedule."""
        return cls()

    @classmethod
    def single(cls, time: float, pid: int) -> "FailureSchedule":
        """One crash of ``pid`` at ``time`` — the paper's canonical scenario."""
        return cls([CrashEvent(time, pid)])

    @classmethod
    def random(
        cls,
        rng: random.Random,
        n: int,
        horizon: float,
        rate: float,
        start: float = 0.0,
    ) -> "FailureSchedule":
        """Poisson crash arrivals at ``rate`` per time unit over
        [start, horizon); each crash hits a uniformly random process."""
        if rate <= 0:
            return cls()
        events: List[FailureEvent] = []
        t = start
        while True:
            t += rng.expovariate(rate)
            if t >= horizon:
                break
            events.append(CrashEvent(t, rng.randrange(n)))
        return cls(events)

    @property
    def crashes(self) -> List[CrashEvent]:
        """The crash events only (what pre-network-fault code consumed)."""
        return [e for e in self.events if isinstance(e, CrashEvent)]

    def has_network_events(self) -> bool:
        """True when the schedule perturbs the network itself."""
        return any(isinstance(e, NETWORK_EVENTS) for e in self.events)

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)
