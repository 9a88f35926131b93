"""Point-to-point channels with pluggable latency models.

The K-optimistic protocol does not require FIFO ordering (Section 4.2), but
the Strom–Yemini baseline does; channels therefore support both modes.
Latency models add a per-piggyback-entry cost so that larger dependency
vectors make messages measurably more expensive — one of the failure-free
overheads the K parameter trades off.
"""

from __future__ import annotations

import random


class LatencyModel:
    """Base class: draws a transmission delay for one message."""

    def delay(self, rng: random.Random, piggyback_entries: int = 0) -> float:
        raise NotImplementedError

    def draws_rng(self) -> bool:
        """Whether :meth:`delay` consumes random draws.  Deterministic
        models return False so the network can share one dummy rng across
        their channels instead of allocating a ~2.5 KB ``random.Random``
        per process pair (material at n=10k with gossip fanout), and, since
        such a model gives every piggyback-free control hop the same delay,
        time control traffic without any per-pair :class:`Channel`."""
        return True


class FixedLatency(LatencyModel):
    """Constant base delay plus a linear piggyback cost."""

    def __init__(self, base: float = 1.0, per_entry: float = 0.0):
        if base < 0 or per_entry < 0:
            raise ValueError("latencies must be non-negative")
        self.base = base
        self.per_entry = per_entry

    def delay(self, rng: random.Random, piggyback_entries: int = 0) -> float:
        return self.base + self.per_entry * piggyback_entries

    def draws_rng(self) -> bool:
        return False


class UniformLatency(LatencyModel):
    """Uniform random delay in [low, high] plus a linear piggyback cost."""

    def __init__(self, low: float, high: float, per_entry: float = 0.0):
        if not 0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high, got [{low}, {high}]")
        if per_entry < 0:
            raise ValueError("per_entry must be non-negative")
        self.low = low
        self.high = high
        self.per_entry = per_entry

    def delay(self, rng: random.Random, piggyback_entries: int = 0) -> float:
        return rng.uniform(self.low, self.high) + self.per_entry * piggyback_entries


class Channel:
    """A unidirectional channel from ``src`` to ``dst``.

    ``transmit`` computes the arrival time of a message and invokes the
    engine-provided scheduler.  In FIFO mode arrival times are clamped to be
    non-decreasing so that reordering never happens on a single channel.
    """

    def __init__(
        self,
        src: int,
        dst: int,
        latency: LatencyModel,
        rng: random.Random,
        fifo: bool = False,
    ):
        self.src = src
        self.dst = dst
        self.latency = latency
        self.rng = rng
        self.fifo = fifo
        self._last_arrival = float("-inf")
        self.transmitted = 0

    def arrival_time(self, now: float, piggyback_entries: int = 0) -> float:
        """Arrival time for a message handed to the channel at ``now``."""
        arrival = now + self.latency.delay(self.rng, piggyback_entries)
        if self.fifo and arrival < self._last_arrival:
            arrival = self._last_arrival
        self._last_arrival = arrival
        self.transmitted += 1
        return arrival
