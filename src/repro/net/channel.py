"""Point-to-point channels with pluggable latency models.

The K-optimistic protocol does not require FIFO ordering (Section 4.2), but
the Strom–Yemini baseline does; channels therefore support both modes.
Latency models add a per-piggyback-entry cost so that larger dependency
vectors make messages measurably more expensive — one of the failure-free
overheads the K parameter trades off.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.rng import Draws


class LatencyModel:
    """Base class: draws a transmission delay for one message."""

    def delay(self, rng: Optional[Draws], piggyback_entries: int = 0) -> float:
        raise NotImplementedError

    def draws_rng(self) -> bool:
        """Whether :meth:`delay` consumes random draws.  A model that does
        not is called with no stream, and, since it gives every
        piggyback-free control hop the same delay, the network times
        control traffic over it without any per-pair :class:`Channel`."""
        return True


class FixedLatency(LatencyModel):
    """Constant base delay plus a linear piggyback cost."""

    def __init__(self, base: float = 1.0, per_entry: float = 0.0):
        if base < 0 or per_entry < 0:
            raise ValueError("latencies must be non-negative")
        self.base = base
        self.per_entry = per_entry

    def delay(self, rng: Optional[Draws], piggyback_entries: int = 0) -> float:
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

    def delay(self, rng: Optional[Draws], piggyback_entries: int = 0) -> float:
        return rng.uniform(self.low, self.high) + self.per_entry * piggyback_entries


class Channel(Draws):
    """What one unidirectional channel keeps: its draw stream (a
    :class:`~repro.sim.rng.Draws`, two ints) and the last arrival time it
    handed out.  The latency model and FIFO mode are the network's, passed
    in per transmission.

    In FIFO mode arrival times are clamped to be non-decreasing so that
    reordering never happens on a single channel.
    """

    __slots__ = ("last_arrival",)

    def __init__(self, key: int):
        super().__init__(key)
        self.last_arrival = float("-inf")

    def arrival_time(self, now: float, latency: LatencyModel,
                     fifo: bool = False, piggyback_entries: int = 0) -> float:
        """Arrival time for a message handed to the channel at ``now``."""
        arrival = now + latency.delay(self, piggyback_entries)
        if fifo and arrival < self.last_arrival:
            arrival = self.last_arrival
        self.last_arrival = arrival
        return arrival
