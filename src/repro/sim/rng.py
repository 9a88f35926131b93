"""Seeded random draws: every draw is a pure function of (seed, stream, index).

Every stochastic component draws from its own stream so that changing one
component's consumption pattern never perturbs another's draws.  This is
what makes parameter sweeps comparable: the K=0 and K=N runs of an
experiment see the *same* workload and the *same* failure schedule.

A stream is :class:`Draws`: two ints, a 64-bit ``key`` and the ``index``
of its next draw, and draw ``i`` is the ``i``-th splitmix64 output from
state ``key`` (:func:`draw64`).  Nothing else is kept, so a stream costs
two ints where a Mersenne Twister costs ~2.9 KB (one per network channel
adds up at n = 1024), and a draw can be recomputed from its coordinates
alone: an application interval's draws are a function of
``(seed, pid, inc, sii, i)`` (:func:`interval_key`), which is what lets a
replayed interval be checked against its first execution.

The few per-run workload generators, which draw through the richer
``random.Random`` API (Pareto, exponential, choice), still get one
Mersenne Twister each from :meth:`RngRegistry.stream`.
"""

from __future__ import annotations

import hashlib
import random

_TO_UNIT = 2.0 ** -53


def draw64(key: int, index: int) -> int:
    """Draw ``index`` of the stream ``key``: 64 uniform bits, splitmix64's
    finalizer (a bijection that spreads every input bit over the output)
    applied to ``key + (index + 1) * 0x9E3779B97F4A7C15`` (2^64 over the
    golden ratio), all modulo 2^64.  The constants are literals: a
    constant load costs less than a global lookup, and this runs for
    every draw."""
    z = (key + (index + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def interval_key(seed: int, pid: int, inc: int, sii: int) -> int:
    """Key of the application stream of state interval ``(pid, inc, sii)``:
    each coordinate is folded in by one splitmix64 step."""
    return draw64(draw64(draw64(seed & 0xFFFFFFFFFFFFFFFF, pid), inc), sii)


class Draws:
    """A counter-based random stream: ``key`` and the ``index`` of the next
    draw.  Offers the slice of the ``random.Random`` API the program uses."""

    __slots__ = ("key", "index")

    def __init__(self, key: int, index: int = 0):
        self.key = key
        self.index = index

    def random(self) -> float:
        """The next draw as a float in [0, 1)."""
        index = self.index
        self.index = index + 1
        return (draw64(self.key, index) >> 11) * _TO_UNIT

    def uniform(self, low: float, high: float) -> float:
        """The next draw scaled to [low, high] (``random.Random.uniform``)."""
        return low + (high - low) * self.random()

    def randrange(self, stop: int) -> int:
        """The next draw as an int in [0, stop): the top 53 bits of the draw
        times ``stop``, shifted back, so no float rounding can reach
        ``stop``."""
        if stop <= 0:
            raise ValueError(f"empty range for randrange({stop})")
        index = self.index
        self.index = index + 1
        return ((draw64(self.key, index) >> 11) * stop) >> 53


class RngRegistry:
    """The run's root seed, and the keys and streams derived from it."""

    def __init__(self, root_seed: int = 0):
        self.root_seed = root_seed

    def key(self, name: str) -> int:
        """The stable (platform-independent) key of the stream ``name``."""
        digest = hashlib.sha256(
            f"{self.root_seed}/{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def stream(self, name: str) -> random.Random:
        """A new Mersenne Twister seeded for ``name``, for a generator that
        draws a whole schedule up front (not cached: each call starts the
        stream over)."""
        return random.Random(self.key(name))
