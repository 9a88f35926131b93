"""Network fault model: message loss, duplication, reordering, partitions.

The paper assumes reliable channels (footnote 3 declares lost in-transit
messages out of scope and failure announcements use reliable broadcast).
This module drops both assumptions: every transmission consults a
:class:`NetworkFaultModel` that may drop it, duplicate it, or delay it out
of order, and a scheduled partition blocks whole process groups.

Determinism: every probabilistic decision is drawn from the channel's own
fault stream, a :class:`~repro.sim.rng.Draws` keyed by
``(seed, "faults/{src}->{dst}/{app|ctl}")``, so the same seed produces the
same fault pattern regardless of what any other component draws.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.sim.rng import Draws, RngRegistry


#: The widest extra delay a reordered transmission gets.
REORDER_SPREAD = 4.0


@dataclass(frozen=True)
class ChannelFaults:
    """Per-channel fault probabilities.

    ``drop``/``duplicate``/``reorder`` are independent per-transmission
    probabilities; a reordered message is additionally delayed by a
    uniform amount in ``[0, REORDER_SPREAD)`` on top of its normal
    latency (non-FIFO channels then overtake it naturally).
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0

    def validate(self) -> None:
        for name in ("drop", "duplicate", "reorder"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} probability must be in [0,1], got {p}")

    @property
    def any_enabled(self) -> bool:
        return self.drop > 0 or self.duplicate > 0 or self.reorder > 0


@dataclass(frozen=True)
class FaultDecision:
    """The fate of one transmission."""

    drop: bool = False
    partition_drop: bool = False
    duplicate: bool = False
    extra_delay: float = 0.0


DELIVER = FaultDecision()


class NetworkFaultModel:
    """Decides, per transmission, what the unreliable network does to it.

    Also owns the partition state: :meth:`start_partition` /
    :meth:`heal` are driven by the failure schedule (via the harness),
    and :meth:`partitioned` answers whether a given ordered pair is
    currently separated.  Time spent partitioned is accumulated for the
    metrics (``partition_time``).
    """

    def __init__(
        self,
        rngs: RngRegistry,
        default: Optional[ChannelFaults] = None,
    ):
        self.rngs = rngs
        self.default = default or ChannelFaults()
        self.default.validate()
        #: Each ``(src, dst, control)`` channel's fault draws (key and
        #: index), made on its first probabilistic decision.
        self._draws: Dict[Tuple[int, int, bool], Draws] = {}
        self._islands: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._partition_started: Optional[float] = None
        self.partition_time = 0.0
        self.partitions_seen = 0

    # -- channel fault parameters ------------------------------------------

    def set_rates(
        self,
        drop: Optional[float] = None,
        duplicate: Optional[float] = None,
        reorder: Optional[float] = None,
    ) -> None:
        """Update the default rates (a :class:`LossEvent` firing)."""
        changes = {
            name: value
            for name, value in (("drop", drop), ("duplicate", duplicate),
                                ("reorder", reorder))
            if value is not None
        }
        self.default = replace(self.default, **changes)
        self.default.validate()

    # -- partitions ---------------------------------------------------------

    def start_partition(self, islands: Tuple[Tuple[int, ...], ...], now: float) -> None:
        """Split the network; replaces any partition already in force."""
        if self._islands is not None:
            self.heal(now)
        self._islands = tuple(tuple(group) for group in islands)
        self._partition_started = now
        self.partitions_seen += 1

    def heal(self, now: float) -> None:
        """Dissolve the partition (idempotent)."""
        if self._islands is None:
            return
        if self._partition_started is not None:
            self.partition_time += now - self._partition_started
        self._islands = None
        self._partition_started = None

    @property
    def partition_active(self) -> bool:
        return self._islands is not None

    def partitioned(self, src: int, dst: int) -> bool:
        """True when ``src`` and ``dst`` are on different sides."""
        if self._islands is None:
            return False

        def side(pid: int) -> int:
            for index, group in enumerate(self._islands):
                if pid in group:
                    return index
            return -1  # the implicit mainland of unlisted processes

        return side(src) != side(dst)

    # -- the per-transmission decision ---------------------------------------

    def decide(self, src: int, dst: int, control: bool) -> FaultDecision:
        """The fate of one transmission on the ``src``->``dst`` channel."""
        if self.partitioned(src, dst):
            return FaultDecision(drop=True, partition_drop=True)
        faults = self.default
        if not faults.any_enabled:
            return DELIVER
        rng = self._draws.get((src, dst, control))
        if rng is None:
            kind = "ctl" if control else "app"
            rng = self._draws[src, dst, control] = Draws(
                self.rngs.key(f"faults/{src}->{dst}/{kind}"))
        # One draw decides the transmission: each coin in turn takes the
        # part of the uniform below its probability, and the part it
        # leaves, rescaled to [0, 1), is again uniform and independent of
        # that coin; the reorder delay is what the last coin leaves.
        u = rng.random()
        drop = faults.drop
        if u < drop:
            return FaultDecision(drop=True)
        u = (u - drop) / (1.0 - drop)
        dup = faults.duplicate
        duplicate = u < dup
        u = u / dup if duplicate else (u - dup) / (1.0 - dup)
        extra = 0.0
        if u < faults.reorder:
            extra = REORDER_SPREAD * (u / faults.reorder)
        if duplicate or extra:
            return FaultDecision(duplicate=duplicate, extra_delay=extra)
        return DELIVER
