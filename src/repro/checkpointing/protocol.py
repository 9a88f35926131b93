"""Checkpoint-only rollback recovery with lazy coordination (Wang & Fuchs).

Section 5 of the paper: "In the area of checkpoint-based rollback-recovery,
the concept of lazy checkpoint coordination [13] has been proposed to
provide a fine-grain tradeoff in-between the two extremes of uncoordinated
checkpointing and coordinated checkpointing.  An integer parameter Z,
called the laziness, was introduced to control the degree of optimism by
controlling the frequency of coordination.  The concept of K-optimistic
logging can be considered as the counterpart of lazy checkpoint
coordination for the area of log-based rollback-recovery."

To make that counterpart claim measurable, this subpackage implements the
checkpoint-only family:

- execution is divided into **epochs**: checkpoint k closes epoch k and
  opens epoch k+1 (the implicit initial checkpoint closes epoch 0);
- every Z-th closed epoch completes a **coordination line**
  (line = closed_epoch // Z); messages piggyback the sender's line, and a
  receiver that is behind takes an **induced checkpoint** before
  delivering — the communication-induced rule that keeps rollback
  cascades from crossing a completed line;
- there is **no message logging**: a failure loses the open epoch, and
  every epoch anywhere that (transitively) depends on a lost epoch must be
  rolled back too.  Small Z stops the cascade at a recent line;
  Z = infinity (uncoordinated) lets it domino — the paper's own framing.

Recovery is computed by
:class:`repro.checkpointing.coordinator.RecoveryCoordinator` from the
*recorded* per-epoch direct dependencies (the classic rollback-dependency
fixpoint), not from the oracle.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.app.behavior import AppBehavior, AppContext

#: Laziness value meaning "never coordinate" (uncoordinated checkpointing).
UNCOORDINATED = 10**9

_wire = itertools.count()


@dataclass
class CkptMessage:
    """An application message in the checkpoint-only system."""

    src: int
    dst: int
    payload: Any
    src_epoch: int
    src_line: int
    round: int
    wire_id: int = field(default_factory=lambda: next(_wire))


@dataclass
class EpochCheckpoint:
    """A saved process state; ``closes`` is the epoch it terminates."""

    closes: int
    line: int
    app_state: Any
    deliveries_at: int
    induced: bool = False


class LazyCheckpointProcess:
    """One process of the checkpoint-only recovery system."""

    def __init__(
        self,
        pid: int,
        n: int,
        z: int,
        behavior: AppBehavior,
        seed: int = 0,
        send_hook: Optional[Callable[[CkptMessage], None]] = None,
    ):
        if z < 1:
            raise ValueError(f"laziness Z must be >= 1, got {z}")
        self.pid = pid
        self.n = n
        self.z = z
        self.behavior = behavior
        self.seed = seed
        self.send_hook = send_hook or (lambda msg: None)

        self.app_state = behavior.initial_state(pid, n)
        #: The open epoch (epoch 0 is closed by the initial checkpoint).
        self.epoch = 1
        self.line = 0
        self.round = 0
        self.deliveries = 0
        self.checkpoints: List[EpochCheckpoint] = [
            EpochCheckpoint(0, 0, copy.deepcopy(self.app_state), 0)
        ]
        #: Direct dependencies recorded per epoch: epoch -> {(src, src_epoch)}.
        self.epoch_deps: Dict[int, Set[Tuple[int, int]]] = {}

        # accounting
        self.local_checkpoints = 0
        self.induced_checkpoints = 0
        self.messages_discarded = 0
        self.work_lost = 0

    # -- checkpointing -----------------------------------------------------

    def take_local_checkpoint(self) -> None:
        """The periodic checkpoint: close the open epoch."""
        self._save(induced=False)
        self.local_checkpoints += 1

    def _save(self, induced: bool, target_line: Optional[int] = None) -> None:
        closed = self.epoch
        if self.z != UNCOORDINATED:
            self.line = max(self.line, closed // self.z)
        if target_line is not None:
            self.line = max(self.line, target_line)
        self.checkpoints.append(EpochCheckpoint(
            closes=closed,
            line=self.line,
            app_state=copy.deepcopy(self.app_state),
            deliveries_at=self.deliveries,
            induced=induced,
        ))
        self.epoch = closed + 1

    # -- the data path ------------------------------------------------------

    def on_receive(self, msg: CkptMessage) -> bool:
        """Deliver a message (returns False if discarded as stale).

        Recovery is a global round: every message sent before the last
        recovery decision is dropped.  This conservatively discards some
        valid in-flight messages along with all orphans — without message
        logging there is no replay to recover them anyway (that is the
        point of the comparison with the logging family).
        """
        if msg.round != self.round:
            self.messages_discarded += 1
            return False
        if msg.src_line > self.line and self.z != UNCOORDINATED:
            # Induced checkpoint: catch up to the sender's line *before*
            # the delivery, so the dependency lands beyond the line.
            self._save(induced=True, target_line=msg.src_line)
            self.induced_checkpoints += 1
        self.deliveries += 1
        if msg.src >= 0:  # the outside world has no rollback-able epochs
            self.epoch_deps.setdefault(self.epoch, set()).add(
                (msg.src, msg.src_epoch)
            )
        ctx = AppContext(self.pid, self.n, 0, self.deliveries, self.seed)
        self.app_state = self.behavior.on_message(self.app_state, msg.payload, ctx)
        for dst, payload, _k in ctx.sends_with_limits:
            self.send_hook(CkptMessage(
                src=self.pid, dst=dst, payload=payload,
                src_epoch=self.epoch, src_line=self.line, round=self.round,
            ))
        return True

    # -- recovery ------------------------------------------------------------

    def restore_before(self, first_invalid_epoch: int) -> int:
        """Roll back so that no epoch >= ``first_invalid_epoch`` survives.

        Restores the newest checkpoint closing an earlier epoch and reopens
        the invalidated epoch number.  Returns the new open epoch.
        """
        keep = max(
            (c for c in self.checkpoints if c.closes < first_invalid_epoch),
            key=lambda c: c.closes,
        )
        self.work_lost += self.deliveries - keep.deliveries_at
        self.app_state = copy.deepcopy(keep.app_state)
        self.deliveries = keep.deliveries_at
        self.line = keep.line
        self.checkpoints = [c for c in self.checkpoints if c.closes <= keep.closes]
        self.epoch = keep.closes + 1
        self.epoch_deps = {
            e: deps for e, deps in self.epoch_deps.items() if e <= keep.closes
        }
        return self.epoch

    def enter_round(self, round_number: int) -> None:
        """Adopt a recovery decision (a new global round begins)."""
        self.round = round_number

    def __repr__(self) -> str:
        return (f"<ckpt-P{self.pid} Z={self.z} epoch={self.epoch} "
                f"line={self.line} round={self.round}>")
