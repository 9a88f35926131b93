"""Simulation harness for the checkpoint-only family.

Deliberately lighter than the logging harness: messages travel through the
same kind of latency model, checkpoints fire on staggered timers, and a
crash triggers the centralized recovery-line computation *atomically* (the
coordination messages of a real implementation are abstracted into the
coordinator's counters — we compare recovery *outcomes*, not recovery
latencies, across this family).

The harness quacks enough like :class:`repro.runtime.harness.SimulationHarness`
(``config.n``, ``rngs``, ``inject_at``) for the standard workload
generators to drive it unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.app.behavior import AppBehavior
from repro.checkpointing.coordinator import RecoveryCoordinator
from repro.checkpointing.protocol import UNCOORDINATED, CkptMessage, LazyCheckpointProcess
from repro.failures.injector import FailureSchedule
from repro.net.channel import UniformLatency
from repro.runtime.host import periodic
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


@dataclass
class CheckpointConfig:
    """Configuration for a checkpoint-only run."""

    n: int = 6
    #: Laziness: coordinate every Z-th checkpoint; UNCOORDINATED disables.
    z: int = 1
    seed: int = 0
    checkpoint_interval: float = 40.0
    msg_latency_low: float = 0.5
    msg_latency_high: float = 1.5

    def validate(self) -> None:
        if self.n <= 0:
            raise ValueError("n must be positive")
        if self.z < 1:
            raise ValueError("Z must be >= 1")
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")


@dataclass
class CheckpointRunMetrics:
    """Aggregated results of one checkpoint-only run."""

    n: int = 0
    z: int = 0
    deliveries: int = 0
    local_checkpoints: int = 0
    induced_checkpoints: int = 0
    work_lost: int = 0
    messages_discarded: int = 0
    crashes: int = 0
    cascade_rollbacks: int = 0

    def as_row(self) -> Dict[str, object]:
        return {
            "Z": "inf" if self.z >= UNCOORDINATED else self.z,
            "ckpts_local": self.local_checkpoints,
            "ckpts_induced": self.induced_checkpoints,
            "delivered": self.deliveries,
            "work_lost": self.work_lost,
            "cascade": self.cascade_rollbacks,
            "discarded": self.messages_discarded,
        }


class CheckpointSimulation:
    """Runs N :class:`LazyCheckpointProcess` instances on the event engine."""

    def __init__(
        self,
        config: CheckpointConfig,
        behavior: AppBehavior,
        failures: Optional[FailureSchedule] = None,
    ):
        config.validate()
        self.config = config
        self.engine = Engine()
        self.rngs = RngRegistry(config.seed)
        self._latency = UniformLatency(config.msg_latency_low,
                                       config.msg_latency_high)
        self.processes: List[LazyCheckpointProcess] = [
            LazyCheckpointProcess(pid, config.n, config.z, behavior,
                                  seed=config.seed, send_hook=self._transmit)
            for pid in range(config.n)
        ]
        self.coordinator = RecoveryCoordinator(self.processes)
        self.crashes = 0
        for event in (failures or FailureSchedule.none()).crashes:
            self.engine.schedule_at(event.time,
                                    lambda pid=event.pid: self._crash(pid))

    # -- transport ------------------------------------------------------------

    def _transmit(self, msg: CkptMessage) -> None:
        rng = self.rngs.stream(f"ckptnet/{msg.src}->{msg.dst}")
        delay = self._latency.delay(rng)
        self.engine.schedule(
            delay, lambda m=msg: self.processes[m.dst].on_receive(m)
        )

    def inject_at(self, time: float, dst: int, payload: Any) -> None:
        """Outside-world message: no rollback-able sender (deps skipped
        because the sender id is negative)."""
        def deliver() -> None:
            process = self.processes[dst]
            process.on_receive(CkptMessage(
                src=-1, dst=dst, payload=payload,
                src_epoch=0, src_line=0, round=process.round,
            ))

        self.engine.schedule_at(time, deliver)

    # -- failure handling ----------------------------------------------------

    def _crash(self, pid: int) -> None:
        self.crashes += 1
        self.coordinator.recover(pid)

    # -- main loop -------------------------------------------------------------

    def run(self, duration: float) -> None:
        interval = self.config.checkpoint_interval
        for process in self.processes:
            phase = (process.pid + 1) / (self.config.n + 1)
            periodic(self.engine.schedule, interval * phase, interval,
                     process.take_local_checkpoint, horizon=duration)
        self.engine.run(until=duration, max_events=10_000_000)
        self.engine.run(max_events=10_000_000)  # drain in-flight traffic

    # -- results ---------------------------------------------------------------

    def metrics(self) -> CheckpointRunMetrics:
        m = CheckpointRunMetrics(n=self.config.n, z=self.config.z,
                                 crashes=self.crashes,
                                 cascade_rollbacks=self.coordinator.total_cascade)
        for process in self.processes:
            m.deliveries += process.deliveries
            m.local_checkpoints += process.local_checkpoints
            m.induced_checkpoints += process.induced_checkpoints
            m.work_lost += process.work_lost
            m.messages_discarded += process.messages_discarded
        return m
