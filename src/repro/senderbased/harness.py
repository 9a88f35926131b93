"""Simulation harness for sender-based logging.

Routes the scheme's five message kinds, drives checkpoint timers, and
orchestrates the recovery conversation (log request -> replies -> ordered
replay).  Crashes respect the family's one-failure-at-a-time assumption;
scheduling two overlapping crashes raises instead of silently producing
an unrecoverable run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.app.behavior import AppBehavior
from repro.failures.injector import FailureSchedule
from repro.net.channel import UniformLatency
from repro.runtime.host import periodic
from repro.senderbased.protocol import (
    SBAck,
    SBCheckpointNote,
    SBConfirm,
    SBLogReply,
    SBLogRequest,
    SBMessage,
    SenderBasedProcess,
)
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


@dataclass
class SenderBasedConfig:
    """Configuration for a sender-based logging run."""

    n: int = 6
    seed: int = 0
    checkpoint_interval: float = 160.0
    restart_delay: float = 10.0
    msg_latency_low: float = 0.5
    msg_latency_high: float = 1.5

    def validate(self) -> None:
        if self.n <= 0:
            raise ValueError("n must be positive")
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        if self.restart_delay < 0:
            raise ValueError("restart_delay must be non-negative")


@dataclass
class SenderBasedRunMetrics:
    """Aggregated results of one sender-based run."""

    n: int = 0
    deliveries: int = 0
    replayed: int = 0
    duplicates: int = 0
    acks: int = 0
    confirms: int = 0
    control_messages: int = 0
    sync_writes: int = 0
    mean_send_block: float = 0.0
    crashes: int = 0
    gc_reclaimed: int = 0

    def as_row(self) -> Dict[str, object]:
        return {
            "delivered": self.deliveries,
            "replayed": self.replayed,
            "acks": self.acks,
            "ctl_msgs": self.control_messages,
            "sync_w": self.sync_writes,
            "send_block": round(self.mean_send_block, 3),
            "crashes": self.crashes,
        }


class SenderBasedSimulation:
    """N sender-based processes on the event engine."""

    def __init__(
        self,
        config: SenderBasedConfig,
        behavior: AppBehavior,
        failures: Optional[FailureSchedule] = None,
    ):
        config.validate()
        self.config = config
        self.engine = Engine()
        self.rngs = RngRegistry(config.seed)
        self._latency = UniformLatency(config.msg_latency_low,
                                       config.msg_latency_high)
        self.processes: List[SenderBasedProcess] = [
            SenderBasedProcess(pid, config.n, behavior, seed=config.seed,
                               now_fn=lambda: self.engine.now)
            for pid in range(config.n)
        ]
        self.down: List[bool] = [False] * config.n
        self._pending_replies: Dict[int, List[SBLogReply]] = {}
        self.crashes = 0
        self.control_messages = 0
        self.messages_released = 0
        self.gc_reclaimed = 0

        schedule = (failures or FailureSchedule.none()).crashes
        for i, event in enumerate(schedule):
            if i > 0:
                gap = event.time - schedule[i - 1].time
                if gap <= config.restart_delay + 4 * config.msg_latency_high:
                    raise ValueError(
                        "sender-based logging tolerates one failure at a "
                        f"time; crashes at {schedule[i-1].time} and "
                        f"{event.time} overlap a recovery window"
                    )
            self.engine.schedule_at(event.time,
                                    lambda pid=event.pid: self._crash(pid))

    # -- transport ------------------------------------------------------------

    def _send(self, dst: int, payload: Any, control: bool = True) -> None:
        src = getattr(payload, "src", getattr(payload, "sender", -1))
        rng = self.rngs.stream(f"sbnet/{src}->{dst}")
        if control:
            self.control_messages += 1
        self.engine.schedule(self._latency.delay(rng),
                             lambda: self._arrive(dst, payload))

    def _transmit_app(self, messages: List[SBMessage]) -> None:
        for msg in messages:
            self.messages_released += 1
            self._send(msg.dst, msg, control=False)

    def _arrive(self, dst: int, payload: Any) -> None:
        if self.down[dst]:
            return  # lost; the sender's log will resurrect it if needed
        process = self.processes[dst]
        if isinstance(payload, SBMessage):
            acks, released = process.on_message(payload)
            for ack in acks:
                self._send(payload.src, ack)
            self._transmit_app(released)
        elif isinstance(payload, SBAck):
            for confirm in process.on_ack(payload):
                self._send(payload.receiver, confirm)
        elif isinstance(payload, SBConfirm):
            self._transmit_app(process.on_confirm(payload))
        elif isinstance(payload, SBCheckpointNote):
            self.gc_reclaimed += process.on_checkpoint_note(payload)
        elif isinstance(payload, SBLogRequest):
            # The request doubles as "the sender is back": re-ack its
            # unconfirmed deliveries so our send gate can eventually open.
            for ack in process.reack_unconfirmed(payload.requester):
                self._send(payload.requester, ack)
            self._send(payload.requester, process.on_log_request(payload))
        elif isinstance(payload, SBLogReply):
            self._collect_reply(dst, payload)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected payload {payload!r}")

    def _collect_reply(self, dst: int, reply: SBLogReply) -> None:
        replies = self._pending_replies.setdefault(dst, [])
        replies.append(reply)
        if len(replies) == self.config.n - 1:
            del self._pending_replies[dst]
            acks, released = self.processes[dst].finish_recovery(replies)
            for ack in acks:
                self._send(ack.msg_id[0], ack)
            self._transmit_app(released)

    # -- workload injection ---------------------------------------------------

    def inject_at(self, time: float, dst: int, payload: Any) -> None:
        msg = SBMessage(src=-1, dst=dst, payload=payload, msg_id=(-1, 0))
        # Unique ids for environment messages.
        msg.msg_id = (-1, msg.wire_id)

        def deliver() -> None:
            self._arrive(dst, msg)

        self.engine.schedule_at(time, deliver)

    # -- failure handling ------------------------------------------------------

    def _crash(self, pid: int) -> None:
        if self.down[pid] or pid in self._pending_replies:
            return
        self.crashes += 1
        self.down[pid] = True
        request = self.processes[pid].crash()

        def restart() -> None:
            self.down[pid] = False
            for peer in range(self.config.n):
                if peer != pid:
                    self._send(peer, request)

        self.engine.schedule(self.config.restart_delay, restart)

    # -- main loop -------------------------------------------------------------

    def run(self, duration: float) -> None:
        interval = self.config.checkpoint_interval
        for process in self.processes:
            phase = (process.pid + 1) / (self.config.n + 1)
            periodic(self.engine.schedule, interval * phase, interval,
                     lambda p=process: self._checkpoint(p), horizon=duration)
        self.engine.run(until=duration, max_events=10_000_000)
        self.engine.run(max_events=10_000_000)

    def _checkpoint(self, process: SenderBasedProcess) -> None:
        if self.down[process.pid] or process.recovering:
            return
        note = process.checkpoint()
        for peer in range(self.config.n):
            if peer != process.pid:
                self._send(peer, note)

    # -- results ---------------------------------------------------------------

    def metrics(self) -> SenderBasedRunMetrics:
        m = SenderBasedRunMetrics(n=self.config.n, crashes=self.crashes,
                                  control_messages=self.control_messages,
                                  gc_reclaimed=self.gc_reclaimed)
        blocked = 0.0
        for process in self.processes:
            m.deliveries += process.deliveries
            m.replayed += process.replayed
            m.duplicates += process.duplicates
            m.acks += process.acks_sent
            m.confirms += process.confirms_sent
            m.sync_writes += process.sync_writes
            blocked += process.send_block_total
        if self.messages_released:
            m.mean_send_block = blocked / self.messages_released
        return m
