"""One recovery unit as a real OS process (``repro serve-worker``).

Spawned by the coordinator, a worker:

- builds one :class:`~repro.core.protocol.KOptimisticProcess` over a
  durable file-log journal under the run directory (so a SIGKILL loses
  exactly what the paper's fail-stop model says it loses);
- connects to the coordinator and exchanges length-prefixed JSON frames
  (the star topology routes every message through the coordinator);
- drives the protocol through the *same*
  :class:`~repro.runtime.executor.EffectExecutor` the simulation uses,
  with wall-clock timers and ``dep.*`` tracing enabled;
- runs the periodic flush / checkpoint / notify activities on asyncio
  timers scaled by the run's ``timescale``.

On respawn after a crash the journal directory is non-empty; the worker
then boots via :meth:`KOptimisticProcess.boot_after_crash` (REDO-only
recovery plus the Restart broadcast) instead of :meth:`initialize`.
"""

from __future__ import annotations

import asyncio
import json
import os
from typing import Any, Dict, Optional

from repro.app.behavior import EchoBehavior
from repro.app.hopchain import HopChainBehavior
from repro.backplane.clock import JsonlTracer, WallClock
from repro.backplane.codec import decode_app, decode_control, encode_app, encode_control
from repro.backplane.framing import FramingError, read_frame, write_frame
from repro.core.depvec import DependencyVector
from repro.net.message import (
    AppAck,
    AppMessage,
    FailureAnnouncement,
    LoggingRequest,
    LogProgressNotification,
)
from repro.runtime.config import SimConfig
from repro.runtime.executor import EffectExecutor
from repro.runtime.harness import protocol_factory_for
from repro.core.protocol import KOptimisticProcess
from repro.types import MessageId

#: Behaviours a serve run can name in its manifest.
BEHAVIORS = {
    "echo": EchoBehavior,
    "hopchain": HopChainBehavior,
}


def load_manifest(run_dir: str) -> Dict[str, Any]:
    with open(os.path.join(run_dir, "run.json"), encoding="utf-8") as fh:
        return json.load(fh)


def config_from_manifest(manifest: Dict[str, Any], run_dir: str) -> SimConfig:
    """The worker-side protocol configuration for a serve run."""
    overrides = manifest.get("config", {})
    return SimConfig(
        n=manifest["n"],
        k=manifest.get("k"),
        seed=manifest.get("seed", 0),
        storage_backend="filelog",
        storage_dir=os.path.join(run_dir, "storage"),
        # At-least-once delivery across worker crashes: app-level acks with
        # timer retransmission, plus the footnote-3 sent-log replayed to a
        # restarted destination.
        retransmit_timeout=overrides.get("retransmit_timeout", 8.0),
        retransmit_backoff=overrides.get("retransmit_backoff", 2.0),
        retransmit_budget=overrides.get("retransmit_budget", 12),
        retransmit_window=overrides.get("retransmit_window", 64),
        flush_interval=overrides.get("flush_interval", 40.0),
        checkpoint_interval=overrides.get("checkpoint_interval", 160.0),
        notify_interval=overrides.get("notify_interval", 20.0),
        trace_enabled=True,
        check_invariants=False,  # certification is post-hoc via the oracle
        dep_trace=True,
    )


class CoordinatorTransport:
    """The executor's transport: every send becomes a routed frame."""

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer

    def send_app(self, msg: AppMessage) -> None:
        write_frame(self.writer, {"t": "app", "dst": msg.dst,
                                  "msg": encode_app(msg)})

    def send_control(self, src: int, dst: int, payload: Any,
                     reliable: bool = False) -> None:
        write_frame(self.writer, {"t": "ctl", "src": src, "dst": dst,
                                  "body": encode_control(payload)})

    def broadcast_control(self, src: int, payload: Any,
                          include_self: bool = False,
                          reliable: bool = False) -> None:
        # dst -1 = coordinator-side fan-out; TCP plus coordinator-side
        # parking for down workers makes control delivery reliable, so the
        # flag needs no extra machinery here.
        write_frame(self.writer, {"t": "ctl", "src": src, "dst": -1,
                                  "body": encode_control(payload)})


class Worker:
    """Protocol instance + transport + timers for one OS process."""

    def __init__(self, pid: int, run_dir: str):
        self.pid = pid
        self.run_dir = run_dir
        self.manifest = load_manifest(run_dir)
        self.n = int(self.manifest["n"])
        self.config = config_from_manifest(self.manifest, run_dir)
        self.clock: Optional[WallClock] = None
        self.tracer = JsonlTracer(
            os.path.join(run_dir, "trace", f"p{pid:03d}.jsonl"))
        self.protocol: Optional[KOptimisticProcess] = None
        self.executor: Optional[EffectExecutor] = None
        self._shutdown = asyncio.Event()
        #: Latest live handle per periodic activity (old ones have fired).
        self._timers: Dict[str, asyncio.TimerHandle] = {}

    # -- lifecycle -----------------------------------------------------------

    async def run(self) -> int:
        loop = asyncio.get_running_loop()
        self.clock = WallClock(loop, float(self.manifest["timescale"]))
        # Respawn detection must precede backend construction (building the
        # file-log backend creates the directory).
        journal = os.path.join(self.run_dir, "storage", f"p{self.pid:03d}")
        recovering = os.path.isdir(journal) and any(os.scandir(journal))

        behavior = BEHAVIORS[self.manifest.get("behavior", "hopchain")]()
        factory = protocol_factory_for(KOptimisticProcess)
        self.protocol = factory(self.pid, self.config, behavior,
                                lambda: self.clock.now)

        reader, writer = await asyncio.open_connection(
            "127.0.0.1", int(self.manifest["port"]))
        transport = CoordinatorTransport(writer)
        self.executor = EffectExecutor(
            self.pid,
            storage=self.protocol.storage,
            transport=transport,
            schedule=self.clock.schedule,
            now_fn=lambda: self.clock.now,
            tracer=self.tracer,
            on_retransmit=self._retransmit_timer,
            dep_trace=True,
        )
        write_frame(writer, {"t": "hello", "pid": self.pid,
                             "recovered": recovering})
        await writer.drain()

        if recovering:
            effects = self.protocol.boot_after_crash()
            self.tracer.record(self.clock.now, "worker.respawn", self.pid)
        else:
            effects = self.protocol.initialize()
            self.tracer.record(self.clock.now, "worker.start", self.pid)
        self.executor.execute(effects)
        self._start_timers()

        try:
            while not self._shutdown.is_set():
                frame = await read_frame(reader)
                if frame is None:
                    break  # coordinator went away: exit quietly
                self._dispatch(frame, writer)
                await writer.drain()
        except (FramingError, ConnectionError):
            return 1
        finally:
            for handle in self._timers.values():
                handle.cancel()
            self.protocol.storage.close()
            self.tracer.close()
            writer.close()
        return 0

    # -- periodic activities ---------------------------------------------------

    def _start_timers(self) -> None:
        self._periodic("flush", self.config.flush_interval, self._flush)
        self._periodic("checkpoint", self.config.checkpoint_interval,
                       self._checkpoint)
        self._periodic("notify", self.config.notify_interval, self._notify)

    def _periodic(self, name: str, interval_units: float, action) -> None:
        def fire() -> None:
            if self._shutdown.is_set():
                return
            action()
            self._timers[name] = self.clock.schedule(interval_units, fire)

        # Phase-staggered like the simulation, so N workers do not flush in
        # lockstep.
        first = interval_units * (self.pid + 1) / (self.n + 1)
        self._timers[name] = self.clock.schedule(first, fire)

    def _flush(self) -> None:
        self.executor.execute(self.protocol.flush())

    def _checkpoint(self) -> None:
        self.executor.execute(self.protocol.checkpoint())

    def _notify(self) -> None:
        notif = self.protocol.make_log_notification(own_only=False)
        self.executor.transport.broadcast_control(self.pid, notif)

    def _retransmit_timer(self, msg_id: MessageId) -> None:
        self.executor.execute(self.protocol.on_retransmit_timer(msg_id))

    # -- frame dispatch --------------------------------------------------------

    def _dispatch(self, frame: Dict[str, Any], writer) -> None:
        t = frame.get("t")
        if t == "app":
            msg = decode_app(self.n, frame["msg"])
            effects = self.protocol.on_receive(msg)
            if msg.src >= 0:
                # The live transport endpoint acks on arrival; a dead one
                # acks nothing, which keeps the sender's timer retrying.
                self.executor.transport.send_control(
                    self.pid, msg.src,
                    AppAck(msg.msg_id, self.pid, msg.src))
            self.executor.execute(effects)
            return
        if t == "ctl":
            payload = decode_control(frame["body"])
            if isinstance(payload, FailureAnnouncement):
                self.tracer.record(self.clock.now, "ann.receive", self.pid,
                                   ann=str(payload))
                effects = self.protocol.on_failure_announcement(payload)
            elif isinstance(payload, LogProgressNotification):
                effects = self.protocol.on_log_notification(payload)
            elif isinstance(payload, LoggingRequest):
                effects = self.protocol.on_logging_request(payload)
            elif isinstance(payload, AppAck):
                effects = self.protocol.on_ack(payload)
            else:  # pragma: no cover - decode_control is exhaustive
                raise FramingError(f"unroutable control payload {payload!r}")
            self.executor.execute(effects)
            return
        if t == "cmd":
            self._command(frame, writer)
            return
        raise FramingError(f"unknown frame type {t!r}")

    def _command(self, frame: Dict[str, Any], writer) -> None:
        op = frame.get("op")
        if op == "inject":
            # An outside-world message: empty dependency vector, virtual
            # sender -1, coordinator-assigned unique sequence number.
            msg = AppMessage(
                msg_id=MessageId(-1, 0, 0, int(frame["seq"])),
                src=-1,
                dst=self.pid,
                payload=frame["payload"],
                tdv=DependencyVector(self.n),
            )
            self.executor.execute(self.protocol.on_receive(msg))
        elif op == "flush":
            self._flush()
        elif op == "notify":
            self._notify()
        elif op == "checkpoint":
            self._checkpoint()
        elif op == "status":
            p = self.protocol
            write_frame(writer, {
                "t": "status",
                "rid": frame.get("rid"),
                "pid": self.pid,
                # Unacked releases count: a message bound for a crashed
                # destination is still in flight until the restarted
                # worker acks the timer-driven re-send.
                "quiescent": not (p.send_buffer or p.receive_buffer
                                  or len(p.output_buffer)
                                  or p.unacked_count),
                "outputs_committed": p.stats.outputs_committed,
                "deliveries": p.stats.deliveries,
                "restarts": p.stats.restarts,
            })
        elif op == "shutdown":
            self._shutdown.set()
        else:
            raise FramingError(f"unknown command {op!r}")


def main(pid: int, run_dir: str) -> int:
    return asyncio.run(Worker(pid, run_dir).run())
