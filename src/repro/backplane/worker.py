"""One recovery unit as a real OS process (``repro serve-worker``).

Spawned by the coordinator, a worker:

- builds one :class:`~repro.core.protocol.KOptimisticProcess` over a
  durable file-log journal under the run directory (so a SIGKILL loses
  exactly what the paper's fail-stop model says it loses);
- connects to the coordinator and exchanges framed JSON (the star
  topology routes every message through the coordinator), its own frames
  leaving as one write per turn of the event loop;
- hosts the protocol in the *same*
  :class:`~repro.runtime.host.ProcessHost` the simulation uses — dispatch,
  periodic flush / checkpoint / notify timers, fail-stop on a dead
  journal — over an environment of wall-clock time, asyncio timers scaled
  by the run's ``timescale``, and ``dep.*`` tracing.

What is left here is what only this driver knows: the manifest, the TCP
framing and codec, and the coordinator's command frames.  On respawn after
a crash the journal directory is non-empty; the host then boots through
REDO-only recovery plus the Restart broadcast instead of a fresh start.
"""

from __future__ import annotations

import asyncio
import json
import os
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.app.behavior import EchoBehavior
from repro.app.hopchain import HopChainBehavior
from repro.backplane.clock import JsonlTracer, WallClock
from repro.backplane.codec import decode_app, decode_control, encode_app, encode_control
from repro.backplane.framing import (
    FramingError,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.core.protocol import KOptimisticProcess
from repro.net.message import AppMessage
from repro.runtime.config import SimConfig
from repro.runtime.host import Environment, ProcessHost, build_protocol

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
    return SimConfig(
        n=manifest["n"],
        k=manifest.get("k"),
        seed=manifest.get("seed", 0),
        storage_backend="filelog",
        storage_dir=os.path.join(run_dir, "storage"),
        # At-least-once delivery across worker crashes: acks with timer
        # retransmission of messages and announcements, plus the footnote-3
        # sent-log replayed to a restarted destination.
        retransmit_timeout=8.0,
        retransmit_budget=12,
        retransmit_window=64,
        trace_enabled=True,
        check_invariants=False,  # certification is post-hoc via the oracle
        dep_trace=True,
    )


class CoordinatorTransport:
    """The host's transport: every send becomes a routed frame.

    Frames wait in an outbox that leaves as one ``write`` per turn of the
    event loop (``call_soon`` schedules the flush), in the order they were
    sent."""

    def __init__(self, writer: asyncio.StreamWriter,
                 call_soon: Callable[[Callable], Any]):
        self.writer = writer
        self.call_soon = call_soon
        self._outbox: List[bytes] = []

    def send_frame(self, frame: Dict[str, Any]) -> None:
        if not self._outbox:
            self.call_soon(self.flush)
        self._outbox.append(encode_frame(frame))

    def flush(self) -> None:
        if self._outbox:
            data = b"".join(self._outbox)
            self._outbox.clear()
            self.writer.write(data)

    def send_app(self, msg: AppMessage) -> None:
        self.send_frame({"t": "app", "dst": msg.dst, "msg": encode_app(msg)})

    def send_control(self, src: int, dst: int, payload: Any) -> None:
        self.send_frame({"t": "ctl", "src": src, "dst": dst,
                         "body": encode_control(payload)})

    def multicast_control(self, src: int, dsts: Sequence[int],
                          payload: Any) -> None:
        for dst in dsts:
            self.send_control(src, dst, payload)

    def broadcast_control(self, src: int, payload: Any,
                          include_self: bool = False) -> None:
        # dst -1 = coordinator-side fan-out.
        self.send_control(src, -1, payload)


class Worker:
    """One :class:`ProcessHost` behind a TCP connection to the coordinator."""

    def __init__(self, pid: int, run_dir: str):
        self.pid = pid
        self.run_dir = run_dir
        self.manifest = load_manifest(run_dir)
        self.n = int(self.manifest["n"])
        self.config = config_from_manifest(self.manifest, run_dir)
        self.tracer = JsonlTracer(
            os.path.join(run_dir, "trace", f"p{pid:03d}.jsonl"))
        self.host: Optional[ProcessHost] = None
        self.transport: Optional[CoordinatorTransport] = None
        self._shutdown = asyncio.Event()

    # -- lifecycle -----------------------------------------------------------

    def build_host(self, clock: Any, transport: Any) -> bool:
        """Host the protocol over ``clock`` and ``transport``; returns
        whether the journal already holds a previous life to recover."""
        # Respawn detection must precede backend construction (building the
        # file-log backend creates the directory).
        journal = os.path.join(self.run_dir, "storage", f"p{self.pid:03d}")
        recovering = os.path.isdir(journal) and any(os.scandir(journal))
        env = Environment(
            config=self.config,
            now=lambda: clock.now,
            schedule=clock.schedule,
            # Wall-clock frames arrive one at a time: nothing else is due
            # "now", so a notification batch is drained at once.
            after_due=lambda pid, callback: callback(),
            transport=transport,
            tracer=self.tracer,
        )
        self.transport = transport
        behavior = BEHAVIORS[self.manifest.get("behavior", "hopchain")]()
        self.host = ProcessHost(env, self.pid, build_protocol(
            KOptimisticProcess, self.pid, self.config, behavior, env.now))
        return recovering

    async def run(self) -> int:
        loop = asyncio.get_running_loop()
        clock = WallClock(loop, float(self.manifest["timescale"]))
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", int(self.manifest["port"]))
        recovering = self.build_host(
            clock, CoordinatorTransport(writer, loop.call_soon))
        write_frame(writer, {"t": "hello", "pid": self.pid,
                             "recovered": recovering})
        await writer.drain()

        self.host.boot(recovering)
        self.tracer.record(
            clock.now, "worker.respawn" if recovering else "worker.start",
            self.pid)
        self.host.start_timers()

        try:
            while not self._shutdown.is_set():
                frame = await read_frame(reader)
                if frame is None:
                    break  # coordinator went away: exit quietly
                self.dispatch(frame)
                await writer.drain()
        except (FramingError, ConnectionError):
            return 1
        finally:
            self.transport.flush()
            self.host.stop_timers()
            self.host.protocol.storage.close()
            self.tracer.close()
            writer.close()
        return 0

    # -- frame dispatch --------------------------------------------------------

    def dispatch(self, frame: Dict[str, Any]) -> None:
        """Decode one frame and hand it to the host."""
        t = frame.get("t")
        host = self.host
        if t == "app":
            host.incoming(decode_app(self.n, frame["msg"]))
            return
        if t == "ctl":
            host.incoming(decode_control(frame["body"]))
            return
        if t != "cmd":
            raise FramingError(f"unknown frame type {t!r}")
        op = frame.get("op")
        if op == "inject":
            # The coordinator assigns the unique sequence number.
            host.inject(frame["payload"], int(frame["seq"]))
        elif op == "flush":
            host.flush()
        elif op == "notify":
            host.notify()
        elif op == "status":
            stats = host.protocol.stats
            self.transport.send_frame({
                "t": "status",
                "rid": frame.get("rid"),
                "pid": self.pid,
                "quiescent": host.quiescent(),
                "outputs_committed": stats.outputs_committed,
                "deliveries": stats.deliveries,
                "restarts": stats.restarts,
            })
        elif op == "shutdown":
            self._shutdown.set()
        else:
            raise FramingError(f"unknown command {op!r}")


def main(pid: int, run_dir: str) -> int:
    return asyncio.run(Worker(pid, run_dir).run())
