"""The serve-mode coordinator: supervision, routing, crash injection.

``repro serve --n N --k K`` builds one :class:`ServePlan`, and
:func:`run_serve` executes it:

1. start a TCP server on localhost and write the ``run.json`` manifest;
2. spawn N worker OS processes (``repro serve-worker``) and wait for
   their hellos;
3. route frames worker-to-worker (star topology) on their header alone,
   forwarding the bytes that arrived through a per-destination outbox
   that leaves as one write per turn of the event loop, and parking
   control traffic addressed to a crashed worker until it reconnects —
   exactly the simulation's reliable-network semantics: announcements and
   log notifications are queued for delivery at restart, application
   messages and acks die with the transport endpoint;
4. inject the (deterministically generated) load, SIGKILL the configured
   crash victims mid-run, and respawn them after the restart delay;
5. settle: flush/notify rounds with status polls until every worker
   reports empty buffers and no unacked releases;
6. shut the workers down and certify the collected ``dep.*`` traces
   (:mod:`repro.oracle.ingest`).

The coordinator holds no protocol state: correctness rests entirely on
the workers' traces and the post-hoc oracle.  A run also fails, with the
cause named in its report, when a worker's connection ends without the
coordinator having ended it, or when settling never reaches quiescence.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import repro
from repro.backplane.framing import (
    KIND_APP,
    KIND_LOCAL,
    FramingError,
    RawFrame,
    read_frame,
    write_frame,
)
from repro.backplane.loadgen import generate_stimuli
from repro.oracle.certifier import Certification
from repro.oracle.ingest import certify_traces
from repro.runtime.config import SETTLE_ROUNDS


@dataclass
class ServePlan:
    """Everything one serve run needs; times are in virtual units."""

    n: int = 4
    k: Optional[int] = 2
    seed: int = 0
    behavior: str = "hopchain"
    #: Real seconds per virtual unit (default: a 40-unit flush = 0.8 s).
    timescale: float = 0.02
    duration: float = 200.0
    #: Built-in load: stimuli per virtual unit (0 = external ``repro load``).
    rate: float = 1.0
    #: (time_units, pid) SIGKILL injections.
    crashes: List[Tuple[float, int]] = field(default_factory=list)
    restart_delay: float = 50.0
    run_dir: Optional[str] = None
    #: Built-in load arrival shape: ``"uniform"`` or ``"openloop"``.
    profile: str = "uniform"
    #: Explicit stimulus list (overrides ``rate``; see loadgen).
    stimuli: Optional[List[Dict[str, Any]]] = None


@dataclass
class ServeReport:
    """What a serve run produced, for callers and the CLI."""

    run_dir: str
    ok: bool
    violations: List[str]
    committed: List[Any]
    injected: int
    app_frames_dropped: int
    crashes: int
    wall_seconds: float
    deliveries: int
    certification: Optional[Certification] = None
    #: Named causes of failure outside the traces: a worker exit the
    #: coordinator did not cause, a settle that never went quiescent.
    failures: List[str] = field(default_factory=list)


#: Bytes buffered towards one worker above which forwarding waits for the
#: transport to drain (asyncio's default high-water mark).
HIGH_WATER = 64 * 1024

#: Seconds a spawned worker has to say hello.
HELLO_TIMEOUT = 30.0


class _WorkerConn:
    """One live worker connection.

    Forwarded frames wait in ``outbox`` until the end of the current turn
    of the event loop and then leave as one write; a coordinator frame
    (:meth:`send`) flushes the outbox first, so each connection is FIFO.
    """

    def __init__(self, pid: int, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.pid = pid
        self.reader = reader
        self.writer = writer
        self.status: Dict[int, asyncio.Future] = {}
        self.outbox: List[bytes] = []
        #: Set when the coordinator ends this connection itself (crash
        #: injection, shutdown): its end is then expected.
        self.closing = False

    def queue(self, data: bytes) -> bool:
        """Queue forwarded bytes; True when the transport is above its
        high-water mark and the caller should :meth:`drain`."""
        if not self.outbox:
            asyncio.get_running_loop().call_soon(self.flush)
        self.outbox.append(data)
        return self.writer.transport.get_write_buffer_size() > HIGH_WATER

    def flush(self) -> None:
        if self.outbox:
            data = b"".join(self.outbox)
            self.outbox.clear()
            self.writer.write(data)

    async def drain(self) -> None:
        self.flush()
        try:
            await self.writer.drain()
        except (ConnectionError, OSError):
            pass  # the reader task handles the disconnect bookkeeping

    async def send(self, frame: Dict[str, Any]) -> None:
        self.flush()
        write_frame(self.writer, frame)
        await self.writer.drain()


class Coordinator:
    def __init__(self, plan: ServePlan):
        self.plan = plan
        self.run_dir = plan.run_dir or tempfile.mkdtemp(prefix="repro-serve-")
        self.conns: Dict[int, _WorkerConn] = {}
        self.procs: Dict[int, subprocess.Popen] = {}
        self.down: set = set(range(plan.n))  # up after hello
        self.hello_events: Dict[int, asyncio.Event] = {}
        #: Parked control frames (as wire bytes) for down workers:
        #: announcements keep every copy (an old incarnation's announcement
        #: is never subsumed); log notifications keep only the latest per
        #: origin.
        self.parked_ann: Dict[int, List[bytes]] = {}
        self.parked_log: Dict[int, Dict[int, bytes]] = {}
        self.failures: List[str] = []
        self.app_frames_dropped = 0
        self.injected = 0
        self._seq = 0
        self._rid = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._load_done = asyncio.Event()
        self._external_load = plan.rate <= 0 and plan.stimuli is None

    # -- lifecycle -----------------------------------------------------------

    async def run(self) -> ServeReport:
        plan = self.plan
        started = time.monotonic()
        os.makedirs(os.path.join(self.run_dir, "trace"), exist_ok=True)
        os.makedirs(os.path.join(self.run_dir, "logs"), exist_ok=True)
        self._server = await asyncio.start_server(
            self._accept, "127.0.0.1", 0)
        port = self._server.sockets[0].getsockname()[1]
        self._write_manifest(port)

        for pid in range(plan.n):
            self.hello_events[pid] = asyncio.Event()
            self._spawn(pid)
        await self._await_hellos(range(plan.n))

        crash_tasks = [asyncio.ensure_future(self._crash_task(t, pid))
                       for t, pid in plan.crashes]
        load_task = asyncio.ensure_future(self._load_task())
        try:
            await load_task
            if crash_tasks:
                await asyncio.gather(*crash_tasks)
            deliveries = await self._settle()
        finally:
            for task in crash_tasks:
                task.cancel()
            load_task.cancel()
            await self._shutdown_workers()
            self._server.close()
            await self._server.wait_closed()

        cert = certify_traces(self._trace_paths(), plan.n,
                              plan.k if plan.k is not None else plan.n)
        report = ServeReport(
            run_dir=self.run_dir,
            ok=not cert.violations and not self.failures,
            violations=list(cert.violations),
            committed=list(cert.committed),
            injected=self.injected,
            app_frames_dropped=self.app_frames_dropped,
            crashes=len(plan.crashes),
            wall_seconds=time.monotonic() - started,
            deliveries=deliveries,
            certification=cert,
            failures=list(self.failures),
        )
        with open(os.path.join(self.run_dir, "report.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({
                "ok": report.ok,
                "violations": report.violations,
                "failures": report.failures,
                "committed": report.committed,
                "injected": report.injected,
                "app_frames_dropped": report.app_frames_dropped,
                "crashes": report.crashes,
                "wall_seconds": report.wall_seconds,
            }, fh, indent=2)
        return report

    def _write_manifest(self, port: int) -> None:
        plan = self.plan
        with open(os.path.join(self.run_dir, "run.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({
                "n": plan.n,
                "k": plan.k,
                "seed": plan.seed,
                "behavior": plan.behavior,
                "timescale": plan.timescale,
                "port": port,
                "duration": plan.duration,
                "crashes": plan.crashes,
            }, fh, indent=2)

    def _spawn(self, pid: int) -> None:
        env = dict(os.environ)
        pkg_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
        log = open(os.path.join(self.run_dir, "logs", f"p{pid:03d}.log"), "a")
        self.procs[pid] = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve-worker",
             "--pid", str(pid), "--run-dir", self.run_dir],
            stdout=log, stderr=subprocess.STDOUT, env=env,
        )
        log.close()

    async def _await_hellos(self, pids) -> None:
        # wait_for (not asyncio.timeout) keeps the coordinator on 3.10.
        for pid in pids:
            await asyncio.wait_for(self.hello_events[pid].wait(),
                                   HELLO_TIMEOUT)

    # -- connection handling ---------------------------------------------------

    async def _accept(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            hello = await read_frame(reader)
        except FramingError:
            writer.close()
            return
        if hello is None:
            writer.close()
            return
        if hello.get("t") == "hello":
            await self._worker_connected(int(hello["pid"]), reader, writer)
        elif hello.get("t") == "load-hello":
            await self._load_client(reader, writer)
        else:
            writer.close()

    async def _worker_connected(self, pid: int, reader, writer) -> None:
        conn = _WorkerConn(pid, reader, writer)
        self.conns[pid] = conn
        self.down.discard(pid)
        # Deliver control traffic parked while the worker was dead, ahead
        # of anything routed to it from now on: announcements first (they
        # drive orphan detection), then the latest log notification per
        # origin.
        conn.outbox += self.parked_ann.pop(pid, [])
        conn.outbox += self.parked_log.pop(pid, {}).values()
        conn.flush()
        self.hello_events[pid].set()
        await self._worker_reader(conn)

    async def _worker_reader(self, conn: _WorkerConn) -> None:
        cause = "EOF"
        try:
            while True:
                frame = await read_frame(conn.reader, raw=True)
                if frame is None:
                    break
                kind, dst, data = frame
                if kind == KIND_LOCAL:
                    self._local(conn, frame.decode())
                    continue
                targets = ([pid for pid in range(self.plan.n)
                            if pid != conn.pid] if dst == -1 else (dst,))
                for target in targets:
                    if target not in self.down:
                        full = self._forward(target, data)
                        if full is not None:
                            await full.drain()
                    elif kind == KIND_APP:
                        # Fail-stop: the destination endpoint is gone.  The
                        # sender's retransmission timer re-sends after the
                        # restart.
                        self.app_frames_dropped += 1
                    else:
                        self._park(target, frame)
        except FramingError as exc:
            cause = f"framing error: {exc}"
        except ConnectionError as exc:
            cause = f"connection error: {exc!r}"
        finally:
            # Either we ended it (expected) or it died on its own; both
            # park its subsequent control traffic until a respawn.
            if self.conns.get(conn.pid) is conn:
                del self.conns[conn.pid]
                self.down.add(conn.pid)
                self.hello_events[conn.pid] = asyncio.Event()
            if not conn.closing:
                self.failures.append(
                    f"unexpected exit of worker P{conn.pid}: {cause}")
            conn.writer.close()

    def _local(self, conn: _WorkerConn, frame: Dict[str, Any]) -> None:
        """A worker frame addressed to the coordinator: a status reply."""
        if frame.get("t") != "status":
            raise FramingError(f"unroutable worker frame {frame.get('t')!r}")
        future = conn.status.pop(frame.get("rid"), None)
        if future is not None and not future.done():
            future.set_result(frame)

    def _park(self, dst: int, frame: RawFrame) -> None:
        """Hold a control frame for a down worker until it reconnects."""
        kind, origin = frame.decode()["body"][:2]  # the codec's flat form
        if kind == "ann":
            self.parked_ann.setdefault(dst, []).append(frame.data)
        elif kind == "log":
            self.parked_log.setdefault(dst, {})[origin] = frame.data
        # Logging requests are best-effort hints and acks die with the
        # endpoint: both are dropped, as in the simulation.

    def _forward(self, dst: int, data: bytes) -> Optional[_WorkerConn]:
        """Queue ``data`` to ``dst``; the connection when it must drain."""
        conn = self.conns.get(dst)
        if conn is not None and conn.queue(data):
            return conn
        return None

    # -- load ------------------------------------------------------------------

    async def _load_client(self, reader, writer) -> None:
        """An external ``repro load`` connection."""
        try:
            # Don't consume injects until the initial worker fleet is up —
            # an early client would otherwise race the spawn window and
            # see its first stimuli dropped as to-down-worker traffic.
            await self._await_hellos(range(self.plan.n))
            while True:
                frame = await read_frame(reader)
                if frame is None or frame.get("t") == "load-done":
                    break
                if frame.get("t") == "inject":
                    await self._inject(int(frame["dst"]), frame["payload"])
            write_frame(writer, {"t": "ok", "injected": self.injected})
            await writer.drain()
        except (FramingError, ConnectionError):
            pass
        finally:
            self._load_done.set()
            writer.close()

    async def _inject(self, dst: int, payload: Any) -> None:
        conn = self.conns.get(dst)
        if dst in self.down or conn is None:
            self.app_frames_dropped += 1
            return
        seq = self._seq
        self._seq += 1
        self.injected += 1
        try:
            await conn.send({"t": "cmd", "op": "inject", "seq": seq,
                             "payload": payload})
        except (ConnectionError, OSError):
            pass  # the reader task handles the disconnect bookkeeping

    async def _load_task(self) -> None:
        plan = self.plan
        if self._external_load:
            # ``repro load`` drives injection; wait for it (or the duration).
            try:
                await asyncio.wait_for(
                    self._load_done.wait(),
                    plan.duration * plan.timescale + HELLO_TIMEOUT)
            except asyncio.TimeoutError:
                pass
            return
        stimuli = plan.stimuli
        if stimuli is None:
            stimuli = generate_stimuli(
                plan.n, plan.seed, plan.duration, plan.rate,
                exclude={pid for _, pid in plan.crashes},
                profile=plan.profile,
            )
        start = asyncio.get_running_loop().time()
        for stimulus in stimuli:
            due = start + stimulus["time"] * plan.timescale
            delay = due - asyncio.get_running_loop().time()
            if delay > 0:
                await asyncio.sleep(delay)
            await self._inject(stimulus["dst"], stimulus["payload"])

    # -- crash injection -------------------------------------------------------

    async def _crash_task(self, at_units: float, pid: int) -> None:
        plan = self.plan
        await asyncio.sleep(at_units * plan.timescale)
        proc = self.procs.get(pid)
        if proc is None or proc.poll() is not None:
            return
        self.down.add(pid)  # stop routing before the kill lands
        conn = self.conns.get(pid)
        if conn is not None:
            conn.closing = True
        proc.send_signal(signal.SIGKILL)
        await asyncio.get_running_loop().run_in_executor(None, proc.wait)
        await asyncio.sleep(plan.restart_delay * plan.timescale)
        self.hello_events[pid] = asyncio.Event()
        self._spawn(pid)
        await self._await_hellos([pid])

    # -- settling --------------------------------------------------------------

    async def _status(self, pid: int) -> Optional[Dict[str, Any]]:
        conn = self.conns.get(pid)
        if conn is None:
            return None
        rid = self._rid
        self._rid += 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        conn.status[rid] = future
        await conn.send({"t": "cmd", "op": "status", "rid": rid})
        try:
            return await asyncio.wait_for(future, 5.0)
        except asyncio.TimeoutError:
            conn.status.pop(rid, None)
            return None

    async def _settle(self) -> int:
        """Flush/notify rounds until every worker is quiescent twice."""
        plan = self.plan
        pause = max(0.05, 10.0 * plan.timescale)
        consecutive = 0
        for _ in range(SETTLE_ROUNDS):
            statuses = [await self._status(pid) for pid in range(plan.n)]
            if all(s is not None and s["quiescent"] for s in statuses):
                consecutive += 1
                if consecutive >= 2:
                    return sum(s["deliveries"] for s in statuses)
            else:
                consecutive = 0
            for pid in range(plan.n):
                conn = self.conns.get(pid)
                if conn is not None:
                    await conn.send({"t": "cmd", "op": "flush"})
            await asyncio.sleep(pause)
            for pid in range(plan.n):
                conn = self.conns.get(pid)
                if conn is not None:
                    await conn.send({"t": "cmd", "op": "notify"})
            await asyncio.sleep(pause)
        self.failures.append(
            f"settle: not quiescent after {SETTLE_ROUNDS} rounds")
        return 0

    async def _shutdown_workers(self) -> None:
        for conn in list(self.conns.values()):
            conn.closing = True
            try:
                await conn.send({"t": "cmd", "op": "shutdown"})
            except (ConnectionError, OSError):
                pass
        loop = asyncio.get_running_loop()
        for proc in self.procs.values():
            if proc.poll() is None:
                try:
                    await asyncio.wait_for(
                        loop.run_in_executor(None, proc.wait), 5.0)
                except asyncio.TimeoutError:
                    proc.kill()

    # -- results ---------------------------------------------------------------

    def _trace_paths(self) -> List[str]:
        trace_dir = os.path.join(self.run_dir, "trace")
        return sorted(
            os.path.join(trace_dir, name)
            for name in os.listdir(trace_dir)
            if name.endswith(".jsonl")
        )


def run_serve(plan: ServePlan) -> ServeReport:
    """Synchronous entry point: execute one serve run to completion."""
    return asyncio.run(Coordinator(plan).run())
