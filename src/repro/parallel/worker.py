"""The worker side of epoch-parallel execution.

Each worker OS process runs a :class:`_WorkerHarness` — a
:class:`~repro.runtime.harness.SimulationHarness` that owns the slice
``pid % workers == worker_id``: only those processes
are built (so only they open a journal), registered, timed, injected into
and crashed, and the network exports any transmission addressed to a pid
hosted elsewhere into the epoch outbox instead of scheduling it locally.

Determinism contract (what makes the merged run bit-identical to serial
execution):

- all named rng streams are derived from the root seed, and every stream
  is drawn *only* on the worker that owns its process or channel —
  workload installation runs identically in every worker (consuming the
  same draws), channel latencies are drawn at the sender's worker, and
  notify-fanout peers at the notifying pid's worker;
- workload injections consume the global injection-sequence counter in
  install order in every worker, so message ids match the serial run even
  though each worker schedules only its local subset;
- within a worker, events are fired in ``(time, seq)`` order (and the
  end-of-instant queue drained) exactly as the serial engine would fire
  the same subsequence.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from repro.core.protocol import KOptimisticProcess
from repro.failures.injector import FailureSchedule
from repro.net.message import LogProgressNotification
from repro.parallel import shm as shm_mod
from repro.parallel.shm import ArenaMap, ShmSnapshotRef, SnapshotArena
from repro.runtime.config import SimConfig
from repro.runtime.harness import SimulationHarness

#: One cross-worker delivery: ``(arrival, gen_time, src, counter, dst,
#: payload, label)``.  The first four fields are the canonical
#: barrier-merge sort key; ``counter`` is a per-worker tiebreak that
#: preserves each sender's generation order.
OutboxEntry = Tuple[float, float, int, int, int, Any, Optional[str]]

#: Engine-step safety net per epoch (mirrors the serial harness budget).
MAX_EPOCH_EVENTS = 20_000_000

#: Sentinel distinguishing "not yet staged" from "staging declined".
_UNSTAGED = object()


def worker_config(config: SimConfig) -> SimConfig:
    """The per-worker view of a parallel run's config: in-process serial
    execution, no inline oracle (certification is post-hoc from ``dep.*``
    traces)."""
    return replace(
        config,
        parallel_workers=0,
        oracle_enabled=False,
        check_invariants=False,
    )


class _WorkerHarness(SimulationHarness):
    """One worker's slice of the deployment."""

    def __init__(self, config: SimConfig, behavior: Any,
                 failures: Optional[FailureSchedule], worker_id: int,
                 workers: int, protocol: type = KOptimisticProcess):
        self._worker_id = worker_id
        #: Transmissions to pids hosted by other workers, since the last
        #: :meth:`take_outbox`.
        self.outbox: List[OutboxEntry] = []
        self._outbox_counter = itertools.count()
        super().__init__(worker_config(config), behavior, failures=failures,
                         protocol=protocol,
                         owned=range(worker_id, config.n, workers),
                         export=self._export)
        self.arena: Optional[SnapshotArena] = None
        self.arenas: Optional[ArenaMap] = None
        if shm_mod._np is not None:
            self.arena = SnapshotArena()

    def _export(self, arrival: float, src: int, dst: int, payload: Any,
                label: Optional[str]) -> None:
        self.outbox.append((arrival, self.engine.now, src,
                            next(self._outbox_counter), dst, payload, label))

    # -- epoch protocol --------------------------------------------------------

    def attach_arenas(self, names: Dict[int, str]) -> None:
        self.arenas = ArenaMap(names, self._worker_id, self.arena)

    def begin(self, duration: float) -> None:
        # CPU accounting starts here so the reported figure covers the
        # run phase only — construction/install happen before the timed
        # region of a benchmark iteration.
        self._cpu_mark = time.process_time()
        super().begin(duration)

    def run_epoch(self, bound: Optional[float]) -> None:
        """Fire every pending event with time strictly below ``bound``
        (or all of them when ``bound`` is None — the drain phases)."""
        if self.arena is not None:
            # Fence: the runner's two-phase barrier guarantees every
            # receiver materialized last epoch's staged snapshots before
            # any worker enters this epoch, so recycling is safe.
            self.arena.reset()
        engine = self.engine
        fired = 0
        while True:
            next_time = engine._peek_time()
            if next_time is None or (bound is not None and next_time >= bound):
                return
            engine.step()
            fired += 1
            if fired > MAX_EPOCH_EVENTS:
                raise RuntimeError(
                    f"exceeded {MAX_EPOCH_EVENTS} events in one epoch; "
                    "possible livelock")

    def take_outbox(self) -> List[OutboxEntry]:
        """Drain the cross-worker outbox, staging large dense snapshot
        payloads into this worker's shared-memory arena."""
        outbox, self.outbox = self.outbox, []
        if self.arena is None:
            return outbox
        staged: List[OutboxEntry] = []
        # One notify() fans a single snapshot out to many destinations;
        # stage the shared columns once and reuse the descriptor.
        seen: Dict[int, Optional[ShmSnapshotRef]] = {}
        for entry in outbox:
            payload = entry[5]
            if isinstance(payload, LogProgressNotification):
                key = id(payload.table)
                ref = seen.get(key, _UNSTAGED)
                if ref is _UNSTAGED:
                    ref = shm_mod.stage_snapshot(self.arena, self._worker_id,
                                                 payload.table)
                    seen[key] = ref
                if ref is not None:
                    payload = LogProgressNotification(payload.origin, ref)
                    entry = entry[:5] + (payload, entry[6])
            staged.append(entry)
        return staged

    def insert_arrivals(self, entries: List[OutboxEntry]) -> None:
        """Insert barrier-merged cross-worker arrivals, in the canonical
        order the coordinator sorted them into."""
        # Refs to the same staged block share one materialized snapshot —
        # mirroring the serial run, where every destination of one
        # notify() fanout receives the same (read-only) snapshot object.
        cache: Dict[ShmSnapshotRef, Any] = {}
        for arrival, _gen, _src, _counter, dst, payload, label in entries:
            payload = self._materialize(payload, cache)
            self.engine.schedule_at_raw(
                arrival, self.network._arrive, ((dst,), payload), label=label)

    def _materialize(self, payload: Any, cache: Dict[ShmSnapshotRef, Any]) -> Any:
        if (isinstance(payload, LogProgressNotification)
                and isinstance(payload.table, ShmSnapshotRef)):
            if self.arenas is None:
                raise RuntimeError("shm ref received before attach_arenas")
            ref = payload.table
            snap = cache.get(ref)
            if snap is None:
                snap = self.arenas.materialize(ref)
                cache[ref] = snap
            return LogProgressNotification(payload.origin, snap)
        return payload

    def peek(self) -> Optional[float]:
        return self.engine._peek_time()

    # -- results ---------------------------------------------------------------

    def collect_results(self) -> Dict[str, Any]:
        """Everything the coordinator needs: this slice's raw metric
        totals, its ``dep.*`` trace, and the committed outputs."""
        dep_events = [record for record in self.tracer.rows("dep.")
                      if record[2] is not None]
        committed = [
            (now, record.process, record.output_id)
            for now, record in self.committed_outputs
        ]
        return {
            "worker": self._worker_id,
            "hosts": len(self.hosts),
            "totals": self.totals(),
            "dep_events": dep_events,
            "committed": committed,
            "events_executed": self.engine.events_executed,
            "now": self.engine.now,
            "cpu_s": time.process_time() - getattr(self, "_cpu_mark", 0.0),
        }

    def close(self) -> None:
        super().close()
        if self.arenas is not None:
            self.arenas.close()
            self.arenas = None
        if self.arena is not None:
            self.arena.close()
            self.arena = None


def worker_main(conn: Any, worker_id: int, workers: int, config: SimConfig,
                behavior: Any, failures: Optional[FailureSchedule],
                workload: Any, install_until: float,
                protocol: type = KOptimisticProcess) -> None:
    """Command loop driven by :class:`repro.parallel.runner.ParallelHarness`.

    Runs in a forked child; every command is answered exactly once, and
    ``finish`` replies with the result payload and exits the loop.
    """
    harness = _WorkerHarness(config, behavior, failures, worker_id, workers,
                             protocol=protocol)
    try:
        if workload is not None:
            workload.install(harness, until=install_until)
        arena_name = harness.arena.name if harness.arena is not None else None
        conn.send(("ready", arena_name))
        while True:
            cmd, arg = conn.recv()
            if cmd == "start":
                duration, arena_names = arg
                if arena_names:
                    harness.attach_arenas(arena_names)
                harness.begin(duration)
                conn.send(("ok", harness.peek()))
            elif cmd == "insert":
                harness.insert_arrivals(arg)
                conn.send(("ok", harness.peek()))
            elif cmd == "run":
                harness.run_epoch(arg)
                conn.send(("done", (harness.take_outbox(), harness.peek(),
                                    harness.engine.now)))
            elif cmd == "advance":
                harness.engine.advance_to(arg)
                conn.send(("ok", None))
            elif cmd == "restart_down":
                harness.restart_down()
                conn.send(("done", (harness.take_outbox(), harness.peek(),
                                    harness.engine.now)))
            elif cmd == "quiescent":
                conn.send(("ok", harness.quiescent()))
            elif cmd == "flush":
                harness.flush_all()
                conn.send(("done", (harness.take_outbox(), harness.peek(),
                                    harness.engine.now)))
            elif cmd == "notify":
                harness.notify_all()
                conn.send(("done", (harness.take_outbox(), harness.peek(),
                                    harness.engine.now)))
            elif cmd == "finish":
                conn.send(("result", harness.collect_results()))
                return
            else:
                raise RuntimeError(f"unknown command {cmd!r}")
    except BaseException as exc:  # surface worker failures to the runner
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        raise
    finally:
        harness.close()
