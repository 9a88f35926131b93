"""Epoch-barrier parallel runner: W process slices on W real OS processes.

This runner puts each slice of processes (``pid % W``) with its own event
heap on its own forked worker and exploits the network's minimum latency
as conservative PDES lookahead:

    L = min(MSG_LATENCY_BASE - msg_latency_jitter, CONTROL_LATENCY) > 0

Every cross-process message generated at time ``t`` arrives no earlier
than ``t + L``.  Each epoch the coordinator computes the global minimum
pending event time ``h`` (after inserting the previous epoch's
cross-worker arrivals) and lets every worker drain its heap through the
window ``[h, h + L)`` independently — no event fired in the window can
produce an arrival inside it.  At the barrier the workers' outboxes are
exchanged, canonically ordered, and inserted; the certified ``dep.*``
trace of the merged run is bit-identical to the serial engine's.

The barrier is two-phase — *insert* is acknowledged by every receiver
before any *run* command is issued — which doubles as the lifetime fence
for the shared-memory snapshot arenas (:mod:`repro.parallel.shm`).
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Dict, List, Optional, Tuple

from repro.app.behavior import AppBehavior
from repro.core.protocol import KOptimisticProcess
from repro.failures.injector import (
    CrashEvent,
    FailureSchedule,
    StorageFaultEvent,
)
from repro.parallel.trace import DepEvent, canonical_dep_events
from repro.parallel.worker import OutboxEntry, worker_main
from repro.runtime.config import (CONTROL_LATENCY, MSG_LATENCY_BASE,
                                  SETTLE_ROUNDS, SimConfig)
from repro.runtime.metrics import RunMetrics, merge


def lookahead(config: SimConfig) -> float:
    """The conservative lookahead window (positive by config validation)."""
    return min(MSG_LATENCY_BASE - config.msg_latency_jitter, CONTROL_LATENCY)


#: Canonical barrier-merge order for cross-worker arrivals.  ``src``
#: identifies the generating worker and ``counter`` preserves that
#: worker's generation order, so the sort is a deterministic function of
#: the run, independent of which worker's outbox drained first.
def _merge_key(entry: OutboxEntry):
    return entry[:4]


class _EngineView:
    """Duck-typed stand-in for :attr:`SimulationHarness.engine` so bench
    code can read ``harness.engine.events_executed`` unchanged."""

    def __init__(self) -> None:
        self.events_executed = 0
        self.now = 0.0


class ParallelHarness:
    """Drop-in bench/experiment harness running ``config.parallel_workers``
    worker processes.

    Duck-compatible with :class:`SimulationHarness` where the benchmark
    needs it: ``run(duration)``, ``metrics()``, ``engine.events_executed``,
    ``close()``.  The run is single-shot — ``run`` tears the workers down
    after collecting results.
    """

    def __init__(
        self,
        config: SimConfig,
        behavior: AppBehavior,
        failures: Optional[FailureSchedule] = None,
        workload: Any = None,
        install_until: float = 0.0,
        protocol: type = KOptimisticProcess,
    ):
        config.validate()
        if config.parallel_workers < 2:
            raise ValueError(
                "ParallelHarness needs parallel_workers >= 2; "
                "use SimulationHarness for serial runs")
        schedule = failures or FailureSchedule.none()
        for event in schedule:
            if not isinstance(event, (CrashEvent, StorageFaultEvent)):
                raise ValueError(
                    f"parallel execution supports only crash and storage "
                    f"fault events, got {type(event).__name__} (network "
                    f"perturbations require the serial harness)")
        self.config = config
        self.workers = config.parallel_workers
        self._lookahead = lookahead(config)
        self.engine = _EngineView()
        self._duration = 0.0
        self._finished = False
        self._shares: List[Dict[str, Any]] = []
        self._dep_events: List[DepEvent] = []
        self.committed_outputs: List[Tuple[float, int, Any]] = []

        ctx = multiprocessing.get_context("fork")
        self._conns = []
        self._procs = []
        for worker_id in range(self.workers):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=worker_main,
                args=(child, worker_id, self.workers, config, behavior,
                      schedule, workload, install_until, protocol),
                daemon=True,
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
        self._arena_names: Dict[int, str] = {}
        for worker_id, name in enumerate(self._collect()):
            if name is not None:
                self._arena_names[worker_id] = name
        self._peeks: List[Optional[float]] = [None] * self.workers
        self._nows: List[float] = [0.0] * self.workers
        #: Barrier statistics (exposed for perf analysis and tests).
        self.epochs = 0
        self.cross_messages = 0

    # -- worker plumbing -------------------------------------------------------

    def _collect(self) -> List[Any]:
        replies = []
        for worker_id, conn in enumerate(self._conns):
            try:
                tag, value = conn.recv()
            except EOFError:
                raise RuntimeError(f"worker {worker_id} died") from None
            if tag == "error":
                raise RuntimeError(f"worker {worker_id} failed: {value}")
            replies.append(value)
        return replies

    def _command_all(self, command: Tuple[str, Any]) -> List[Any]:
        for conn in self._conns:
            conn.send(command)
        return self._collect()

    def _note_run_replies(self, replies: List[Any]) -> List[List[OutboxEntry]]:
        outboxes = []
        for worker_id, (outbox, peek, now) in enumerate(replies):
            self._peeks[worker_id] = peek
            self._nows[worker_id] = now
            outboxes.append(outbox)
        return outboxes

    def _route(self, outboxes: List[List[OutboxEntry]]) -> None:
        """Exchange phase: group arrivals by destination worker, order
        them canonically, and insert before anyone runs again."""
        groups: List[List[OutboxEntry]] = [[] for _ in range(self.workers)]
        for outbox in outboxes:
            self.cross_messages += len(outbox)
            for entry in outbox:
                groups[entry[4] % self.workers].append(entry)
        pending = []
        for worker_id, group in enumerate(groups):
            if not group:
                continue
            group.sort(key=_merge_key)
            self._conns[worker_id].send(("insert", group))
            pending.append(worker_id)
        for worker_id in pending:
            tag, peek = self._conns[worker_id].recv()
            if tag == "error":
                raise RuntimeError(f"worker {worker_id} failed: {peek}")
            self._peeks[worker_id] = peek

    def _drain(self) -> None:
        """Epoch loop: run windows of width L until every queue is empty
        and no cross-worker arrival is in flight."""
        while True:
            times = [p for p in self._peeks if p is not None]
            if not times:
                return
            bound = min(times) + self._lookahead
            self.epochs += 1
            replies = self._command_all(("run", bound))
            self._route(self._note_run_replies(replies))

    def _align(self) -> None:
        """Advance every (drained) worker clock to the global frontier, so
        barrier-driven actions (restart, flush, notify) happen at the same
        virtual time the serial run would use."""
        target = max(self._nows + [self._duration])
        self._command_all(("advance", target))
        self._nows = [target] * self.workers
        self.engine.now = target

    def _barrier_action(self, command: str) -> None:
        replies = self._command_all((command, None))
        self._route(self._note_run_replies(replies))
        self._drain()

    # -- main loop -------------------------------------------------------------

    def run(self, duration: float, settle: bool = True) -> None:
        if self._finished:
            raise RuntimeError("ParallelHarness.run is single-shot")
        self._duration = duration
        self._peeks = self._command_all(("start", (duration, self._arena_names)))
        self._drain()
        if settle:
            self._settle()
        self._finish()

    def _settle(self) -> None:
        """Mirror :meth:`SimulationHarness.settle` across the barrier."""
        self._align()
        self._barrier_action("restart_down")
        for _ in range(SETTLE_ROUNDS):
            if all(self._command_all(("quiescent", None))):
                break
            self._align()
            self._barrier_action("flush")
            self._align()
            self._barrier_action("notify")

    def _finish(self) -> None:
        results = self._command_all(("finish", None))
        self._finished = True
        for proc in self._procs:
            proc.join(timeout=30)
        total_events = 0
        final_now = self.engine.now
        self.worker_cpu_s = [result.get("cpu_s", 0.0) for result in results]
        #: Processes each worker built and hosted (its share of n).
        self.worker_hosts = [result["hosts"] for result in results]
        for result in results:
            self._shares.append(result["share"])
            self._dep_events.extend(result["dep_events"])
            self.committed_outputs.extend(result["committed"])
            total_events += result["events_executed"]
            final_now = max(final_now, result["now"])
        self.engine.events_executed = total_events
        self.engine.now = final_now
        self.committed_outputs.sort(key=lambda rec: (rec[0], rec[1]))

    # -- results ---------------------------------------------------------------

    def metrics(self) -> RunMetrics:
        if not self._finished:
            raise RuntimeError("metrics() before run() completed")
        return merge(self._shares)

    def dep_events(self) -> List[DepEvent]:
        """The merged ``dep.*`` trace in canonical order (see
        :mod:`repro.parallel.trace`)."""
        return canonical_dep_events(self._dep_events)

    # -- teardown --------------------------------------------------------------

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10)
        self._conns = []
        self._procs = []
