"""The simulation harness: protocol instances wired to the event engine.

Each process's lifecycle — dispatch, periodic activities, crash/restart,
fail-stop — lives in :class:`~repro.runtime.host.ProcessHost`; the harness
is the simulated *environment* those hosts run in.  Responsibilities:

- supply virtual time, the engine's timer queue and the simulated network
  to one :class:`ProcessHost` per owned process (all of them by default;
  an epoch-parallel worker owns a slice);
- schedule workload traffic (outside-world messages) and the failure
  schedule's crashes, partitions and storage faults;
- build the run's one judge, the
  :class:`~repro.oracle.certifier.Certifier`, which every host's executor
  feeds inline (Theorem 4 on every release, the output-commit rule on
  every commit, consistency and the committed-output ledger at
  quiescence);
- model reliability assumptions: application messages to a crashed process
  are lost (the paper's footnote 3 declares lost in-transit messages out of
  scope), control messages are queued and delivered at restart (recovery
  announcements use reliable broadcast, as in Strom-Yemini), and on an
  unreliable network the protocol's acks and retransmission timers repair
  lost messages and announcements alike.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
import weakref
from dataclasses import replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.app.behavior import AppBehavior
from repro.core.effects import Effect
from repro.core.protocol import KOptimisticProcess
from repro.failures.injector import (
    CrashEvent,
    FailureSchedule,
    HealEvent,
    LossEvent,
    PartitionEvent,
    StorageFaultEvent,
)
from repro.net.channel import FixedLatency, UniformLatency
from repro.net.faults import ChannelFaults, NetworkFaultModel
from repro.net.network import Network
from repro.oracle.certifier import Certifier
from repro.runtime.config import (
    CONTROL_LATENCY,
    MSG_LATENCY_BASE,
    RETRANSMIT_TIMEOUT,
    SimConfig,
)
from repro.runtime.host import (Environment, ProcessHost, build_protocol,
                                start_timers)
from repro.runtime.metrics import RunMetrics, merge, share
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer
from repro.types import OutputId

#: The most flush/notify rounds ``settle`` runs before it gives up on
#: quiescence (a run that never quiesces — a variant waiting on a
#: checkpoint settle never takes — stops here, unquiescent).
SETTLE_ROUNDS = 64


class SimulationHarness:
    """Builds and runs one simulated deployment.

    Every hosted process runs ``protocol`` (default the K-optimistic
    protocol; a baseline or a checker mutant is just another class).
    ``owned`` names the pids this harness hosts (default: all ``n``).  An
    epoch-parallel worker passes its slice together with ``export``, which
    receives every transmission addressed to a pid hosted elsewhere
    (see :class:`~repro.net.network.Network`); only owned processes are
    built, registered, timed, injected into and crashed.
    """

    def __init__(
        self,
        config: SimConfig,
        behavior: AppBehavior,
        failures: Optional[FailureSchedule] = None,
        protocol: type = KOptimisticProcess,
        owned: Optional[Iterable[int]] = None,
        export: Optional[Callable[..., None]] = None,
    ):
        config.validate()
        self.failures = failures or FailureSchedule.none()
        for event in self.failures:
            if (isinstance(event, (CrashEvent, StorageFaultEvent))
                    and not 0 <= event.pid < config.n):
                raise ValueError(
                    f"{type(event).__name__} at t={event.time} names pid "
                    f"{event.pid}, outside range(n={config.n})")
        # Resolve the unreliable-network stack: a fault model whenever the
        # config rates or the schedule can perturb traffic, and acks with
        # retransmission timers alongside it.
        unreliable = config.unreliable() or self.failures.has_network_events()
        if unreliable and config.retransmit_timeout == 0:
            config = replace(config, retransmit_timeout=RETRANSMIT_TIMEOUT)
        # The file-log backend needs a directory; resolve an unset one to a
        # temporary directory owned (and eventually removed) by the harness.
        self._owned_storage_dir: Optional[str] = None
        if config.storage_backend == "filelog" and config.storage_dir is None:
            self._owned_storage_dir = tempfile.mkdtemp(prefix="repro-filelog-")
            config = replace(config, storage_dir=self._owned_storage_dir)
            # Backstop cleanup if close() is never called; close() is still
            # the polite way to release file handles promptly.
            self._dir_finalizer = weakref.finalize(
                self, shutil.rmtree, self._owned_storage_dir, True
            )
        self.config = config
        self.behavior = behavior
        self.engine = Engine()
        self.rngs = RngRegistry(config.seed)
        self.tracer = Tracer(enabled=config.trace_enabled,
                             prefix=config.trace_prefix)
        #: The run's one judge, fed inline by every host's executor (none
        #: with ``oracle_enabled`` off: such runs are certified post hoc
        #: from their ``dep.*`` records).  ``violations`` is its list.
        self.certifier: Optional[Certifier] = (
            Certifier(config.n, config.resolved_k(), config.check_invariants)
            if config.oracle_enabled else None)
        self.violations: List[str] = (
            self.certifier.violations if self.certifier is not None else [])
        faults = None
        if unreliable:
            faults = NetworkFaultModel(
                self.rngs,
                ChannelFaults(
                    drop=config.drop_rate,
                    duplicate=config.duplicate_rate,
                    reorder=config.reorder_rate,
                ),
            )
        self.network = Network(
            n=config.n,
            engine=self.engine,
            rngs=self.rngs,
            latency=UniformLatency(
                max(0.0, MSG_LATENCY_BASE - config.msg_latency_jitter),
                MSG_LATENCY_BASE + config.msg_latency_jitter,
                per_entry=config.per_entry_latency,
            ),
            control_latency=FixedLatency(CONTROL_LATENCY),
            fifo=config.fifo,
            tracer=self.tracer,
            faults=faults,
            export=export,
        )
        engine = self.engine
        #: The environment every hosted process runs in.
        self.env = Environment(
            config=config,
            now=lambda: engine.now,
            schedule=engine.schedule,
            # The engine's end-of-instant queue: behind every delivery
            # due now.
            after_due=lambda pid, callback, callbacks=1: engine.defer(
                callback,
                f"notify-drain:{pid}" if engine.wants_labels else None,
                callbacks),
            transport=self.network,
            tracer=self.tracer,
            certifier=self.certifier,
        )
        #: Probe layer (repro.check): callables invoked per executed
        #: effect and per engine step.  Empty in normal runs.
        self.effect_probes: List[Callable[["ProcessHost", Effect], None]] = []
        self._step_probes: List[Callable[["SimulationHarness"], None]] = []
        #: The hosted processes in pid order, and the same by pid.
        self.hosts: List[ProcessHost] = []
        self._by_pid: Dict[int, ProcessHost] = {}
        for pid in (range(config.n) if owned is None else owned):
            host = ProcessHost(self.env, pid,
                               build_protocol(protocol, pid, config, behavior,
                                              self.env.now),
                               effect_probes=self.effect_probes)
            self.hosts.append(host)
            self._by_pid[pid] = host
            self.network.register(pid, host.incoming)
        if self.certifier is not None:
            self.certifier.checkpoint_only = {
                host.pid for host in self.hosts
                if not host.protocol.nullify_own_on_flush}
            self.certifier.output_excused = self.journaled_before_a_crash
        for host in self.hosts:
            host.boot()

        self._inject_seq = itertools.count()
        #: The run's duration, fixed by :meth:`begin`.
        self.horizon = 0.0

        # Handles are retained so run() can cancel events scheduled beyond
        # the horizon (they must not fire mid-settle).
        self._failure_handles: List[Tuple[Any, Any]] = []
        for event in self.failures:
            if (isinstance(event, (CrashEvent, StorageFaultEvent))
                    and event.pid not in self._by_pid):
                continue  # in range but hosted elsewhere: its owner's event
            self._failure_handles.append(
                (event, self.engine.schedule_at(
                    event.time, self._make_failure(event),
                    label=f"failure:{type(event).__name__}"))
            )

    # -- probe layer ------------------------------------------------------------

    def add_step_probe(self, probe: Callable[["SimulationHarness"], None]) -> None:
        """Register a callback to run after *every* engine event.

        Probes receive the harness and typically append to
        :attr:`violations`; the systematic checker (:mod:`repro.check`)
        uses this to evaluate invariants at step granularity.
        """
        self._step_probes.append(probe)
        if self.engine.post_step is None:
            self.engine.post_step = self._run_step_probes

    def add_effect_probe(
        self, probe: Callable[["ProcessHost", Effect], None]
    ) -> None:
        """Register a callback invoked for each protocol effect, just
        before the harness interprets it."""
        self.effect_probes.append(probe)

    def _run_step_probes(self) -> None:
        for probe in self._step_probes:
            probe(self)

    def journaled_before_a_crash(self, iid: Tuple[int, int, int],
                                 seq: int) -> bool:
        """Whether the ``seq``-th output of ``iid`` is journaled as
        committed at a process that crashed.  A crash after the fsync that
        makes the commit record durable and before CommitOutput runs loses
        the output for good, since Restart will not commit it twice: a
        known open loss, which the certifier's lost-output rule excuses
        through this test (its ``output_excused``)."""
        host = self._by_pid[iid[0]]
        return bool(host.crash_times) and \
            host.protocol.storage.output_committed(OutputId(*iid, seq))

    # -- workload injection ---------------------------------------------------

    def inject_at(self, time: float, dst: int, payload: Any) -> None:
        """Schedule an outside-world message for ``dst`` at ``time``.

        The injection sequence number is drawn *now*, at schedule time,
        for every injection — also one for a process hosted elsewhere,
        which is then not scheduled: workloads install injections in one
        deterministic order, so the assignment is identical whether one
        harness schedules all of them or each parallel worker its share."""
        seq = next(self._inject_seq)
        host = self._by_pid.get(dst)
        if host is not None:
            self.engine.schedule_at(time, lambda: host.inject(payload, seq),
                                    label=f"inject->{dst}")

    def inject_now(self, dst: int, payload: Any) -> None:
        """Deliver an outside-world message to ``dst`` immediately."""
        self._by_pid[dst].inject(payload, next(self._inject_seq))

    # -- failure plumbing ------------------------------------------------------

    def _make_failure(self, event: Any) -> Callable[[], None]:
        """Map one schedule entry to its engine callback."""
        if isinstance(event, CrashEvent):
            host = self._by_pid[event.pid]
            return lambda: host.crash()
        if isinstance(event, PartitionEvent):
            def partition() -> None:
                self.network.faults.start_partition(event.islands,
                                                    self.engine.now)
                self.tracer.record(self.engine.now, "net.partition", -1,
                                   islands=str(event.islands))

            return partition
        if isinstance(event, HealEvent):
            def heal() -> None:
                self.network.faults.heal(self.engine.now)
                self.tracer.record(self.engine.now, "net.heal", -1)

            return heal
        if isinstance(event, LossEvent):
            def loss() -> None:
                self.network.faults.set_rates(drop=event.drop,
                                              duplicate=event.duplicate,
                                              reorder=event.reorder)
                self.tracer.record(self.engine.now, "net.loss_rates", -1,
                                   drop=event.drop, duplicate=event.duplicate,
                                   reorder=event.reorder)

            return loss
        if isinstance(event, StorageFaultEvent):
            def storage_fault() -> None:
                self.tracer.record(self.engine.now, "storage.fault", event.pid,
                                   kind=event.kind, count=event.count)
                self._by_pid[event.pid].protocol.storage.arm_fault(event)

            return storage_fault
        raise TypeError(f"unknown failure event {event!r}")

    # -- main loop -------------------------------------------------------------

    def begin(self, duration: float) -> None:
        """Fix the horizon, cancel the failure events beyond it and arm
        the periodic timers: per slot, per host if steps are observed."""
        self.horizon = duration
        # Failure events beyond the horizon must not fire: settle() drains
        # the queue past ``duration``, and a stray crash mid-settle would
        # wreck quiescence (and the invariant checks that assume it).
        for event, handle in self._failure_handles:
            if event.time > duration:
                handle.cancel()
        start_timers(self.hosts, duration,
                     fold=not self.engine.steps_observed)

    def run(self, duration: float, settle: bool = True) -> None:
        """Run for ``duration`` virtual time units, then (optionally) settle:
        drain in-flight traffic and force enough flush/notify rounds that
        every held message is either released or discarded."""
        self.begin(duration)
        self.engine.run(until=duration, max_events=20_000_000)
        if settle:
            self.settle()

    def settle(self) -> None:
        """Quiesce the system after the timed phase: flush/notify rounds
        until every process is quiescent, at most :data:`SETTLE_ROUNDS`."""
        # A partition still in force would hold traffic hostage forever;
        # heal it so quiescence is reachable (and partition_time is closed).
        if self.network.faults is not None:
            self.network.faults.heal(self.engine.now)
        self.engine.run(max_events=20_000_000)
        self.restart_down()
        self.engine.run(max_events=20_000_000)
        for _ in range(SETTLE_ROUNDS):
            # The flush/notify rounds exist only to dislodge held traffic;
            # once every buffer is empty another round cannot change
            # anything (the engine queue is already drained), so stop.
            if self.quiescent():
                break
            self.flush_all()
            self.engine.run(max_events=20_000_000)
            self.notify_all()
            self.engine.run(max_events=20_000_000)
        if self.certifier is not None:
            self.certifier.finish()

    # The steps of settle(), one by one: the epoch-parallel runner drives
    # them across its barrier.

    def restart_down(self) -> None:
        """A crash close to the horizon may leave a process down."""
        for host in self.hosts:
            if host.down:
                host.restart()

    def quiescent(self) -> bool:
        """True when every hosted process is quiescent (with the event
        queue drained, nothing can move again)."""
        return all(host.quiescent() for host in self.hosts)

    def flush_all(self) -> None:
        for host in self.hosts:
            host.flush()

    def notify_all(self) -> None:
        for host in self.hosts:
            host.notify()

    # -- teardown --------------------------------------------------------------

    def close(self) -> None:
        """Release storage resources: close backend file handles and remove
        a harness-owned temporary journal directory.  Idempotent; runs with
        the model backend too (where it is a no-op)."""
        for host in self.hosts:
            try:
                host.protocol.storage.close()
            except Exception:
                pass
        if self._owned_storage_dir is not None:
            shutil.rmtree(self._owned_storage_dir, ignore_errors=True)
            self._owned_storage_dir = None

    # -- results ---------------------------------------------------------------

    @property
    def committed_outputs(self) -> List[Tuple[float, Any]]:
        """Every hosted commit as ``(time, record)``, in time order (pid
        order within one instant)."""
        return sorted((commit for host in self.hosts
                       for commit in host.commits),
                      key=lambda commit: commit[0])

    def metrics(self) -> RunMetrics:
        """Aggregate the run into a :class:`RunMetrics` summary."""
        return merge([share(self)])
