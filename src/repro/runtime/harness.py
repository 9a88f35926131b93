"""The simulation harness: protocol instances wired to the event engine.

Each process's lifecycle — dispatch, periodic activities, crash/restart,
fail-stop — lives in :class:`~repro.runtime.host.ProcessHost`; the harness
is the simulated *environment* those hosts run in.  Responsibilities:

- supply virtual time, the engine's timer queue and the simulated network
  to one :class:`ProcessHost` per owned process (all of them by default;
  an epoch-parallel worker owns a slice);
- schedule workload traffic (outside-world messages) and the failure
  schedule's crashes, partitions and storage faults;
- feed the run's facts to its one judge, the
  :class:`~repro.oracle.certifier.Certifier` (Theorem 4 on every release,
  the output-commit rule on every commit, consistency and the
  committed-output ledger at quiescence);
- model reliability assumptions: application messages to a crashed process
  are lost (the paper's footnote 3 declares lost in-transit messages out of
  scope); on a reliable network control messages are queued and delivered
  at restart (recovery announcements use reliable broadcast, as in
  Strom-Yemini), while on an unreliable one announcements travel through
  the ack/retransmit layer and timer-driven retransmission covers lost
  application messages.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
import weakref
from dataclasses import replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.app.behavior import AppBehavior
from repro.core.effects import Effect, MessageDelivered, RestartPerformed, RollbackPerformed, StableProgress
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
from repro.net.message import AppMessage
from repro.net.network import Network
from repro.net.reliable import ReliableConfig
from repro.oracle.certifier import Certifier
from repro.runtime.config import (
    ASYNC_WRITE_COST,
    CONTROL_LATENCY,
    MSG_LATENCY_BASE,
    SYNC_WRITE_COST,
    SimConfig,
)
from repro.runtime.executor import ExecutionHooks
from repro.runtime.host import Environment, ProcessHost, build_protocol
from repro.runtime.metrics import RunMetrics, RunTotals, derive_metrics
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer

class _HarnessHooks(ExecutionHooks):
    """Executor hooks that keep the run's books (committed outputs, latency
    samples, controller waits, rollback events) and, when the harness has
    a certifier, feed it the run's facts inline — judging releases and
    commits only under ``check_invariants``."""

    def __init__(self, harness: "SimulationHarness", pid: int):
        self.harness = harness
        self.pid = pid
        self.certifier = harness.certifier
        self.judge = (harness.certifier if harness.config.check_invariants
                      else None)

    def pre_release(self, msg: AppMessage) -> None:
        if self.judge is not None:
            self.judge.release(self.pid, msg.send_interval, msg.msg_id,
                               msg.k_limit)

    def post_commit(self, now: float, record: Any, wait: float = 0.0) -> None:
        if self.judge is not None:
            self.judge.commit(self.pid, record.send_interval,
                              record.output_id, record.payload)
        self.harness.committed_outputs.append((now, record))
        # Output-commit latency sample: end-to-end (injection to commit)
        # when the payload carries an open-loop injection stamp ``t0``,
        # buffer residence time otherwise.  Feeds both the run-level SLO
        # percentiles and this process's adaptive-K controller window.
        sample = wait
        payload = record.payload
        if isinstance(payload, dict):
            t0 = payload.get("t0")
            if isinstance(t0, (int, float)):
                sample = now - float(t0)
        self.harness.output_latency_samples.append(sample)
        host = self.harness._by_pid[self.pid]
        if host.controller is not None:
            host.commit_waits.append(sample)

    def on_delivery(self, effect: MessageDelivered) -> None:
        if self.certifier is not None:
            self.certifier.deliver(self.pid, effect.interval,
                                   effect.message.src,
                                   effect.message.send_interval)

    def on_stable(self, effect: StableProgress) -> None:
        if self.certifier is not None:
            self.certifier.stable(self.pid, effect.through)

    def on_rollback(self, now: float, effect: RollbackPerformed) -> None:
        if self.certifier is not None:
            self.certifier.recover(self.pid, effect.restored_to,
                                   effect.new_current)
        self.harness.rollback_events.append((now, self.pid))

    def on_restart(self, now: float, effect: RestartPerformed) -> None:
        if self.certifier is None:
            return
        survivor = effect.announcement.end
        # Count lost intervals against the pre-truncation chain tip.
        tip = self.certifier.oracle.live_interval(self.pid)
        self.harness.intervals_lost += max(0, tip[2] - survivor.sii)
        self.certifier.recover(self.pid, survivor, effect.new_current)


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
        # config rates or the schedule can perturb traffic, and (unless
        # forced) the ack/retransmit layer alongside it.
        unreliable = config.unreliable() or self.failures.has_network_events()
        self.ack_enabled = (
            unreliable if config.ack_layer is None else config.ack_layer
        )
        if self.ack_enabled and config.retransmit_timeout == 0:
            config = replace(config, retransmit_timeout=ReliableConfig().rto)
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
        #: The run's one judge, fed inline by every host's executor hooks
        #: (none with ``oracle_enabled`` off: such runs are certified post
        #: hoc from their ``dep.*`` records).  ``violations`` is its list.
        self.certifier: Optional[Certifier] = (
            Certifier(config.n, config.resolved_k())
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
            reliable_config=ReliableConfig() if self.ack_enabled else None,
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
            after_due=lambda pid, callback: engine.defer(
                callback,
                f"notify-drain:{pid}" if engine.wants_labels else None),
            transport=self.network,
            tracer=self.tracer,
            ack_app=self.ack_enabled,
        )
        #: Probe layer (repro.check): callables invoked per executed
        #: effect and per engine step.  Empty in normal runs.
        self.effect_probes: List[Callable[["ProcessHost", Effect], None]] = []
        self._step_probes: List[Callable[["SimulationHarness"], None]] = []
        controller_config = None
        if config.adaptive_k:
            # Imported lazily: repro.control's latency math lives on
            # repro.runtime.metrics, so a top-level import here would
            # close an import cycle through the package __init__s.
            from repro.control import AdaptiveKController, ControllerConfig

            controller_config = ControllerConfig(
                k_max=config.resolved_k_max(),
                slo_target=config.slo_output_latency,
            )
        #: The hosted processes in pid order, and the same by pid.
        self.hosts: List[ProcessHost] = []
        self._by_pid: Dict[int, ProcessHost] = {}
        for pid in (range(config.n) if owned is None else owned):
            host = ProcessHost(self.env, pid,
                               build_protocol(protocol, pid, config, behavior,
                                              self.env.now),
                               hooks=_HarnessHooks(self, pid),
                               effect_probes=self.effect_probes)
            if controller_config is not None:
                host.controller = AdaptiveKController(
                    pid, controller_config, seed=config.seed
                )
                # Every message the application sends without an explicit
                # bound now carries the controller's current K (Section
                # 4.2's per-message path keeps receivers correct).
                host.protocol.k_policy = host.controller.recommend
            self.hosts.append(host)
            self._by_pid[pid] = host
            self.network.register(pid, host.incoming)
        for host in self.hosts:
            host.boot()

        self.committed_outputs: List[Tuple[float, Any]] = []
        #: One output-commit latency sample per committed output:
        #: end-to-end when the payload stamps ``t0``, buffer wait otherwise.
        self.output_latency_samples: List[float] = []
        self.rollback_events: List[Tuple[float, int]] = []
        self.crash_events: List[Tuple[float, int]] = []
        self.partition_events: List[Tuple[float, str]] = []
        self.intervals_lost = 0
        self._inject_seq = itertools.count()
        self._horizon = 0.0

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

    def _make_crash(self, pid: int) -> Callable[[], None]:
        def crash() -> None:
            self.crash_events.append((self.engine.now, pid))
            self._by_pid[pid].crash()

        return crash

    def _make_failure(self, event: Any) -> Callable[[], None]:
        """Map one schedule entry to its engine callback."""
        if isinstance(event, CrashEvent):
            return self._make_crash(event.pid)
        if isinstance(event, PartitionEvent):
            def partition() -> None:
                self.network.faults.start_partition(event.islands,
                                                    self.engine.now)
                self.partition_events.append((self.engine.now, "partition"))
                self.tracer.record(self.engine.now, "net.partition", -1,
                                   islands=str(event.islands))

            return partition
        if isinstance(event, HealEvent):
            def heal() -> None:
                self.network.faults.heal(self.engine.now)
                self.partition_events.append((self.engine.now, "heal"))
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
        every host's periodic timers."""
        self._horizon = duration
        # Failure events beyond the horizon must not fire: settle() drains
        # the queue past ``duration``, and a stray crash mid-settle would
        # wreck quiescence (and the invariant checks that assume it).
        for event, handle in self._failure_handles:
            if event.time > duration:
                handle.cancel()
        for host in self.hosts:
            host.start_timers(duration)

    def run(self, duration: float, settle: bool = True) -> None:
        """Run for ``duration`` virtual time units, then (optionally) settle:
        drain in-flight traffic and force enough flush/notify rounds that
        every held message is either released or discarded."""
        self.begin(duration)
        self.engine.run(until=duration, max_events=20_000_000)
        if settle:
            self.settle()

    def settle(self, rounds: int = 4) -> None:
        """Quiesce the system after the timed phase."""
        # A partition still in force would hold traffic hostage forever;
        # heal it so quiescence is reachable (and partition_time is closed).
        if self.network.faults is not None:
            self.network.faults.heal(self.engine.now)
        self.engine.run(max_events=20_000_000)
        self.restart_down()
        self.engine.run(max_events=20_000_000)
        for _ in range(rounds):
            # The flush/notify rounds exist only to dislodge held traffic;
            # once every buffer is empty another round cannot change
            # anything (the engine queue is already drained), so stop.
            if self.quiescent():
                break
            self.flush_all()
            self.engine.run(max_events=20_000_000)
            self.notify_all()
            self.engine.run(max_events=20_000_000)
        if self.config.check_invariants:
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

    def metrics(self) -> RunMetrics:
        """Aggregate the run into a :class:`RunMetrics` summary."""
        return derive_metrics([self.totals()])

    def totals(self) -> RunTotals:
        """This harness's raw share of the run's metrics: sums over the
        hosted processes and their sends (see :class:`RunTotals`)."""
        m = RunMetrics(n=self.config.n, k=self.config.resolved_k(),
                       duration=self._horizon,
                       slo_target=self.config.slo_output_latency)
        totals = RunTotals(
            counters=m,
            piggyback_total=self.network.piggyback_entries_total,
            app_messages_sent=self.network.app_messages_sent,
            output_latency_samples=list(self.output_latency_samples),
            crash_events=list(self.crash_events),
            rollback_events=list(self.rollback_events),
        )
        for host in self.hosts:
            stats = host.protocol.stats
            m.messages_enqueued += stats.messages_enqueued
            m.messages_released += stats.messages_released
            m.messages_delivered += stats.deliveries - stats.replayed_deliveries
            totals.send_hold_total += stats.send_hold_time_total
            totals.delivery_wait_total += stats.delivery_wait_total
            totals.output_wait_total += stats.output_wait_total
            m.max_send_hold = max(m.max_send_hold, stats.send_hold_time_max)
            m.duplicates_dropped += stats.duplicates_dropped
            m.orphans_discarded += stats.orphans_discarded
            m.outputs_discarded += stats.outputs_discarded
            m.outputs_committed += stats.outputs_committed
            m.rollbacks += stats.rollbacks
            m.intervals_undone += stats.intervals_undone
            m.messages_requeued += stats.messages_requeued
            m.app_messages_lost += host.lost_app_messages
            m.crashes += host.crash_count
            m.retransmissions += stats.retransmissions
            m.timer_retransmissions += stats.timer_retransmissions
            m.acks_received += stats.acks_received
            m.retransmit_budget_exhausted += stats.retransmit_budget_exhausted
            m.outputs_pending += len(host.protocol.output_buffer)
            storage = host.protocol.storage
            m.sync_writes += storage.sync_writes
            m.async_writes += storage.async_writes
            m.gc_reclaimed += storage.gc_reclaimed
            m.final_log_records += storage.log_size
            m.final_checkpoints += len(storage.checkpoints)
            m.storage_bytes_written += storage.bytes_written
            m.storage_bytes_fsynced += storage.bytes_fsynced
            m.storage_fsyncs += storage.fsyncs
            m.storage_group_commits += storage.group_commits
            m.storage_forced_commits += storage.forced_group_commits
            m.storage_io_errors += storage.io_errors
            m.storage_io_retries += storage.io_retries
            m.storage_fsync_lies += storage.fsync_lies
            m.storage_recoveries += storage.recoveries
            m.storage_recovered_records += storage.recovered_records
            m.storage_torn_dropped += storage.torn_records_dropped
            m.storage_corrupt_dropped += storage.corrupt_records_dropped
            m.storage_recovery_wall_s += storage.recovery_wall_s
            m.storage_dead_declared += storage.dead_declared
            m.storage_deaths += host.storage_deaths
            controller = host.controller
            if controller is not None:
                m.k_decisions += len(controller.decisions) - 1  # minus "init"
                totals.k_history.extend(k for _, k in controller.history)
                totals.k_final.append(float(controller.k))
        m.max_piggyback_entries = self.network.piggyback_entries_max
        m.control_messages = self.network.control_messages_sent
        m.storage_cost = (m.sync_writes * SYNC_WRITE_COST
                          + m.async_writes * ASYNC_WRITE_COST)
        m.app_drops = self.network.app_dropped
        m.control_drops = self.network.control_dropped
        m.partition_drops = self.network.partition_drops
        m.duplicates_injected = self.network.duplicates_injected
        if self.network.faults is not None:
            m.partitions = self.network.faults.partitions_seen
            m.partition_time = self.network.faults.partition_time
        if self.network.reliable is not None:
            m.ctl_retransmits = self.network.reliable.retransmits
            m.ctl_acked = self.network.reliable.acked
            m.ctl_budget_exhausted = self.network.reliable.budget_exhausted
            totals.ack_rtt_total = self.network.reliable.ack_rtt_total
        m.intervals_lost = self.intervals_lost
        certifier = self.certifier
        if certifier is not None:
            m.total_intervals = certifier.oracle.total_intervals
            m.rolled_back_intervals = certifier.oracle.rolled_back_intervals
            m.max_release_revokers = certifier.max_release_revokers
        m.violations = list(self.violations)
        return totals
