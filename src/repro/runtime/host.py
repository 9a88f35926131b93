"""One process's lifecycle, written once for every driver.

A :class:`ProcessHost` owns everything the paper defines per process
around the sans-IO protocol: payload -> handler dispatch, the same-tick
notification batch, the phase-staggered flush / checkpoint / notify /
control timers, outside-world injection, quiescence, crash / downtime
parking / restart, boot (fresh or after a crash), the clean fail-stop on
a dead journal, the checker's effect probes, the process's books (commits,
latency samples, rollbacks, lost intervals) and its adaptive-K
controller.  It is written against an :class:`Environment`, never
against a driver:

- the **simulation harness** supplies virtual time, the engine's timer
  queue and the simulated :class:`~repro.net.network.Network` (a parallel
  epoch worker is the same harness owning a slice of the pids);
- the **runtime backplane** (:mod:`repro.backplane.worker`) supplies the
  wall clock, asyncio timers and a TCP transport.

What a driver keeps for itself is how bytes move and when time passes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Set, Tuple

from repro.app.behavior import AppBehavior
from repro.core.effects import Effect
from repro.core.protocol import KOptimisticProcess
from repro.net.message import (
    AppAck,
    AppMessage,
    ControlAck,
    ControlEnvelope,
    ControlMessage,
    FailureAnnouncement,
    LoggingRequest,
    LogProgressNotification,
)
from repro.runtime.config import SimConfig
from repro.runtime.executor import EffectExecutor
from repro.sim.trace import Tracer
from repro.storage.backend import make_backend
from repro.storage.faults import StorageDeadError
from repro.types import MessageId

if TYPE_CHECKING:
    from repro.oracle.certifier import Certifier


@dataclass
class Environment:
    """What a :class:`ProcessHost` needs from whatever drives it."""

    config: SimConfig
    #: Current time: virtual in simulation, wall-clock in ``serve``.
    now: Callable[[], float]
    #: ``schedule(delay, callback)`` -> handle with ``.cancel()``.
    schedule: Callable[..., Any]
    #: ``after_due(pid, callback)``: run ``callback`` once, at the current
    #: time, after everything due at it has been handled — including
    #: whatever that work makes due now (the drain point of the
    #: notification batch, and the notify tick).  Callbacks handed over at
    #: one time run in the order given; nothing is returned and nothing can
    #: be cancelled.
    after_due: Callable[[int, Callable[[], None]], None]
    #: The :class:`~repro.net.network.Network` signatures: ``send_app``,
    #: ``send_control``, ``multicast_control``, ``broadcast_control``,
    #: ``on_process_crash``, ``on_process_restart``.
    transport: Any
    tracer: Tracer
    #: Whether the transport endpoint acknowledges application messages
    #: (the sender then retransmits on a timer until acked).
    ack_app: bool = False
    #: The run's judge, handed every process's facts inline by its
    #: executor (the simulation's; ``serve`` certifies after the run).
    certifier: Optional["Certifier"] = None


def periodic(
    schedule: Callable[..., Any],
    anchor: float,
    interval: float,
    action: Callable[[], None],
    horizon: Optional[float] = None,
) -> Callable[[], None]:
    """Run ``action`` at every instant ``anchor + j * interval`` (j an
    integer) after the call, times measured from the call, while the
    instant stays within ``horizon`` — forever when ``horizon`` is None.

    Each delay is the grid's next instant minus the current one, never
    ``interval`` added to the clock, so on a simulated clock grids that
    share a point fire there at exactly the same time.  Returns a function
    that cancels the pending firing."""
    # The index of the grid's first instant > 0; the loops settle the
    # rounding of the division.
    j = math.floor(-anchor / interval) + 1
    while anchor + (j - 1) * interval > 0:
        j -= 1
    while anchor + j * interval <= 0:
        j += 1
    handle: Any = None
    at = 0.0  # the instant of the current firing

    def arm() -> None:
        nonlocal handle
        due = anchor + j * interval
        handle = (schedule(due - at, fire)
                  if horizon is None or due <= horizon else None)

    def fire() -> None:
        nonlocal at, j
        at = anchor + j * interval
        j += 1
        action()
        arm()

    arm()

    def cancel() -> None:
        # Cancelling a handle that already fired is a no-op.
        if handle is not None:
            handle.cancel()

    return cancel


def build_protocol(
    cls: type,
    pid: int,
    config: SimConfig,
    behavior: AppBehavior,
    now_fn: Callable[[], float],
) -> KOptimisticProcess:
    """Process ``pid`` of the protocol variant ``cls`` (the default, a
    baseline or a checker mutant) over the stable storage ``config``
    names, with every setting ``config`` gives a process.  The one place
    any driver builds a protocol: a variant overrides its own constructor
    for what it fixes (K, Theorem 2's own-entry rule), never this."""
    return cls(
        pid=pid,
        n=config.n,
        k=config.resolved_k(),
        behavior=behavior,
        storage=make_backend(config, pid),
        seed=config.seed,
        now_fn=now_fn,
        nullify_own_on_flush=config.nullify_own_on_flush,
        output_driven_logging=config.output_driven_logging,
        gc_on_checkpoint=config.gc_on_checkpoint,
        retransmit_window=config.retransmit_window,
        retransmit_timeout=config.retransmit_timeout,
        retransmit_budget=config.retransmit_budget,
        delta_notifications=config.delta_notifications,
    )


class ProcessHost:
    """Runtime wrapper around one protocol instance."""

    def __init__(
        self,
        env: Environment,
        pid: int,
        protocol: Any,
        effect_probes: Optional[List[Callable[["ProcessHost", Effect], None]]] = None,
    ):
        self.env = env
        self.config = env.config
        self.pid = pid
        self.protocol = protocol
        self.executor = EffectExecutor(
            pid,
            storage=protocol.storage,
            transport=env.transport,
            schedule=env.schedule,
            now_fn=env.now,
            tracer=env.tracer,
            on_retransmit=self._retransmit_timer,
            certifier=env.certifier,
            books=self,
            dep_trace=env.config.dep_trace,
        )
        #: Probe layer (repro.check): callables invoked per effect, just
        #: before it is interpreted.  A driver hosting several processes
        #: passes one shared list; empty in normal runs.
        self.effect_probes = effect_probes if effect_probes is not None else []
        self.down = False
        self.pending_control: List[Any] = []
        #: Same-tick notification fan-in buffer: log-progress notifications
        #: arriving at one time are merged in a single batched pass (one
        #: table merge + one release/commit scan) by a drain the
        #: environment runs behind everything else due at that time.
        self._notif_batch: List[LogProgressNotification] = []
        self.lost_app_messages = 0
        self.crash_count = 0
        #: The books its executor keeps: every commit as ``(time,
        #: record)``, one latency sample per commit, the times the process
        #: rolled back, and the intervals its restarts lost (counted by
        #: the certifier, so 0 without one).
        self.commits: List[Tuple[float, Any]] = []
        self.latency_samples: List[float] = []
        self.rollback_times: List[float] = []
        self.intervals_lost = 0
        #: Adaptive-K controller (None unless ``config.adaptive_k``).
        self.controller: Optional[Any] = None
        #: Latency samples already handed to the controller.
        self._observed = 0
        if self.config.adaptive_k:
            # Imported here: repro.control's latency math lives on
            # repro.runtime.metrics, so a top-level import would close an
            # import cycle through the package __init__s.
            from repro.control import AdaptiveKController, ControllerConfig

            self.controller = AdaptiveKController(pid, ControllerConfig(
                k_max=self.config.resolved_k_max(),
                slo_target=self.config.slo_output_latency,
            ), seed=self.config.seed)
            # Every message the application sends without an explicit
            # bound carries the controller's current K (Section 4.2's
            # per-message path keeps receivers correct).
            protocol.k_policy = self.controller.recommend
        #: Times the storage backend declared itself dead (fail-stop).
        self.storage_deaths = 0
        #: Transport-level dedup of reliable control envelopes by
        #: ``(src, seq)``.  Survives crashes: the transport endpoint's
        #: identity persists, and a seen envelope was already handed to the
        #: protocol (announcements are logged synchronously on receipt).
        self._ctl_seen: Set[Tuple[int, int]] = set()
        self._timers: List[Callable[[], None]] = []
        #: The highest pid notify() asked at its last fanout tick with more
        #: awaited owners than the budget; the next tick carries on behind it.
        self._last_asked = pid

    # -- boot ------------------------------------------------------------------

    def boot(self, recovering: bool = False) -> None:
        """Bring the process up: a fresh start, or — when its journal
        already holds a previous life — REDO recovery plus the Restart
        broadcast.  A fresh start refuses a journal that already holds
        records: it would run on top of that earlier life."""
        used = None if recovering else self.protocol.storage.used_journal()
        if used is not None:
            raise ValueError(
                f"P{self.pid}: journal directory {used} already holds "
                f"records; a fresh run needs an empty storage_dir")
        self.execute(self.protocol.boot_after_crash() if recovering
                     else self.protocol.initialize())

    # -- incoming traffic ---------------------------------------------------

    def incoming(self, payload: Any) -> None:
        try:
            self._incoming(payload)
        except StorageDeadError:
            self._storage_failed("incoming")

    def _incoming(self, payload: Any) -> None:
        env = self.env
        if self.down:
            if isinstance(payload, (ControlEnvelope, AppAck)):
                # The transport endpoint died with the process: no ack is
                # sent, so the sender's retransmission timer keeps the
                # envelope alive until we answer after restart.
                env.tracer.record(env.now(), "net.lost", self.pid,
                                  msg=str(payload))
            elif isinstance(payload, (FailureAnnouncement, LogProgressNotification)):
                self.pending_control.append(payload)
            else:
                # Logging requests are best-effort hints: dropping one only
                # delays an output until the next periodic notification.  A
                # variant's own control messages are lost too; its recovery
                # protocol answers for them.
                self.lost_app_messages += isinstance(payload, AppMessage)
                env.tracer.record(
                    env.now(), "net.lost", self.pid,
                    msg=str(getattr(payload, "msg_id", payload)),
                )
            return
        # Dispatch in order of frequency: notifications and application
        # messages (and their acks) are nearly all arrivals.
        if isinstance(payload, LogProgressNotification):
            # Batch same-time notifications: the first arrival asks the
            # environment for a drain behind everything else due now, so N
            # notifications landing on one tick cost one table merge and
            # one release/commit scan instead of N.
            self._notif_batch.append(payload)
            if len(self._notif_batch) == 1:
                env.after_due(self.pid, self._drain_notifications)
            return
        if isinstance(payload, AppMessage):
            effects = self.protocol.on_receive(payload)
            if env.ack_app and payload.src >= 0:
                # The live transport endpoint acks on arrival; a dead one
                # acks nothing, which keeps the sender's timer retrying.
                env.transport.send_control(
                    self.pid, payload.src,
                    AppAck(payload.msg_id, self.pid, payload.src),
                )
        elif isinstance(payload, AppAck):
            effects = self.protocol.on_ack(payload)
        elif isinstance(payload, ControlEnvelope):
            # Always ack — the previous ack may itself have been lost —
            # but hand each envelope to the protocol exactly once.
            env.transport.send_control(
                self.pid, payload.src,
                ControlAck(payload.seq, self.pid, payload.src),
            )
            key = (payload.src, payload.seq)
            if key in self._ctl_seen:
                return
            self._ctl_seen.add(key)
            self.incoming(payload.payload)
            return
        elif isinstance(payload, FailureAnnouncement):
            env.tracer.record(env.now(), "ann.receive", self.pid,
                              ann=str(payload))
            effects = self.protocol.on_failure_announcement(payload)
        elif isinstance(payload, LoggingRequest):
            effects = self.protocol.on_logging_request(
                payload, own_only=not self.config.gossip_log_tables)
        elif isinstance(payload, ControlMessage):
            effects = self.protocol.on_control(payload)
        else:
            raise TypeError(f"unexpected payload {payload!r}")
        self.execute(effects)

    def inject(self, payload: Any, seq: int) -> None:
        """Deliver an outside-world message now; ``seq`` is the
        driver-assigned sequence number that makes its id unique."""
        self.incoming(AppMessage.from_environment(
            self.pid, self.config.n, payload, seq))

    # -- effect interpretation ------------------------------------------------

    def execute(self, effects: List[Effect]) -> None:
        """Interpret protocol effects via the shared executor.

        A step that produced no effect has nothing to interpret, but it
        may still have written: it goes straight to the write-ahead
        barrier, which is never skipped.

        The checker's effect probes (when any are registered) run per
        effect *before* interpretation; the indirection is built only on
        the instrumented path to keep normal runs lean."""
        if not effects:
            self.executor.storage.barrier()
            return
        effect_probes = self.effect_probes
        probe = None
        if effect_probes:
            def probe(effect: Effect) -> None:
                for p in effect_probes:
                    p(self, effect)
        self.executor.execute(effects, probe)

    def _drain_notifications(self) -> None:
        """Apply every notification batched at the current tick in one
        pass.  The table merge is a monotone elementwise maximum, so one
        merged application is equivalent to processing the notifications
        one by one — only cheaper."""
        batch, self._notif_batch = self._notif_batch, []
        if not batch:
            return
        if self.down:
            # Crashed between batching and the drain: same treatment as
            # notifications that arrive while down — replay at restart.
            self.pending_control.extend(batch)
            return
        try:
            self.execute(self.protocol.on_log_notifications(batch))
        except StorageDeadError:
            self._storage_failed("notification")

    def _retransmit_timer(self, msg_id: MessageId) -> None:
        if self.down:
            return  # crash cleared _unacked; the timer dies with it
        self.execute(self.protocol.on_retransmit_timer(msg_id))

    # -- periodic activities --------------------------------------------------

    def start_timers(self, horizon: Optional[float] = None) -> None:
        """Arm the periodic activities (see :func:`periodic`).

        Activity I runs on the grid phase * I + j * I, phase = (pid + 1) /
        (n + 1), so the processes' flushes and checkpoints spread over the
        period — except the notification, whose grid phase * F + j * N is
        anchored on the flush's, and which runs behind everything else due
        at its instant (``after_due``).  Whenever the two grids meet — at
        every flush with the defaults, F = 40 = 2N — the flush is therefore
        reported at its own instant."""
        config = self.config
        phase = (self.pid + 1) / (config.n + 1)
        flush_at = config.flush_interval * phase
        activities = [
            (config.checkpoint_interval * phase, config.checkpoint_interval,
             self.checkpoint),
            (flush_at, config.flush_interval, self.flush),
            (flush_at, config.notify_interval,
             lambda: self.env.after_due(self.pid, self.notify)),
        ]
        if self.controller is not None:
            activities.append((config.control_interval * phase,
                               config.control_interval, self.control_tick))
        for anchor, interval, action in activities:
            self._timers.append(periodic(self.env.schedule, anchor, interval,
                                         action, horizon))

    def stop_timers(self) -> None:
        for cancel in self._timers:
            cancel()
        self._timers = []

    def flush(self) -> None:
        if self.down:
            return
        try:
            self.execute(self.protocol.flush())
        except StorageDeadError:
            self._storage_failed("flush")

    def checkpoint(self) -> None:
        if self.down:
            return
        try:
            self.execute(self.protocol.checkpoint())
        except StorageDeadError:
            self._storage_failed("checkpoint")

    def notify(self) -> None:
        """One logging-progress tick.

        Broadcast mode (``notify_fanout=None``) pushes this process's
        notification to everyone.  Fanout mode pulls instead: the process
        asks at most ``notify_fanout`` of the owners it is waiting on
        (:meth:`KOptimisticProcess.awaited_owners
        <repro.core.protocol.KOptimisticProcess.awaited_owners>`) for
        theirs, taking turns in pid order when there are more; each answers
        the asker alone.  A process waiting on nobody sends nothing, and an
        ask or answer that is lost — or an owner that is down — is simply
        asked again at a later tick."""
        if self.down:
            return
        config, transport, pid = self.config, self.env.transport, self.pid
        fanout = config.notify_fanout
        if fanout is not None:
            owners = self.protocol.awaited_owners()
            if len(owners) > fanout:
                start = bisect_right(owners, self._last_asked)
                owners = (owners[start:] + owners[:start])[:fanout]
                self._last_asked = owners[-1]
            if owners:
                transport.multicast_control(
                    pid, owners, LoggingRequest(pid, flush=False))
            return
        own_only = not config.gossip_log_tables
        if self.protocol.delta_notifications:
            # Delta encoding is per-destination (each peer has its own
            # changelog cursor): one notification made and sent per peer,
            # in the order broadcast_control would use.
            for dst in range(config.n):
                if dst != pid:
                    transport.send_control(
                        pid, dst,
                        self.protocol.make_log_notification_for(
                            dst, own_only=own_only))
        else:
            transport.broadcast_control(
                pid, self.protocol.make_log_notification(own_only=own_only))

    def control_tick(self) -> None:
        """One adaptive-K observation: feed the controller the latency
        samples booked since the last tick plus the cumulative
        revocation evidence (rollbacks, restarts, orphan and output
        discards — everything that proves optimism recently cost work)."""
        if self.controller is None or self.down:
            return
        from repro.control import Observation

        stats = self.protocol.stats
        samples = self.latency_samples
        drained = tuple(samples[self._observed:])
        self._observed = len(samples)
        now = self.env.now()
        obs = Observation(
            time=now,
            revocations=(stats.rollbacks + stats.restarts
                         + stats.orphans_discarded + stats.outputs_discarded),
            commit_waits=drained,
        )
        new_k = self.controller.observe(obs)
        self.env.tracer.record(now, "control.k", self.pid, k=new_k)

    def quiescent(self) -> bool:
        """True when the process is up and holds no undelivered,
        unreleased, uncommitted or unacknowledged traffic."""
        protocol = self.protocol
        return not (self.down or protocol.send_buffer
                    or protocol.receive_buffer or len(protocol.output_buffer)
                    or protocol.unacked_count)

    # -- failure handling -----------------------------------------------------

    def _storage_failed(self, context: str) -> None:
        """The backend declared itself dead mid-operation: degrade to a
        clean fail-stop crash handled by the normal Restart path (whose
        recovery scan also revives the backend)."""
        self.storage_deaths += 1
        self.env.tracer.record(
            self.env.now(), "storage.dead", self.pid, context=context
        )
        self.crash()

    def crash(self) -> None:
        if self.down:
            return  # already down; schedule says crash a dead process: no-op
        self.down = True
        self.crash_count += 1
        self.protocol.crash()
        # Fail-stop: a dead process transmits nothing, including control
        # retransmissions queued on its behalf before the crash.
        self.env.transport.on_process_crash(self.pid)
        self.env.tracer.record(self.env.now(), "failure.crash", self.pid)
        self.env.schedule(self.config.restart_delay, self.restart)

    def restart(self) -> None:
        if not self.down:
            return
        try:
            effects = self.protocol.restart()
        except StorageDeadError:
            # The journal could not be brought back (or a sync write during
            # Restart itself died).  Stay down and retry: injected faults
            # are consumed as they fire, so a retry eventually succeeds.
            self.storage_deaths += 1
            self.env.tracer.record(
                self.env.now(), "storage.dead", self.pid, context="restart",
            )
            if not self.protocol.failed:
                # Restart died partway through coming back up: crash the
                # protocol again so the next attempt starts from a clean
                # failed state.
                self.protocol.crash()
            self.env.schedule(self.config.restart_delay, self.restart)
            return
        self.down = False
        # Back alive: pre-crash reliable-control envelopes may resume their
        # retry cycle (destinations deduplicate, so re-sends are harmless).
        self.env.transport.on_process_restart(self.pid)
        try:
            self.execute(effects)
        except StorageDeadError:
            # Restart's own synchronous writes died at the barrier: none of
            # its effects ran, so this is one more fail-stop and a retry.
            self._storage_failed("restart")
            return
        # Replay forced nothing new to disk, but the stable prefix is intact;
        # deliver the control traffic that arrived while we were down.
        pending, self.pending_control = self.pending_control, []
        for payload in pending:
            self.incoming(payload)
