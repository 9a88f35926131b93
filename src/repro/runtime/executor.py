"""Transport-agnostic interpretation of protocol effects.

The sans-IO core returns effects; *something* must turn them into sends,
timers, commits, and trace records.  :class:`EffectExecutor` is that
interpreter.  Every driver reaches it through the one
:class:`~repro.runtime.host.ProcessHost`, which hands it the
capabilities of its :class:`~repro.runtime.host.Environment`:

- ``transport`` with the :class:`Network` signatures —
  ``send_app(msg)``, ``send_control(src, dst, payload)``,
  ``multicast_control(src, dsts, payload)``,
  ``broadcast_control(src, payload, reliable=...)`` (the simulated
  network, or the backplane's TCP transport);
- ``schedule(delay, callback)`` returning a cancellable handle
  (the engine in simulation, an asyncio adapter in the runtime);
- ``now_fn()`` — virtual time in simulation, wall-clock in the runtime;
- optional :class:`ExecutionHooks` — the simulation harness feeds its
  :class:`~repro.oracle.certifier.Certifier` the run's facts inline; the
  backplane passes none, and its ``dep.*`` records feed the same
  certifier after the run (:mod:`repro.oracle.ingest`).

It also owns the **write-ahead barrier**: :meth:`EffectExecutor.execute`
is the one point every driver and every protocol variant passes through
between a handler returning and its effects becoming visible, so that is
where the step's synchronous storage writes are made durable
(:meth:`repro.storage.backend.StableBackend.barrier`) — before the first
effect is interpreted, never after.

With ``dep_trace`` enabled the executor additionally records the
``dep.*`` event family: a numeric, parser-free encoding of exactly the
facts the certifier consumes (interval creations, stability, recoveries,
release/commit claims), one record per typed call.  Post-hoc
certification of a real multi-process run rests on these events alone.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.core.effects import (
    BroadcastAnnouncement,
    CommitOutput,
    DuplicateDropped,
    Effect,
    MessageDelivered,
    MessageDiscarded,
    OutputDiscarded,
    ReleaseMessage,
    RequestLogging,
    RestartPerformed,
    RollbackPerformed,
    ScheduleRetransmit,
    SendControl,
    StableProgress,
)
from repro.net.message import LoggingRequest
from repro.sim.trace import Tracer
from repro.storage.backend import StableBackend


class ExecutionHooks:
    """Observer slots the executor calls around actionable effects.

    The base class is a no-op (the runtime backplane's configuration);
    the simulation harness subclasses it to keep its books and feed its
    :class:`~repro.oracle.certifier.Certifier` inline.
    """

    def pre_release(self, msg: Any) -> None:
        """Called before an app message is handed to the transport."""

    def post_commit(self, now: float, record: Any, wait: float = 0.0) -> None:
        """Called when an output commits, before the trace record.

        ``wait`` is the output's buffer residence time (from
        :class:`~repro.core.effects.CommitOutput`) — the fallback latency
        sample when the payload carries no injection stamp."""

    def on_delivery(self, effect: MessageDelivered) -> None:
        """Called for every *non-replay* delivery (a new state interval)."""

    def on_stable(self, effect: StableProgress) -> None:
        """Called when a stability frontier advances."""

    def on_rollback(self, now: float, effect: RollbackPerformed) -> None:
        """Called when a non-failed process rolled back orphans."""

    def on_restart(self, now: float, effect: RestartPerformed) -> None:
        """Called when a failed process completed Restart."""


class EffectExecutor:
    """Interprets one process's protocol effects against an environment."""

    def __init__(
        self,
        pid: int,
        *,
        storage: StableBackend,
        transport: Any,
        schedule: Callable[..., Any],
        now_fn: Callable[[], float],
        tracer: Tracer,
        on_retransmit: Callable[[Any], None],
        hooks: Optional[ExecutionHooks] = None,
        dep_trace: bool = False,
    ):
        self.pid = pid
        self.storage = storage
        self.transport = transport
        self.schedule = schedule
        self.now_fn = now_fn
        self.tracer = tracer
        self.on_retransmit = on_retransmit
        self.hooks = hooks if hooks is not None else ExecutionHooks()
        self.dep_trace = dep_trace

    def execute(
        self,
        effects: List[Effect],
        probe: Optional[Callable[[Effect], None]] = None,
    ) -> None:
        """Interpret ``effects`` in stream order.

        ``probe`` (when given) runs for each effect *before* it is
        interpreted — the checker's effect-level invariant layer relies on
        seeing every effect against the state its predecessors produced.

        The step that produced ``effects`` is made durable first.  A
        :class:`~repro.storage.faults.StorageDeadError` from the barrier
        propagates with no effect interpreted: the caller fail-stops the
        process and nothing of the step was ever visible.
        """
        self.storage.barrier()
        pid = self.pid
        now = self.now_fn()
        tracer = self.tracer
        hooks = self.hooks
        dep = self.dep_trace
        for effect in effects:
            if probe is not None:
                probe(effect)
            if isinstance(effect, ReleaseMessage):
                msg = effect.message
                hooks.pre_release(msg)
                tracer.record(now, "msg.release", pid,
                              msg=str(msg.msg_id), dst=msg.dst,
                              entries=msg.piggyback_size())
                if dep:
                    si = msg.send_interval
                    data = {"inc": si.inc, "sii": si.sii,
                            "msg": str(msg.msg_id),
                            "replayed": msg.replayed}
                    # A per-message bound (Section 4.2) must travel with
                    # the release claim, or the post-hoc certifier would
                    # judge it against the global K.
                    if msg.k_limit is not None:
                        data["k"] = msg.k_limit
                    tracer.record(now, "dep.release", pid, **data)
                self.transport.send_app(msg)
            elif isinstance(effect, BroadcastAnnouncement):
                tracer.record(now, "ann.broadcast", pid,
                              ann=str(effect.announcement))
                # Announcements MUST eventually reach everyone (Theorem 1);
                # reliable=True engages the ack/retransmit layer when one is
                # configured and degrades to the plain path otherwise.
                self.transport.broadcast_control(
                    pid, effect.announcement, reliable=True
                )
            elif isinstance(effect, CommitOutput):
                record = effect.record
                hooks.post_commit(now, record, effect.wait)
                tracer.record(now, "output.commit", pid,
                              output=str(record.output_id))
                if dep:
                    si = record.send_interval
                    tracer.record(now, "dep.commit", pid,
                                  inc=si.inc, sii=si.sii,
                                  output=str(record.output_id),
                                  payload=record.payload,
                                  wait=round(effect.wait, 6))
            elif isinstance(effect, MessageDelivered):
                if not effect.replay:
                    hooks.on_delivery(effect)
                    if dep:
                        msg = effect.message
                        data = {"inc": effect.interval.inc,
                                "sii": effect.interval.sii,
                                "src": msg.src}
                        if msg.src >= 0 and msg.send_interval is not None:
                            data["src_inc"] = msg.send_interval.inc
                            data["src_sii"] = msg.send_interval.sii
                        tracer.record(now, "dep.deliver", pid, **data)
                tracer.record(now, "msg.deliver", pid,
                              msg=str(effect.message.msg_id),
                              interval=str(effect.interval),
                              replay=effect.replay)
            elif isinstance(effect, MessageDiscarded):
                tracer.record(now, "msg.discard", pid,
                              msg=str(effect.message.msg_id),
                              reason=effect.reason)
            elif isinstance(effect, DuplicateDropped):
                tracer.record(now, "msg.duplicate", pid,
                              msg=str(effect.message.msg_id))
            elif isinstance(effect, OutputDiscarded):
                tracer.record(now, "output.discard", pid,
                              output=str(effect.record.output_id))
            elif isinstance(effect, RequestLogging):
                for target in effect.targets:
                    self.transport.send_control(
                        pid, target, LoggingRequest(pid, flush=True))
            elif isinstance(effect, SendControl):
                self.transport.send_control(pid, effect.dst, effect.payload)
            elif isinstance(effect, ScheduleRetransmit):
                self.schedule(
                    effect.delay,
                    lambda mid=effect.msg_id: self.on_retransmit(mid),
                )
            elif isinstance(effect, StableProgress):
                hooks.on_stable(effect)
                if dep:
                    tracer.record(now, "dep.stable", pid,
                                  inc=effect.through.inc,
                                  sii=effect.through.sii)
            elif isinstance(effect, RollbackPerformed):
                hooks.on_rollback(now, effect)
                tracer.record(now, "recovery.rollback", pid,
                              to=str(effect.restored_to),
                              new=str(effect.new_current),
                              undone=effect.intervals_undone)
                if dep:
                    tracer.record(now, "dep.recover", pid,
                                  s_inc=effect.restored_to.inc,
                                  s_sii=effect.restored_to.sii,
                                  n_inc=effect.new_current.inc,
                                  n_sii=effect.new_current.sii)
            elif isinstance(effect, RestartPerformed):
                hooks.on_restart(now, effect)
                tracer.record(now, "recovery.restart", pid,
                              ann=str(effect.announcement),
                              replayed=effect.replayed)
                if dep:
                    survivor = effect.announcement.end
                    tracer.record(now, "dep.recover", pid,
                                  s_inc=survivor.inc,
                                  s_sii=survivor.sii,
                                  n_inc=effect.new_current.inc,
                                  n_sii=effect.new_current.sii)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown effect {effect!r}")
