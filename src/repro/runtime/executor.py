"""Transport-agnostic interpretation of protocol effects.

The sans-IO core returns effects; *something* must turn them into sends,
timers, commits, and trace records.  :class:`EffectExecutor` is that
interpreter.  Every driver reaches it through the one
:class:`~repro.runtime.host.ProcessHost`, which hands it the
capabilities of its :class:`~repro.runtime.host.Environment`:

- ``transport`` with the :class:`Network` signatures —
  ``send_app(msg)``, ``send_control(src, dst, payload)``,
  ``multicast_control(src, dsts, payload)``,
  ``broadcast_control(src, payload)`` (the simulated
  network, or the backplane's TCP transport);
- ``schedule(delay, callback)`` returning a cancellable handle
  (the engine in simulation, an asyncio adapter in the runtime);
- ``now_fn()`` — virtual time in simulation, wall-clock in the runtime;
- an optional :class:`~repro.oracle.certifier.Certifier`, which the
  executor hands the run's facts inline, as typed calls (the simulation
  harness gives one; the backplane gives none, and its ``dep.*`` records
  feed the same certifier after the run, :mod:`repro.oracle.ingest`);
- the ``books`` — its :class:`~repro.runtime.host.ProcessHost` — where
  each commit, latency sample, rollback and lost interval is booked.

It also owns the **write-ahead barrier**: :meth:`EffectExecutor.execute`
is the one point every driver and every protocol variant passes through
between a handler returning and its effects becoming visible, so that is
where the step's synchronous storage writes are made durable
(:meth:`repro.storage.backend.StableBackend.barrier`) — before the first
effect is interpreted, never after.  It is also a process's only way out:
every send — a release, an announcement, an ack, a notification, a
logging request — is an effect, each turned into exactly one transport
call here, so every send passes the barrier and the effect probes.

With ``dep_trace`` enabled the executor additionally records the
``dep.*`` event family: a numeric, parser-free encoding of exactly the
facts the certifier consumes (interval creations, stability, recoveries,
release/commit claims), one record per typed call.  Post-hoc
certification of a real multi-process run rests on these events alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.core.effects import (
    BroadcastAnnouncement,
    CommitOutput,
    DuplicateDropped,
    Effect,
    MessageDelivered,
    MessageDiscarded,
    MulticastControl,
    OutputDiscarded,
    ReleaseMessage,
    RestartPerformed,
    RollbackPerformed,
    ScheduleRetransmit,
    SendControl,
    StableProgress,
)
from repro.sim.trace import Tracer
from repro.storage.backend import StableBackend

if TYPE_CHECKING:
    from repro.oracle.certifier import Certifier


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
        certifier: Optional[Certifier] = None,
        books: Any = None,
        dep_trace: bool = False,
    ):
        self.pid = pid
        self.storage = storage
        self.transport = transport
        self.schedule = schedule
        self.now_fn = now_fn
        self.tracer = tracer
        self.on_retransmit = on_retransmit
        self.certifier = certifier
        self.books = books
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
        certifier = self.certifier
        books = self.books
        dep = self.dep_trace
        for effect in effects:
            if probe is not None:
                probe(effect)
            if isinstance(effect, ReleaseMessage):
                msg = effect.message
                if certifier is not None:
                    certifier.release(pid, msg.send_interval, msg.msg_id,
                                      msg.k_limit)
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
                self.transport.broadcast_control(pid, effect.announcement)
            elif isinstance(effect, CommitOutput):
                record = effect.record
                if certifier is not None:
                    certifier.commit(pid, record.send_interval,
                                     record.output_id, record.payload)
                books.commits.append((now, record))
                # The commit's latency: end-to-end when the payload
                # carries an open-loop injection stamp ``t0``, its buffer
                # residence time otherwise.
                payload = record.payload
                t0 = payload.get("t0") if isinstance(payload, dict) else None
                books.latency_samples.append(
                    now - float(t0) if isinstance(t0, (int, float))
                    else effect.wait)
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
                    msg = effect.message
                    if certifier is not None:
                        certifier.deliver(pid, effect.interval, msg.src,
                                          msg.send_interval)
                    if dep:
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
            elif isinstance(effect, SendControl):
                self.transport.send_control(pid, effect.dst, effect.payload)
            elif isinstance(effect, MulticastControl):
                if effect.dsts is None:
                    self.transport.broadcast_control(pid, effect.payload)
                else:
                    self.transport.multicast_control(pid, effect.dsts,
                                                     effect.payload)
            elif isinstance(effect, ScheduleRetransmit):
                self.schedule(
                    effect.delay,
                    lambda key=effect.key: self.on_retransmit(key),
                )
            elif isinstance(effect, StableProgress):
                if certifier is not None:
                    certifier.stable(pid, effect.through)
                if dep:
                    tracer.record(now, "dep.stable", pid,
                                  inc=effect.through.inc,
                                  sii=effect.through.sii)
            elif isinstance(effect, RollbackPerformed):
                if certifier is not None:
                    certifier.recover(pid, effect.restored_to,
                                      effect.new_current)
                books.rollback_times.append(now)
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
                survivor = effect.announcement.end
                if certifier is not None:
                    books.intervals_lost += certifier.recover(
                        pid, survivor, effect.new_current)
                tracer.record(now, "recovery.restart", pid,
                              ann=str(effect.announcement),
                              replayed=effect.replayed)
                if dep:
                    tracer.record(now, "dep.recover", pid,
                                  s_inc=survivor.inc,
                                  s_sii=survivor.sii,
                                  n_inc=effect.new_current.inc,
                                  n_sii=effect.new_current.sii)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown effect {effect!r}")
