"""The interconnect: N processes, point-to-point channels, multicast support.

The network turns "transmit" requests into engine events that invoke the
destination's receive hook, timed by a :class:`Channel` per ordered
process pair and kind of traffic: application messages, or control
traffic (failure announcements, logging progress notifications), which
carries no piggybacked vector.

Control traffic has one send path, :meth:`Network.multicast_control`
(a unicast and a broadcast are calls to it): the fault decision and the
arrival time are taken per destination, in order, and the arrivals that
fall on one instant then share one engine record — a logging-progress
broadcast over fixed-latency channels costs the engine one record, not
n - 1.  Channels are made on first use, and a control hop makes none
unless its latency model draws: control carries no piggyback, so a
model that does not draw gives every control hop the same delay, and a
FIFO clamp could never move its arrival.  A channel is its draw stream
and its last arrival (:class:`~repro.net.channel.Channel`); its draws are
keyed by ``(seed, "net/{src}->{dst}/{app|ctl}")``.

With a :class:`~repro.net.faults.NetworkFaultModel` attached, every
transmission may be dropped, duplicated, or delayed out of order, and a
scheduled partition silences whole process groups.  The network repairs
nothing: what must arrive is acked and retransmitted by the sending
protocol (:meth:`~repro.core.protocol.KOptimisticProcess.on_retransmit_timer`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.channel import Channel, FixedLatency, LatencyModel
from repro.net.faults import NetworkFaultModel
from repro.net.message import AppMessage
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer

#: Hook invoked when a message (of any kind) arrives at a process.
ReceiveHook = Callable[[Any], None]


class Network:
    """Message transport between simulated processes."""

    def __init__(
        self,
        n: int,
        engine: Engine,
        rngs: RngRegistry,
        latency: Optional[LatencyModel] = None,
        control_latency: Optional[LatencyModel] = None,
        fifo: bool = False,
        tracer: Optional[Tracer] = None,
        faults: Optional[NetworkFaultModel] = None,
        export: Optional[Callable[..., None]] = None,
    ):
        if n <= 0:
            raise ValueError(f"network needs at least one process, got n={n}")
        self.n = n
        self.engine = engine
        self.tracer = tracer
        self._latency = latency or FixedLatency(1.0)
        self._control_latency = control_latency or self._latency
        #: Every control hop's delay when the control model does not draw
        #: (None when it does: then each pair's ``Channel`` draws it).
        self._control_delay = (
            None if self._control_latency.draws_rng()
            else self._control_latency.delay(None, 0))
        self._hooks: List[Optional[ReceiveHook]] = [None] * n
        self._channels: Dict[Tuple[int, int, bool], Channel] = {}
        self._rngs = rngs
        self._fifo = fifo
        #: ``export(arrival, src, dst, payload, label)`` takes every
        #: delivery for a process with no receive hook here — one hosted
        #: by another epoch-parallel worker.  None when all n are local.
        self._export = export
        self.faults = faults
        self.app_messages_sent = 0
        self.control_messages_sent = 0
        self.piggyback_entries_total = 0
        self.piggyback_entries_max = 0
        # Fault-injection counters (all zero on a reliable network).
        self.app_dropped = 0
        self.control_dropped = 0
        self.partition_drops = 0
        self.duplicates_injected = 0

    # -- wiring ---------------------------------------------------------------

    def register(self, pid: int, hook: ReceiveHook) -> None:
        """Register the receive hook for process ``pid``."""
        self._check_pid(pid)
        self._hooks[pid] = hook

    def _channel(self, src: int, dst: int, control: bool) -> Channel:
        key = (src, dst, control)
        channel = self._channels.get(key)
        if channel is None:
            channel = Channel(self._rngs.key(
                f"net/{src}->{dst}/{'ctl' if control else 'app'}"))
            self._channels[key] = channel
        return channel

    # -- transmission -----------------------------------------------------------

    def send_app(self, msg: AppMessage) -> None:
        """Transmit an application message (piggyback cost applies)."""
        self._check_pid(msg.src)
        self._check_pid(msg.dst)
        entries = msg.piggyback_size()
        self.app_messages_sent += 1
        self.piggyback_entries_total += entries
        if entries > self.piggyback_entries_max:
            self.piggyback_entries_max = entries
        if self.tracer:
            self.tracer.record(
                self.engine.now, "net.send", msg.src,
                msg=str(msg.msg_id), dst=msg.dst, entries=entries,
            )
        engine = self.engine
        # Labels exist for external choosers/counterexample dumps; skip the
        # f-string on the hot path when nothing will read them.
        label = (f"app:{msg.src}->{msg.dst}:{msg.msg_id}"
                 if engine.wants_labels else None)
        if self.faults is not None:
            decision = self.faults.decide(msg.src, msg.dst, control=False)
            if decision.drop:
                self._count_drop(decision, control=False, src=msg.src,
                                 dst=msg.dst, what=str(msg.msg_id))
                return
            channel = self._channel(msg.src, msg.dst, control=False)
            arrival = channel.arrival_time(engine.now, self._latency,
                                           self._fifo, entries)
            arrival += decision.extra_delay
            self._deliver_at(arrival, msg.src, (msg.dst,), msg, label=label)
            if decision.duplicate:
                self.duplicates_injected += 1
                dup_arrival = channel.arrival_time(engine.now, self._latency,
                                                   self._fifo, entries)
                if self.tracer:
                    self.tracer.record(engine.now, "net.duplicate", msg.src,
                                       msg=str(msg.msg_id), dst=msg.dst)
                self._deliver_at(dup_arrival, msg.src, (msg.dst,), msg,
                                 label=f"dup:{label}" if label else None)
            return
        channel = self._channel(msg.src, msg.dst, control=False)
        arrival = channel.arrival_time(engine.now, self._latency, self._fifo,
                                       entries)
        self._deliver_at(arrival, msg.src, (msg.dst,), msg, label=label)

    def send_control(self, src: int, dst: int, payload: Any) -> None:
        """Transmit a control message (announcement or notification) to
        one process: :meth:`multicast_control` with a single destination."""
        self.multicast_control(src, (dst,), payload)

    def broadcast_control(self, src: int, payload: Any) -> None:
        """Send a control message to every other process."""
        self.multicast_control(
            src, [dst for dst in range(self.n) if dst != src], payload)

    def multicast_control(self, src: int, dsts: Sequence[int],
                          payload: Any) -> None:
        """Transmit one control payload to each of ``dsts``, in order: the
        fault decision, then the channel's arrival time.

        Arrivals at one instant share one engine record — the callbacks
        run back to back in ``dsts`` order, exactly as per-destination
        records with consecutive sequence numbers would — unless the
        network can see they must not: a fault model perturbs arrivals one
        by one, and an observed engine (tie-breaker, step probes) is owed
        every arrival as its own labelled event.
        """
        self._check_pid(src)
        if dsts:
            self._check_pid(min(dsts))
            self._check_pid(max(dsts))
        self.control_messages_sent += len(dsts)
        engine = self.engine
        now = engine.now
        faults = self.faults
        solo = faults is not None or engine.steps_observed
        labelled = engine.wants_labels
        latency = self._control_latency
        fifo = self._fifo
        # A model that does not draw has one control delay; only one that
        # draws needs each pair's Channel (its draws, its FIFO clamp).
        fixed = (None if self._control_delay is None
                 else now + self._control_delay)
        shared: Dict[float, List[int]] = {}
        for dst in dsts:
            label = (f"ctl:{src}->{dst}:{type(payload).__name__}"
                     if labelled else None)
            extra_delay, duplicate = 0.0, False
            if faults is not None:
                decision = faults.decide(src, dst, control=True)
                if decision.drop:
                    self._count_drop(decision, control=True, src=src, dst=dst,
                                     what=str(payload))
                    continue
                extra_delay, duplicate = decision.extra_delay, decision.duplicate
            if fixed is None:
                channel = self._channel(src, dst, control=True)
                arrival = channel.arrival_time(now, latency, fifo) + extra_delay
            else:
                arrival = fixed + extra_delay
            if solo:
                self._deliver_at(arrival, src, (dst,), payload, label=label)
                if duplicate:
                    self.duplicates_injected += 1
                    again = (fixed if fixed is not None
                             else channel.arrival_time(now, latency, fifo))
                    self._deliver_at(again, src, (dst,), payload,
                                     label=f"dup:{label}" if label else None)
            elif arrival in shared:
                shared[arrival].append(dst)
            else:
                shared[arrival] = [dst]
        for arrival, members in shared.items():
            self._deliver_at(arrival, src, members, payload)

    def _deliver_at(
        self, arrival: float, src: int, dsts: Sequence[int], payload: Any,
        label: Optional[str] = None,
    ) -> None:
        """Schedule one record delivering ``payload`` to each of ``dsts``,
        in order, at virtual time ``arrival``; a destination hosted
        elsewhere is exported on its own instead.  The single seam every
        transmission goes through."""
        if self._export is not None:
            hosted = []
            for dst in dsts:
                if self._hooks[dst] is None:
                    self._export(arrival, src, dst, payload, label)
                else:
                    hosted.append(dst)
            if not hosted:
                return
            dsts = hosted
        self.engine.schedule_at_raw(arrival, self._arrive, (dsts, payload),
                                    label=label, callbacks=len(dsts))

    def _count_drop(self, decision, control: bool, src: int, dst: int,
                    what: str) -> None:
        if decision.partition_drop:
            self.partition_drops += 1
        if control:
            self.control_dropped += 1
        else:
            self.app_dropped += 1
        if self.tracer:
            reason = "partition" if decision.partition_drop else "loss"
            self.tracer.record(self.engine.now, "net.drop", src,
                               dst=dst, what=what, reason=reason,
                               control=control)

    def _arrive(self, dsts: Sequence[int], payload: Any) -> None:
        hooks = self._hooks
        for dst in dsts:
            hook = hooks[dst]
            if hook is None:
                raise RuntimeError(
                    f"no receive hook registered for process {dst}")
            hook(payload)

    def _check_pid(self, pid: int) -> None:
        if not 0 <= pid < self.n:
            raise IndexError(f"process id {pid} out of range [0, {self.n})")

    # -- statistics ------------------------------------------------------------

    def mean_piggyback_entries(self) -> float:
        """Average dependency-vector size over all app messages sent."""
        if self.app_messages_sent == 0:
            return 0.0
        return self.piggyback_entries_total / self.app_messages_sent
