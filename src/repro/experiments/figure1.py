"""E1 — scripted re-enactment of the paper's Figure 1.

Figure 1 is the paper's worked example: six processes P0..P5 running
optimistic logging with asynchronous recovery.  The prose pins down the
scenario precisely; this module reconstructs it and asserts every stated
fact:

1.  "when P4 receives m2, it records dependency associated with (0,2)_4 as
    {(1,3)_0, (0,4)_1, (2,6)_3, (0,2)_4}";
2.  "When it receives m6, it updates the dependency to
    {(1,3)_0, (0,4)_1, (1,5)_1, (0,3)_2, (2,6)_3, (0,3)_4}" — note the two
    entries for P1: this is the Section-2 *completely asynchronous*
    protocol, which tracks every incarnation (``figure1_async``);
3.  P1 fails at X, "rolls back to (0,4)_1, increments the incarnation
    number to 1, and broadcasts announcement r1 containing (0,4)_1";
4.  "When P3 receives r1, it detects that the interval (0,5)_1 that its
    state depends on has been rolled back.  Process P3 then needs to roll
    back to (2,6)_3" (and, in the Section-2 protocol, broadcasts its own
    rollback announcement — Theorem 1 later removes that requirement);
5.  "when P4 receives r1, it detects that its state does not depend on any
    rolled-back intervals of P1" — no rollback at P4;
6.  Strom-Yemini coupling: "P4 should delay the delivery of m6 until it
    receives r1", after which the lexicographic maximum updates the P1
    entry to (1,5) (``figure1_koptimistic``);
7.  Corollary 1 at P5: "when P5 receives m7 which carries a dependency on
    (1,5)_1, it can deliver m7 without waiting for r1 because it has no
    existing dependency entry for P1";
8.  Theorem 2 at P4: on P3's logging progress notification that (2,6)_3 is
    stable, P4 "can remove (2,6)_3 from its dependency vector";
9.  Output commit: "P4 can commit the output sent from (0,2)_4 after it
    makes (0,2)_4 stable and also receives logging progress notifications
    from P0, P1 and P3, indicating that (1,3)_0, (0,4)_1 and (2,6)_3 have
    all become stable" ((0,4)_1's stability arrives with r1 — Corollary 1).

Message-graph reconstruction (the arrows, derived from the stated
dependency sets):

- P0 enters the scenario in incarnation 1 (a pre-scenario failure);
  an environment event starts (1,3)_0, which sends **m0** to P1.
- P1: env -> (0,2)_1; m0 -> (0,3)_1; env -> (0,4)_1 sending **m1** to P3;
  flush; env -> (0,5)_1 sending **m3** to P3; then P1 *fails* (X), losing
  (0,5)_1, restarts at (1,5)_1 and broadcasts **r1** = (0,4)_1.
  From (1,5)_1 it sends **m5** to P2 and **m7** to P5.
- P2: env -> (0,2)_2 sending **m4** to P1; m5 -> (0,3)_2 sending **m6**
  to P4.
- P3 enters in incarnation 2 (two pre-scenario failures, reaching (2,5)_3);
  m1 -> (2,6)_3 sending **m2** to P4; m3 -> (2,7)_3.
- P4: m2 -> (0,2)_4 emitting the **Output**; m6 -> (0,3)_4.
- P5: m7 -> its next interval.

Run ``python -m repro.experiments.figure1`` for the narrated trace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.app.behavior import AppBehavior, AppContext
from repro.core.baselines.fully_async import FullyAsyncProcess
from repro.core.effects import (
    BroadcastAnnouncement,
    CommitOutput,
    DuplicateDropped,
    Effect,
    MessageDelivered,
    MessageDiscarded,
    ReleaseMessage,
    RollbackPerformed,
)
from repro.core.entry import Entry
from repro.core.protocol import KOptimisticProcess
from repro.net.message import AppMessage, FailureAnnouncement

N = 6  # P0 .. P5


class ScriptedBehavior(AppBehavior):
    """Payload-driven behaviour: the payload says exactly what to send."""

    def initial_state(self, pid: int, n: int) -> Any:
        return {"delivered": []}

    def on_message(self, state: Any, payload: Any, ctx: AppContext) -> Any:
        state["delivered"].append(payload.get("tag"))
        for dst, nested in payload.get("sends", []):
            ctx.send(dst, nested)
        if "output" in payload:
            ctx.output(payload["output"])
        return state


@dataclass
class ScenarioResult:
    """Everything the tests assert on."""

    p4_after_m2: Dict[Any, Any] = field(default_factory=dict)
    p4_after_m6: Dict[Any, Any] = field(default_factory=dict)
    p4_vector_after_p3_notification: Dict[Any, Any] = field(default_factory=dict)
    m6_delayed_until_r1: Optional[bool] = None
    p5_delivered_m7_without_r1: Optional[bool] = None
    r1: Optional[FailureAnnouncement] = None
    p1_restart_interval: Optional[Entry] = None
    p3_rolled_back_to: Optional[Entry] = None
    p3_broadcast_own_announcement: Optional[bool] = None
    p4_rolled_back: bool = False
    m3_discarded_as_orphan: bool = False
    output_committed: bool = False
    output_commit_order: List[str] = field(default_factory=list)
    narrative: List[str] = field(default_factory=list)


class ScriptRunner:
    """Hand-carries messages between sans-IO protocol instances."""

    def __init__(self, protocol_cls: Type[KOptimisticProcess], k: int = N):
        behavior = ScriptedBehavior()
        self.procs: List[KOptimisticProcess] = []
        for pid in range(N):
            if protocol_cls is KOptimisticProcess:
                proc = KOptimisticProcess(pid, N, k, behavior)
            else:
                proc = protocol_cls(pid, N, behavior=behavior)
            proc.initialize()
            self.procs.append(proc)
        self.in_flight: Dict[str, List[AppMessage]] = {}
        self.announcements: List[Tuple[int, FailureAnnouncement]] = []
        self.outputs: List[Any] = []
        self.events: List[Effect] = []
        self._env_seq = itertools.count()

    # -- effect plumbing -----------------------------------------------------

    def execute(self, effects: List[Effect]) -> List[Effect]:
        for effect in effects:
            if isinstance(effect, ReleaseMessage):
                tag = effect.message.payload.get("tag", "?")
                self.in_flight.setdefault(tag, []).append(effect.message)
            elif isinstance(effect, BroadcastAnnouncement):
                self.announcements.append((len(self.announcements), effect.announcement))
            elif isinstance(effect, CommitOutput):
                self.outputs.append(effect.record.payload)
        self.events.extend(effects)
        return effects

    # -- script verbs -----------------------------------------------------------

    def inject(self, dst: int, payload: Dict[str, Any]) -> List[Effect]:
        """Deliver an environment message (empty dependency vector)."""
        msg = AppMessage.from_environment(dst, N, payload,
                                          next(self._env_seq))
        return self.execute(self.procs[dst].on_receive(msg))

    def carry(self, tag: str, copy_index: int = 0) -> List[Effect]:
        """Deliver in-flight message ``tag`` to its destination."""
        msg = self.in_flight[tag][copy_index]
        return self.execute(self.procs[msg.dst].on_receive(msg))

    def deliver_announcement(self, to_pid: int, ann: FailureAnnouncement) -> List[Effect]:
        return self.execute(self.procs[to_pid].on_failure_announcement(ann))

    def flush(self, pid: int) -> List[Effect]:
        return self.execute(self.procs[pid].flush())

    def notify(self, from_pid: int, to_pid: int) -> List[Effect]:
        notif = self.procs[from_pid].make_log_notification()
        return self.execute(self.procs[to_pid].on_log_notification(notif))

    def crash_restart(self, pid: int) -> List[Effect]:
        self.procs[pid].crash()
        return self.execute(self.procs[pid].restart())

    def script_send(self, pid: int, dst: int, payload: Dict[str, Any], seq: int) -> List[Effect]:
        """Send from the *current* interval without a triggering delivery.

        Figure 1 draws m5 and m7 leaving P1's restart interval (1,5)_1
        itself; the PWD model allows execution in the interval started by
        the recovery event, so the script issues these sends directly.
        """
        proc = self.procs[pid]
        proc._enqueue_send(dst, payload, seq)
        return self.execute(proc._check_send_buffer())

    # -- inspection ------------------------------------------------------------

    def vector_of(self, pid: int):
        return self.procs[pid].tdv

    def last_effects_of_type(self, effect_type) -> List[Effect]:
        return [e for e in self.events if isinstance(e, effect_type)]


def _prepare_common(runner: ScriptRunner, result: ScenarioResult) -> None:
    """Pre-scenario history plus the m0..m3 prefix (identical in both
    protocol variants)."""
    say = result.narrative.append

    # P0: one pre-scenario failure puts it in incarnation 1 at (1,2)_0.
    runner.crash_restart(0)
    assert runner.procs[0].current == Entry(1, 2), runner.procs[0].current
    say("P0 enters the scenario in incarnation 1, current interval (1,2)_0")

    # P3: two pre-scenario failures (with a flush in between) reach (2,5)_3.
    runner.crash_restart(3)
    runner.inject(3, {"tag": "e3"})
    runner.inject(3, {"tag": "e4"})
    runner.flush(3)
    runner.crash_restart(3)
    assert runner.procs[3].current == Entry(2, 5), runner.procs[3].current
    # The figure's P3 row starts at (2,5)_3 with no recorded dependency on
    # its own earlier incarnations; a checkpoint clears those (stable)
    # self-entries left over from the replay.
    runner.execute(runner.procs[3].checkpoint())
    say("P3 enters in incarnation 2, current interval (2,5)_3")

    # P0: environment event starts (1,3)_0 and sends m0 to P1.
    runner.inject(0, {"tag": "e0", "sends": [(1, {"tag": "m0"})]})
    assert runner.procs[0].current == Entry(1, 3)

    # P1: env -> (0,2)_1 ; m0 -> (0,3)_1 ; env -> (0,4)_1 sends m1 -> P3.
    runner.inject(1, {"tag": "e1"})
    runner.carry("m0")
    assert runner.procs[1].current == Entry(0, 3)
    runner.inject(1, {
        "tag": "e2",
        "sends": [(3, {"tag": "m1", "sends": [(4, {"tag": "m2", "output": "fig1-output"})]})],
    })
    assert runner.procs[1].current == Entry(0, 4)
    runner.flush(1)  # (0,4)_1 becomes stable: the failure will end here
    say("P1 reaches (0,4)_1 (stable after flush) and has sent m1 to P3")

    # P3: m1 -> (2,6)_3, sending m2 to P4.
    runner.carry("m1")
    assert runner.procs[3].current == Entry(2, 6)

    # P4: m2 -> (0,2)_4, emitting the Output.
    runner.carry("m2")
    assert runner.procs[4].current == Entry(0, 2)
    result.p4_after_m2 = {
        pid: entry for pid, entry in runner.vector_of(4).items()
    }
    say(f"P4 delivers m2: dependency of (0,2)_4 is {runner.vector_of(4)!r}")

    # P1: env -> (0,5)_1 sends m3 to P3; P3 delivers it -> (2,7)_3.
    runner.inject(1, {"tag": "e5", "sends": [(3, {"tag": "m3"})]})
    assert runner.procs[1].current == Entry(0, 5)
    runner.carry("m3")
    assert runner.procs[3].current == Entry(2, 7)
    say("P1 reaches (0,5)_1 (volatile only) and P3 delivers m3 -> (2,7)_3")

    # P2: env -> (0,2)_2, sending m4 to P1 (delivered after P1's restart).
    runner.inject(2, {"tag": "e6", "sends": [(1, {"tag": "m4"})]})
    assert runner.procs[2].current == Entry(0, 2)


def _fail_p1(runner: ScriptRunner, result: ScenarioResult) -> None:
    """P1 fails at X, restarts at (1,5)_1, broadcasts r1 = (0,4)_1, and
    sends m5 (to P2) and m7 (to P5) from the restart interval."""
    say = result.narrative.append
    runner.crash_restart(1)
    restarts = runner.last_effects_of_type(BroadcastAnnouncement)
    result.r1 = restarts[-1].announcement
    result.p1_restart_interval = runner.procs[1].current
    assert result.r1.end == Entry(0, 4), result.r1
    assert runner.procs[1].current == Entry(1, 5)
    say(f"P1 fails at X, rolls back to (0,4)_1, restarts as {runner.procs[1].current}"
        f" and broadcasts r1 = {result.r1}")

    runner.script_send(1, 2, {"tag": "m5", "sends": [(4, {"tag": "m6"})]}, seq=1)
    runner.script_send(1, 5, {"tag": "m7"}, seq=2)

    # P2 delivers m5 -> (0,3)_2 and sends m6 to P4.
    runner.carry("m5")
    assert runner.procs[2].current == Entry(0, 3)
    say("P2 delivers m5 -> (0,3)_2 and sends m6 to P4")


def figure1_async() -> ScenarioResult:
    """The Section-2 narrative: completely asynchronous recovery.

    P4 delivers m6 immediately and tracks BOTH incarnations of P1; P3
    broadcasts its own rollback announcement.
    """
    result = ScenarioResult()
    runner = ScriptRunner(FullyAsyncProcess)
    say = result.narrative.append

    _prepare_common(runner, result)
    _fail_p1(runner, result)

    # m6 arrives at P4 BEFORE r1 and is delivered immediately.
    runner.carry("m6")
    delivered_now = runner.procs[4].current == Entry(0, 3)
    result.m6_delayed_until_r1 = not delivered_now
    result.p4_after_m6 = {
        (pid, entry.inc): entry for pid, entry in runner.vector_of(4).items()
    }
    say(f"P4 delivers m6 immediately: dependency of (0,3)_4 is {runner.vector_of(4)!r}")

    # r1 reaches P3: rollback to (2,6)_3 + own rollback announcement.
    announcements_before = len(runner.announcements)
    runner.deliver_announcement(3, result.r1)
    rollbacks = runner.last_effects_of_type(RollbackPerformed)
    result.p3_rolled_back_to = rollbacks[-1].restored_to if rollbacks else None
    result.p3_broadcast_own_announcement = len(runner.announcements) > announcements_before
    result.m3_discarded_as_orphan = any(
        isinstance(e, MessageDiscarded) and e.message.payload.get("tag") == "m3"
        for e in runner.events
    )
    say(f"P3 receives r1: rolls back to {result.p3_rolled_back_to}, "
        f"announces its own rollback (Section-2 protocol)")

    # r1 reaches P4: no rollback ((0,4)_1 survived).
    rollbacks_before = len(runner.last_effects_of_type(RollbackPerformed))
    runner.deliver_announcement(4, result.r1)
    result.p4_rolled_back = (
        len(runner.last_effects_of_type(RollbackPerformed)) > rollbacks_before
    )
    say("P4 receives r1: its state does not depend on rolled-back intervals")

    # P5 delivers m7 (it has no P1 entry, so nothing could conflict).
    runner.carry("m7")
    result.p5_delivered_m7_without_r1 = runner.procs[5].current.sii == 2
    say("P5 delivers m7 without waiting for r1")
    return result


def figure1_koptimistic(k: int = N) -> ScenarioResult:
    """The improved (Theorems 1-2 + Corollary 1) protocol on the same story.

    P4 must delay m6 until r1 arrives; P5 still delivers m7 immediately;
    P3 rolls back but does NOT broadcast (Theorem 1); Theorem 2 shrinks
    P4's vector; the output from (0,2)_4 commits once (1,3)_0, (0,4)_1,
    (2,6)_3 and (0,2)_4 are all known stable.
    """
    result = ScenarioResult()
    runner = ScriptRunner(KOptimisticProcess, k=k)
    say = result.narrative.append

    _prepare_common(runner, result)

    # Theorem 2 demo before the failure: P3 flushes (2,6)_3 and notifies P4.
    runner.flush(3)
    runner.notify(3, 4)
    result.p4_vector_after_p3_notification = {
        pid: entry for pid, entry in runner.vector_of(4).items()
    }
    say(f"P3's logging progress notification lets P4 drop (2,6)_3: "
        f"vector now {runner.vector_of(4)!r}")

    _fail_p1(runner, result)

    # m6 arrives at P4 BEFORE r1: held (two incarnations of P1 in play).
    runner.carry("m6")
    held = runner.procs[4].current == Entry(0, 2)
    # r1 arrives: P4 does not roll back, and m6 becomes deliverable.
    rollbacks_before = len(runner.last_effects_of_type(RollbackPerformed))
    runner.deliver_announcement(4, result.r1)
    delivered_after = runner.procs[4].current == Entry(0, 3)
    result.m6_delayed_until_r1 = held and delivered_after
    result.p4_rolled_back = (
        len(runner.last_effects_of_type(RollbackPerformed)) > rollbacks_before
    )
    result.p4_after_m6 = {pid: entry for pid, entry in runner.vector_of(4).items()}
    say(f"P4 held m6 until r1; after delivery the P1 entry is "
        f"{runner.vector_of(4).get(1)} (lexicographic max)")

    # P5 delivers m7 with no delay: no existing P1 entry (Corollary 1).
    runner.carry("m7")
    result.p5_delivered_m7_without_r1 = runner.procs[5].current.sii == 2
    say("P5 delivers m7 without waiting for r1 (no P1 entry to overwrite)")

    # r1 reaches P3: rollback to (2,6)_3, no announcement (Theorem 1).
    announcements_before = len(runner.announcements)
    runner.deliver_announcement(3, result.r1)
    rollbacks = runner.last_effects_of_type(RollbackPerformed)
    result.p3_rolled_back_to = rollbacks[-1].restored_to if rollbacks else None
    result.p3_broadcast_own_announcement = len(runner.announcements) > announcements_before
    result.m3_discarded_as_orphan = any(
        isinstance(e, MessageDiscarded) and e.message.payload.get("tag") == "m3"
        for e in runner.events
    )
    say(f"P3 rolls back to {result.p3_rolled_back_to}; no announcement (Theorem 1)")

    # Output commit: P4 flushes (0,2)_4; stability of (1,3)_0 via P0's
    # notification; (0,4)_1 via r1 (already processed); (2,6)_3 via P3's
    # earlier notification.
    runner.flush(4)
    result.output_commit_order.append("p4-flush")
    runner.flush(0)
    runner.notify(0, 4)
    result.output_commit_order.append("p0-notify")
    result.output_committed = "fig1-output" in runner.outputs
    say("P4 commits the output from (0,2)_4 once (1,3)_0, (0,4)_1, (2,6)_3 "
        "and (0,2)_4 are all known stable")
    return result


def main() -> None:
    print("=" * 72)
    print("Figure 1 — Section 2 narrative (completely asynchronous recovery)")
    print("=" * 72)
    result = figure1_async()
    for line in result.narrative:
        print("  *", line)
    print()
    print("=" * 72)
    print("Figure 1 — improved protocol (Theorems 1-2, Corollary 1)")
    print("=" * 72)
    result = figure1_koptimistic()
    for line in result.narrative:
        print("  *", line)


if __name__ == "__main__":
    main()
