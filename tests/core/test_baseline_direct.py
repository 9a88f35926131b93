"""Baseline conformance: direct dependency tracking (Section 5)."""

import pytest

from repro.app.behavior import AppBehavior
from repro.core.baselines.direct import DirectDependencyProcess
from repro.core.effects import (
    BroadcastAnnouncement,
    MessageDiscarded,
    ReleaseMessage,
    RollbackPerformed,
)
from repro.core.entry import Entry
from repro.failures.injector import CrashEvent, FailureSchedule
from repro.workloads.random_peers import RandomPeersWorkload
from helpers import (build_sim, deliver_env, effects_of, make_announcement,
                     make_msg)


class Forwarder(AppBehavior):
    def initial_state(self, pid, n):
        return {"count": 0}

    def on_message(self, state, payload, ctx):
        state["count"] += 1
        if isinstance(payload, dict) and "to" in payload:
            ctx.send(payload["to"], {})
        if isinstance(payload, dict) and payload.get("output"):
            ctx.output(payload["output"])
        return state


def direct(pid=0, n=4):
    proc = DirectDependencyProcess(pid, n, behavior=Forwarder())
    proc.initialize()
    return proc


class TestDirectTracking:
    def test_piggyback_is_exactly_one_entry(self):
        proc = direct()
        # Accumulate transitive context first...
        proc.on_receive(make_msg(1, 0, entries={1: Entry(0, 3), 2: Entry(0, 5)}))
        # ...the outgoing message still carries only the sender's interval.
        effects = proc.on_receive(make_msg(2, 0, entries={2: Entry(0, 6)},
                                           payload={"to": 1}))
        msg = effects_of(effects, ReleaseMessage)[0].message
        assert msg.piggyback_size() == 1
        assert msg.tdv.get(0) == msg.send_interval

    def test_local_state_tracks_only_direct_dependencies(self):
        proc = direct()
        # A message from P1 carrying (transitively) P2's entry would never
        # exist under direct tracking; senders piggyback only themselves.
        proc.on_receive(make_msg(1, 0, entries={1: Entry(0, 3)}))
        proc.on_receive(make_msg(2, 0, entries={2: Entry(0, 5)}))
        assert proc.tdv.get(1) == Entry(0, 3)
        assert proc.tdv.get(2) == Entry(0, 5)
        assert proc.tdv.get(3) is None

    def test_direct_orphan_detected(self):
        proc = direct()
        proc.on_receive(make_msg(1, 0, entries={1: Entry(0, 5)}))
        effects = proc.on_failure_announcement(make_announcement(1, 0, 4))
        assert effects_of(effects, RollbackPerformed)

    def test_rollback_announces_for_the_cascade(self):
        proc = direct()
        proc.on_receive(make_msg(1, 0, entries={1: Entry(0, 5)}))
        effects = proc.on_failure_announcement(make_announcement(1, 0, 4))
        own = [e for e in effects_of(effects, BroadcastAnnouncement)
               if e.announcement.origin == 0]
        assert len(own) == 1

    def test_transitive_orphan_found_via_cascade(self):
        # P0 <- P2 <- P1(fails).  P0 never saw a P1 entry; it learns of its
        # orphanhood only from P2's cascaded announcement.
        p0 = direct(pid=0)
        p2 = direct(pid=2)
        p2.on_receive(make_msg(1, 2, entries={1: Entry(0, 5)}))
        effects = p2.on_receive(make_msg(-1 + 4, 2))  # filler from P3
        fwd = p2.on_receive(make_msg(3, 2, entries={3: Entry(0, 2)},
                                     payload={"to": 0}))
        msg_to_p0 = effects_of(fwd, ReleaseMessage)[0].message
        p0.on_receive(msg_to_p0)
        assert p0.tdv.get(1) is None  # no transitive knowledge of P1

        # P1's failure: P0 is unaffected directly...
        ann = make_announcement(1, 0, 4)
        assert not effects_of(p0.on_failure_announcement(ann),
                              RollbackPerformed)
        # ...P2 rolls back and announces; that announcement reaches P0.
        cascade = effects_of(p2.on_failure_announcement(ann),
                             BroadcastAnnouncement)
        own = [e.announcement for e in cascade if e.announcement.origin == 2]
        assert own
        effects = p0.on_failure_announcement(own[0])
        assert effects_of(effects, RollbackPerformed)

    def test_outputs_rejected(self):
        proc = direct()
        with pytest.raises(NotImplementedError):
            deliver_env(proc, {"output": "X"})

    def test_messages_never_held(self):
        proc = direct()
        deliver_env(proc, {"to": 1})
        assert not proc.send_buffer
        assert proc.stats.send_hold_time_total == 0.0


class TestNoTheorem3Reclamation:
    def test_cascade_always_finds_a_checkpoint(self):
        # The golden digest's direct configuration at seed 2: with
        # Theorem-3 reclamation on, a cascaded rollback judged every
        # retained checkpoint orphaned and restore raised.
        harness = build_sim(
            n=4, seed=2, protocol=DirectDependencyProcess, until=100.0,
            workload=RandomPeersWorkload(rate=0.5, output_fraction=0.0),
            failures=FailureSchedule([CrashEvent(60.0, 1),
                                      CrashEvent(95.0, 3)]),
            flush_interval=10.0, checkpoint_interval=40.0)
        harness.run(160.0)
        metrics = harness.metrics()
        assert metrics.crashes == 2 and metrics.rollbacks > 0
        assert metrics.violations == []
