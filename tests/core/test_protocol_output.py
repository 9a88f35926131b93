"""Protocol conformance: output commit (Section 4.2 — outputs are
0-optimistic messages)."""

from repro.app.behavior import AppBehavior
from repro.core.effects import CommitOutput, OutputDiscarded
from repro.core.entry import Entry
from repro.net.message import LogProgressNotification
from helpers import deliver_env, effects_of, make_announcement, make_msg, make_proc


class OutputBehavior(AppBehavior):
    def initial_state(self, pid, n):
        return {"n": 0}

    def on_message(self, state, payload, ctx):
        state["n"] += 1
        if isinstance(payload, dict) and "output" in payload:
            ctx.output(payload["output"])
        return state


def notification(n, pid, entries):
    table = [{} for _ in range(n)]
    table[pid] = dict(entries)
    return LogProgressNotification(pid, table)


class TestOutputCommit:
    def test_output_waits_for_own_stability(self):
        proc = make_proc(k=4, behavior=OutputBehavior())
        effects = deliver_env(proc, {"output": "A"})
        assert not effects_of(effects, CommitOutput)
        assert len(proc.output_buffer) == 1
        effects = proc.flush()
        commits = effects_of(effects, CommitOutput)
        assert len(commits) == 1
        assert commits[0].record.payload == "A"

    def test_output_waits_for_remote_dependencies(self):
        # The paper's P4 example: the output from (0,2)_4 commits only when
        # (1,3)_0, (0,4)_1, (2,6)_3 AND (0,2)_4 are all stable.
        proc = make_proc(pid=4, n=6, k=6, behavior=OutputBehavior())
        proc.on_receive(make_msg(3, 4, n=6,
                                 entries={0: Entry(1, 3), 1: Entry(0, 4),
                                          3: Entry(2, 6)},
                                 payload={"output": "OUT"}))
        assert not effects_of(proc.flush(), CommitOutput)           # own stable
        assert not effects_of(
            proc.on_log_notification(notification(6, 0, {1: 3})), CommitOutput)
        assert not effects_of(
            proc.on_log_notification(notification(6, 3, {2: 6})), CommitOutput)
        # (0,4)_1's stability arrives via r1 (Corollary 1): commits now.
        effects = proc.on_failure_announcement(make_announcement(1, 0, 4))
        assert effects_of(effects, CommitOutput)

    def test_output_commit_recorded_stably(self):
        proc = make_proc(k=4, behavior=OutputBehavior())
        deliver_env(proc, {"output": "A"})
        effects = proc.flush()
        record = effects_of(effects, CommitOutput)[0].record
        assert proc.storage.output_committed(record.output_id)

    def test_replay_does_not_recommit(self):
        proc = make_proc(k=4, behavior=OutputBehavior())
        deliver_env(proc, {"output": "A"})
        proc.flush()  # commits
        assert proc.stats.outputs_committed == 1
        proc.crash()
        effects = proc.restart()
        assert not effects_of(effects, CommitOutput)
        assert proc.stats.outputs_committed == 1
        assert proc.storage.committed_output_count == 1

    def test_uncommitted_output_reappears_after_replay(self):
        # Output enqueued, logged, NOT committed before the crash: replay
        # regenerates it and it can commit afterwards.
        proc = make_proc(pid=4, n=6, k=6, behavior=OutputBehavior())
        proc.on_receive(make_msg(3, 4, n=6, entries={3: Entry(2, 6)},
                                 payload={"output": "OUT"}))
        proc.flush()
        proc.crash()
        effects = proc.restart()
        assert not effects_of(effects, CommitOutput)
        assert len(proc.output_buffer) == 1
        effects = proc.on_log_notification(notification(6, 3, {2: 6}))
        assert effects_of(effects, CommitOutput)

    def test_rollback_replay_of_pending_output_is_deduplicated(self):
        # The output of interval (0,2) is still waiting (P1's interval is
        # not stable) when P2's failure rolls P0 back past interval (0,3).
        # Replay re-executes interval (0,2) and emits the same output id:
        # the buffer must keep one copy, and commit it once.
        proc = make_proc(pid=0, n=4, k=4, behavior=OutputBehavior())
        proc.on_receive(make_msg(1, 0, entries={1: Entry(0, 3)},
                                 payload={"output": "A"}))
        proc.on_receive(make_msg(2, 0, entries={2: Entry(0, 5)}))
        assert len(proc.output_buffer) == 1
        effects = proc.on_failure_announcement(make_announcement(2, 0, 4))
        assert proc.stats.rollbacks == 1
        assert proc.stats.replayed_deliveries == 1
        assert not effects_of(effects, OutputDiscarded)
        assert len(proc.output_buffer) == 1
        assert proc.stats.outputs_enqueued == 1
        effects = proc.on_log_notification(notification(4, 1, {0: 3}))
        effects += proc.flush()
        assert len(effects_of(effects, CommitOutput)) == 1
        assert proc.stats.outputs_committed == 1
        assert len(proc.output_buffer) == 0

    def test_orphan_output_discarded(self):
        proc = make_proc(pid=4, n=6, k=6, behavior=OutputBehavior())
        proc.on_receive(make_msg(3, 4, n=6, entries={3: Entry(2, 6)},
                                 payload={"output": "OUT"}))
        effects = proc.on_failure_announcement(make_announcement(3, 2, 5))
        assert effects_of(effects, OutputDiscarded)
        assert proc.stats.outputs_discarded == 1
        assert len(proc.output_buffer) == 0

    def test_committed_output_cannot_be_revoked(self):
        # Once committed, a later announcement does not (cannot) touch it:
        # all of its dependencies were stable, hence never rolled back.
        proc = make_proc(k=4, behavior=OutputBehavior())
        deliver_env(proc, {"output": "A"})
        proc.flush()
        proc.on_failure_announcement(make_announcement(1, 0, 1))
        assert proc.stats.outputs_committed == 1
        assert proc.stats.outputs_discarded == 0

    def test_output_wait_time_tracked(self):
        clock = {"now": 0.0}
        proc = make_proc(k=4, behavior=OutputBehavior(),
                         now_fn=lambda: clock["now"])
        deliver_env(proc, {"output": "A"})
        clock["now"] = 12.0
        proc.flush()
        assert proc.stats.output_wait_total == 12.0
        assert proc.stats.mean_output_wait() == 12.0

    def test_multiple_outputs_one_interval(self):
        class MultiOutput(AppBehavior):
            def initial_state(self, pid, n):
                return {}

            def on_message(self, state, payload, ctx):
                ctx.output("first")
                ctx.output("second")
                return state

        proc = make_proc(k=4, behavior=MultiOutput())
        deliver_env(proc, {})
        effects = proc.flush()
        commits = effects_of(effects, CommitOutput)
        assert [c.record.payload for c in commits] == ["first", "second"]
        ids = {c.record.output_id for c in commits}
        assert len(ids) == 2
