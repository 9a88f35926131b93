"""Per-message K plumbing regressions (Section 4.2).

Three observers consume a released message's K bound: the protocol's own
Send_buffer check, the harness's online release-bound check, and the
post-hoc oracle fed by ``dep.release`` trace records.  Before the fixes
under test, only the first honoured ``msg.k_limit``; the other two read
the *global* K and flagged false Theorem-4 violations whenever an
application (or the adaptive-K controller) stamped a message with a bound
above the system-wide setting.  A fourth regression pins the
restart-boundary output-latency fix: outputs re-enqueued by recovery
replay are backdated to the crash instant instead of restarting their
wait clock at replay time.
"""

from repro.app.behavior import AppBehavior
from repro.core.effects import CommitOutput, ReleaseMessage
from repro.oracle.ingest import certify_tracer

from helpers import build_sim, deliver_env, effects_of, make_proc


class _KickSender(AppBehavior):
    """On the kick, send one message bounded at K=2 (above the global K)."""

    def on_message(self, state, payload, ctx):
        if isinstance(payload, dict) and payload.get("kick"):
            ctx.send((ctx.pid + 1) % ctx.n, {"hop": True}, k=2)
        return state


class _NullWorkload:
    """A workload shim: a fixed behaviour, no scheduled traffic."""

    def __init__(self, behavior):
        self._behavior = behavior

    def behavior(self):
        return self._behavior

    def install(self, harness, until):
        pass


def _run_k0_with_bounded_send():
    harness = build_sim(n=3, k=0, workload=_NullWorkload(_KickSender()),
                        until=None, dep_trace=True)
    harness.inject_at(1.0, 0, {"kick": True})
    harness.run(60.0)
    return harness


class TestPerMessageKAboveGlobal:
    """Global K=0, one send stamped k=2: legal per Theorem 2, and the
    protocol releases it with one non-stable dependency.  Every checker
    must judge it against the *message's* bound, not the global one."""

    def test_online_release_check_honours_message_bound(self):
        # Pre-fix: the inline release check compared the release-time revoker
        # count (1: the sender's own unflushed interval) against the
        # global K=0 and reported a false Theorem-4 violation.
        harness = _run_k0_with_bounded_send()
        assert harness.metrics().violations == []
        harness.close()

    def test_release_trace_records_message_bound(self):
        # Pre-fix: dep.release records carried no K at all, so no
        # post-hoc consumer *could* get this right.
        harness = _run_k0_with_bounded_send()
        releases = [e for e in harness.tracer.events
                    if e.category == "dep.release"]
        assert releases, "the bounded send never released"
        assert any(e.data.get("k") == 2 for e in releases)
        harness.close()

    def test_posthoc_certification_honours_message_bound(self):
        # Pre-fix: the post-hoc release check judged every release
        # against the run-wide K=0 and the certification came back dirty.
        harness = _run_k0_with_bounded_send()
        cert = certify_tracer(harness.tracer, n=3, k=0)
        assert cert.violations == []
        harness.close()

    def test_unbounded_sends_still_checked_against_global_k(self):
        # The fix must not loosen anything: plain sends (no k_limit)
        # keep the global bound, and the whole default suite still
        # certifies against it.
        harness = build_sim(n=4, k=1, seed=3, dep_trace=True, until=150.0)
        harness.run(200.0)
        assert harness.metrics().violations == []
        assert certify_tracer(harness.tracer, n=4, k=1).violations == []
        harness.close()


class _Forwarder(AppBehavior):
    """P1: forward the kick to P0 as an app message."""

    def on_message(self, state, payload, ctx):
        if isinstance(payload, dict) and payload.get("kick"):
            ctx.send(0, {"fwd": True})
        return state


class _Emitter(AppBehavior):
    """P0: emit one output per delivered message."""

    def on_message(self, state, payload, ctx):
        ctx.output({"done": True})
        return state


class TestRestartBoundaryOutputWait:
    """An output whose wait spans a crash is backdated to the crash
    instant when replay re-enqueues it: the committed wait must include
    the downtime, not restart at replay time."""

    def _clocked_pair(self):
        clock = {"t": 0.0}
        now = lambda: clock["t"]  # noqa: E731
        p0 = make_proc(0, n=2, k=2, behavior=_Emitter(), now_fn=now)
        p1 = make_proc(1, n=2, k=2, behavior=_Forwarder(), now_fn=now)
        return clock, p0, p1

    def _send_via_p1(self, clock, p0, p1):
        """Deliver the kick at P1; return its released message to P0."""
        clock["t"] = 5.0
        released = effects_of(deliver_env(p1, {"kick": True}), ReleaseMessage)
        assert len(released) == 1
        return released[0].message

    def test_committed_wait_spans_the_downtime(self):
        clock, p0, p1 = self._clocked_pair()
        msg = self._send_via_p1(clock, p0, p1)

        clock["t"] = 10.0
        assert effects_of(p0.on_receive(msg), CommitOutput) == []

        # Flush resolves P0's own dependency; the output stays held on
        # P1's still-volatile sending interval.
        clock["t"] = 50.0
        assert effects_of(p0.flush(), CommitOutput) == []

        clock["t"] = 100.0
        p0.crash()
        clock["t"] = 110.0
        assert effects_of(p0.restart(), CommitOutput) == []

        # P1's flush makes its interval stable; the notification lets
        # the replayed output commit.
        clock["t"] = 130.0
        p1.flush()
        commits = effects_of(p0.on_log_notification(
            p1.make_log_notification()), CommitOutput)
        assert len(commits) == 1
        # Backdated to the crash (t=100), not the replay (t=110): the
        # pre-fix wait of 20 silently dropped the 10 units of downtime.
        assert commits[0].wait == 30.0
        assert p0.stats.output_wait_total == 30.0

    def test_wait_without_a_crash_is_unchanged(self):
        clock, p0, p1 = self._clocked_pair()
        msg = self._send_via_p1(clock, p0, p1)

        clock["t"] = 10.0
        p0.on_receive(msg)
        clock["t"] = 50.0
        p0.flush()
        clock["t"] = 130.0
        p1.flush()
        commits = effects_of(p0.on_log_notification(
            p1.make_log_notification()), CommitOutput)
        assert len(commits) == 1
        assert commits[0].wait == 120.0
