"""Non-vacuity of the two inline checks, on both of their consumers.

The Theorem 4 check at release and the empty-revoker check at output
commit read the oracle's cached stable frontier.  A frontier that errs
on the permissive side (a sentinel never cleared, a compare inverted)
would make both checks pass silently on every run; these tests hand the
checks a release with K+1 live revokers, a release judged against its
own bound, and a commit with one live revoker, and require today's exact
message text — from :class:`SimulationHarness` (the simulation's inline
consumer) and from :mod:`repro.oracle.ingest` (the post-hoc one), on the
list (n=16) and on the numpy (n=64) representation of the causal vector.
"""

import dataclasses

import pytest

from repro.core import columnar
from repro.core.entry import Entry
from repro.net.message import OutputRecord
from repro.oracle.ingest import certify_events
from repro.runtime.harness import _OracleHooks

from helpers import build_sim, make_msg

WIDTHS = [16, 64]
K = 2


def relay_chain(oracle, hops):
    """P0 takes an outside message and relays it down P1 … P(hops-1):
    interval (j, 0, 2) has exactly the revokers {0, …, j}."""
    oracle.record_delivery(0, Entry(0, 2), None, None)
    for j in range(1, hops):
        oracle.record_delivery(j, Entry(0, 2), j - 1, Entry(0, 2))


def harness_with_relay(n):
    harness = build_sim(n=n, k=K, until=None)
    relay_chain(harness.oracle, K + 1)
    if columnar.numpy_module() is not None:
        assert harness.oracle._use_np == (n >= 64)
    return harness


def release_from(pid, n, k_limit=None):
    msg = make_msg(pid, pid + 1, n=n, send_interval=Entry(0, 2))
    return dataclasses.replace(msg, k_limit=k_limit)


def output_from(pid):
    return OutputRecord("o1", pid, None, Entry(0, 2))


@pytest.mark.parametrize("n", WIDTHS)
class TestHarnessChecks:
    def test_release_with_k_plus_one_live_revokers_is_flagged(self, n):
        harness = harness_with_relay(n)
        within = release_from(K - 1, n)
        harness.check_release_bound(within)
        assert harness.violations == []
        assert harness.max_release_revokers == K
        beyond = release_from(K, n)
        harness.check_release_bound(beyond)
        assert harness.violations == [
            f"Theorem 4 violated: {beyond.msg_id} released with "
            f"3 potential revokers [0, 1, 2] > K=2"]
        assert harness.max_release_revokers == K + 1

    def test_release_is_judged_against_its_own_bound(self, n):
        harness = harness_with_relay(n)
        harness.check_release_bound(release_from(K, n, k_limit=K + 1))
        assert harness.violations == []    # looser than the global K
        tight = release_from(1, n, k_limit=1)
        harness.check_release_bound(tight)
        assert harness.violations == [     # tighter than the global K
            f"Theorem 4 violated: {tight.msg_id} released with "
            f"2 potential revokers [0, 1] > K=1"]

    def test_commit_with_one_live_revoker_is_flagged(self, n):
        harness = harness_with_relay(n)
        for pid in range(K):
            harness.oracle.mark_stable(pid, Entry(0, 2))
        harness.check_output_commit(output_from(K))
        assert harness.violations == [
            "output o1 committed with live revokers [2]"]
        harness.oracle.mark_stable(K, Entry(0, 2))
        harness.check_output_commit(output_from(K))
        assert len(harness.violations) == 1    # all stable: a clean commit

    def test_unknown_interval_flags_nothing(self, n):
        harness = harness_with_relay(n)
        ghost = make_msg(3, 4, n=n, send_interval=Entry(5, 9))
        harness.check_release_bound(ghost)
        harness.check_output_commit(OutputRecord("o9", 3, None, Entry(5, 9)))
        assert harness.violations == []
        assert harness.max_release_revokers == 0

    def test_hooks_reach_both_checks(self, n):
        harness = harness_with_relay(n)
        hooks = _OracleHooks(harness, K)
        beyond = release_from(K, n)
        hooks.pre_release(beyond)
        hooks.pre_commit(output_from(K))
        assert harness.violations == [
            f"Theorem 4 violated: {beyond.msg_id} released with "
            f"3 potential revokers [0, 1, 2] > K=2",
            "output o1 committed with live revokers [0, 1, 2]"]
        hooks.check_invariants = False
        hooks.pre_release(release_from(K, n))
        hooks.pre_commit(output_from(K))
        assert len(harness.violations) == 2


def ev(time, category, pid, **data):
    return {"time": time, "category": category, "process": pid, "data": data}


def relay_events():
    events = [ev(1.0, "dep.deliver", 0, inc=0, sii=2, src=-1)]
    for j in range(1, K + 1):
        events.append(ev(1.0 + j, "dep.deliver", j, inc=0, sii=2,
                         src=j - 1, src_inc=0, src_sii=2))
    return events


@pytest.mark.parametrize("n", WIDTHS)
class TestIngestChecks:
    def test_release_with_k_plus_one_live_revokers_is_flagged(self, n):
        events = relay_events() + [
            ev(9.0, "dep.release", K - 1, inc=0, sii=2, msg="m2"),
            ev(9.1, "dep.release", K, inc=0, sii=2, msg="m3"),
        ]
        assert certify_events(events, n=n, k=K).violations == [
            "Theorem 4 violated: m3 released by P2 with "
            "3 potential revokers [0, 1, 2] > K=2"]

    def test_release_is_judged_against_its_own_bound(self, n):
        events = relay_events() + [
            ev(9.0, "dep.release", K, inc=0, sii=2, msg="m3", k=K + 1),
            ev(9.1, "dep.release", 1, inc=0, sii=2, msg="m2", k=1),
        ]
        assert certify_events(events, n=n, k=K).violations == [
            "Theorem 4 violated: m2 released by P1 with "
            "2 potential revokers [0, 1] > K=1"]

    def test_commit_with_one_live_revoker_is_flagged(self, n):
        events = relay_events() + [
            ev(8.0 + pid, "dep.stable", pid, inc=0, sii=2)
            for pid in range(K)
        ] + [ev(12.0, "dep.commit", K, inc=0, sii=2, output="o1")]
        assert certify_events(events, n=n, k=K).violations == [
            "output o1 committed with live revokers [2]"]
        events.insert(-1, ev(11.0, "dep.stable", K, inc=0, sii=2))
        assert certify_events(events, n=n, k=K).ok

    def test_release_from_an_interval_that_never_appeared(self, n):
        events = relay_events() + [
            ev(9.0, "dep.release", 3, inc=5, sii=9, msg="m9")]
        cert = certify_events(events, n=n, k=0)
        assert cert.ok and cert.counts["releases"] == 1
