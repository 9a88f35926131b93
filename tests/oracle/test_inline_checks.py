"""Non-vacuity of the certifier's two claim checks, through both feeds.

The Theorem 4 check at release and the output-commit rule at commit read
the oracle's cached stable frontier.  A frontier that errs on the
permissive side (a sentinel never cleared, a compare inverted) would make
both checks pass silently on every run; these cases hand the checks a
release with K+1 live revokers, a release judged against its own bound,
a commit with one live revoker or from an unknown interval, and a
committed-output ledger with a duplicate, a revoked and an orphaned
output, and require the exact message text.

One suite, run through each feed of the one
:class:`~repro.oracle.certifier.Certifier`: ``TestHarnessChecks`` speaks
the typed calls the simulation harness makes inline, ``TestIngestChecks``
writes the ``dep.*`` records :mod:`repro.oracle.ingest` parses after a
run.  Both on the list (n=16) and on the numpy (n=64) representation of
the causal vector.  The lost-send rule of ``finish`` gets the same
treatment: a surviving interval that never released one of its sends is
named with the send's index.
"""

import pytest

from repro.check.mutants import MUTANTS
from repro.core.baselines import StromYeminiProcess
from repro.core import columnar
from repro.core.effects import CommitOutput, ReleaseMessage
from repro.core.entry import Entry
from repro.failures.injector import CrashEvent, FailureSchedule
from repro.net.message import OutputRecord
from repro.oracle.certifier import Certifier
from repro.oracle.ingest import certify_events
from repro.types import OutputId

from helpers import build_sim, make_msg

WIDTHS = [16, 64]
K = 2
INTERVAL = Entry(0, 2)
#: The first output of P2's interval INTERVAL.
O1 = OutputId(K, INTERVAL.inc, INTERVAL.sii, 0)


def ev(time, category, pid, **data):
    return {"time": time, "category": category, "process": pid, "data": data}


class Calls:
    """The inline feed: typed calls on a certifier."""

    def __init__(self, n, certifier=None):
        self.certifier = certifier or Certifier(n, K)
        if columnar.numpy_module() is not None:
            assert self.certifier.oracle._use_np == (n >= 64)

    def deliver(self, pid, interval, src=-1, src_interval=None, sends=0,
                outputs=0):
        self.certifier.deliver(pid, interval, src, src_interval, sends,
                               outputs)

    def stable(self, pid, through):
        self.certifier.stable(pid, through)

    def release(self, pid, interval, msg, k=None, seq=0):
        self.certifier.release(pid, interval, msg, k, seq)

    def recover(self, pid, survivor, new_current):
        self.certifier.recover(pid, survivor, new_current)

    def commit(self, pid, interval, output, seq=0):
        self.certifier.commit(pid, interval, output, None, seq)

    def verdict(self):
        return self.certifier.finish()


class Records:
    """The post-hoc feed: ``dep.*`` records through the ingest parser."""

    def __init__(self, n):
        self.n = n
        self.events = []

    def _add(self, category, pid, **data):
        self.events.append(ev(float(len(self.events)), category, pid, **data))

    def deliver(self, pid, interval, src=-1, src_interval=None, sends=0,
                outputs=0):
        data = {"inc": interval.inc, "sii": interval.sii, "src": src}
        if src_interval is not None:
            data.update(src_inc=src_interval.inc, src_sii=src_interval.sii)
        if sends:
            data["sends"] = sends
        if outputs:
            data["outputs"] = outputs
        self._add("dep.deliver", pid, **data)

    def stable(self, pid, through):
        self._add("dep.stable", pid, inc=through.inc, sii=through.sii)

    def recover(self, pid, survivor, new_current):
        self._add("dep.recover", pid, s_inc=survivor.inc, s_sii=survivor.sii,
                  n_inc=new_current.inc, n_sii=new_current.sii)

    def release(self, pid, interval, msg, k=None, seq=0):
        data = {"inc": interval.inc, "sii": interval.sii, "msg": msg,
                "seq": seq, "replayed": False}
        if k is not None:
            data["k"] = k
        self._add("dep.release", pid, **data)

    def commit(self, pid, interval, output, seq=0):
        self._add("dep.commit", pid, inc=interval.inc, sii=interval.sii,
                  seq=seq, output=output)

    def verdict(self):
        return certify_events(self.events, n=self.n, k=K)


def relay_chain(feed, hops=K + 1):
    """P0 takes an outside message and relays it down P1 … P(hops-1):
    interval (j, 0, 2) has exactly the revokers {0, …, j}."""
    feed.deliver(0, INTERVAL)
    for j in range(1, hops):
        feed.deliver(j, INTERVAL, j - 1, INTERVAL)


@pytest.mark.parametrize("n", WIDTHS)
class _CertifierSuite:
    Feed = None

    def fed(self, n):
        feed = self.Feed(n)
        relay_chain(feed)
        return feed

    def test_release_with_k_plus_one_live_revokers_is_flagged(self, n):
        feed = self.fed(n)
        feed.release(K - 1, INTERVAL, "m2")
        feed.release(K, INTERVAL, "m3")
        verdict = feed.verdict()
        assert verdict.violations == [
            "Theorem 4 violated: m3 released by P2 with "
            "3 potential revokers [0, 1, 2] > K=2"]
        assert verdict.counts["max_release_revokers"] == K + 1

    def test_release_is_judged_against_its_own_bound(self, n):
        feed = self.fed(n)
        feed.release(K, INTERVAL, "m3", k=K + 1)   # looser than the global K
        feed.release(1, INTERVAL, "m2", k=1)       # tighter than the global K
        assert feed.verdict().violations == [
            "Theorem 4 violated: m2 released by P1 with "
            "2 potential revokers [0, 1] > K=1"]

    def test_commit_with_one_live_revoker_is_flagged(self, n):
        feed = self.fed(n)
        for pid in range(K):
            feed.stable(pid, INTERVAL)
        feed.commit(K, INTERVAL, "o1")
        assert feed.verdict().violations == [
            "output o1 committed with live revokers [2]"]
        feed.stable(K, INTERVAL)
        feed.commit(K, INTERVAL, "o2")             # all stable: clean
        assert feed.verdict().violations == [
            "output o1 committed with live revokers [2]"]

    def test_release_from_an_interval_that_never_appeared(self, n):
        feed = self.fed(n)
        feed.release(3, Entry(5, 9), "m9")
        verdict = feed.verdict()
        assert verdict.ok
        assert verdict.counts["releases"] == 1
        assert verdict.counts["max_release_revokers"] == 0

    def test_commit_from_an_unknown_interval_is_flagged(self, n):
        feed = self.fed(n)
        feed.commit(3, Entry(5, 9), "o9")
        assert feed.verdict().violations == [
            "output o9 committed from unknown interval (3, 5, 9) at P3"]

    def test_the_ledger_flags_an_output_committed_twice(self, n):
        feed = self.fed(n)
        for pid in range(K + 1):
            feed.stable(pid, INTERVAL)
        feed.commit(K, INTERVAL, "o1")
        feed.commit(K, INTERVAL, "o1")
        assert feed.verdict().violations == [
            "output o1 committed more than once"]

    def test_the_ledger_flags_a_commit_revoked_by_the_end(self, n):
        feed = self.fed(n)
        for pid in range(K + 1):
            feed.stable(pid, INTERVAL)
        feed.commit(K, INTERVAL, "o1")             # clean when it left
        feed.recover(K, Entry(0, 1), Entry(1, 2))
        assert feed.verdict().violations == [
            "output o1 committed from rolled-back interval (2, 0, 2) "
            "(committed output was revoked)"]

    def test_the_ledger_flags_a_commit_orphaned_by_the_end(self, n):
        feed = self.fed(n)
        for pid in range(K + 1):
            feed.stable(pid, INTERVAL)
        feed.commit(K, INTERVAL, "o1")
        feed.recover(1, Entry(0, 1), Entry(1, 2))  # P2's past rolls back
        assert feed.verdict().violations == [
            "surviving interval (2, 0, 2) is an orphan",
            "output o1 committed from orphan interval (2, 0, 2)"]

    def test_a_surviving_interval_that_never_released_a_send(self, n):
        feed = self.fed(n)
        feed.deliver(3, INTERVAL, K, INTERVAL, sends=3)
        feed.release(3, INTERVAL, "m0", k=n, seq=0)
        feed.release(3, INTERVAL, "m0", k=n, seq=0)   # a re-release
        feed.release(3, INTERVAL, "m2", k=n, seq=2)
        assert feed.verdict().violations == [
            "surviving interval (3, 0, 2) never released send(s) [1]"]
        feed.release(3, INTERVAL, "m1", k=n, seq=1)
        assert feed.verdict().ok

    def test_a_rolled_back_interval_owes_no_send(self, n):
        feed = self.fed(n)
        feed.deliver(3, INTERVAL, K, INTERVAL, sends=1)
        feed.recover(3, Entry(0, 1), Entry(1, 2))
        assert feed.verdict().ok

    def test_a_surviving_interval_that_never_committed_an_output(self, n):
        feed = self.fed(n)
        feed.deliver(3, INTERVAL, K, INTERVAL, sends=1, outputs=3)
        for pid in range(4):
            feed.stable(pid, INTERVAL)
        feed.release(3, INTERVAL, "m0", k=n)
        feed.commit(3, INTERVAL, "o0", seq=0)
        feed.commit(3, INTERVAL, "o2", seq=2)
        assert feed.verdict().violations == [
            "surviving interval (3, 0, 2) never committed output(s) [1]"]
        feed.commit(3, INTERVAL, "o1", seq=1)
        assert feed.verdict().ok

    def test_a_rolled_back_interval_owes_no_output(self, n):
        feed = self.fed(n)
        feed.deliver(3, INTERVAL, K, INTERVAL, outputs=2)
        feed.recover(3, Entry(0, 1), Entry(1, 2))
        assert feed.verdict().ok

    def test_hooks_reach_both_checks(self, n):
        # The executor's release and commit claims reach this feed's
        # checks: as its inline calls, or as its dep.* records.
        harness = build_sim(n=n, k=K, until=None, dep_trace=True)
        feed = (self.Feed(n, harness.certifier) if self.Feed is Calls
                else self.Feed(n))
        relay_chain(feed)
        beyond = make_msg(K, K + 1, n=n, send_interval=INTERVAL)
        harness.hosts[K].execute([
            ReleaseMessage(beyond),
            CommitOutput(OutputRecord(O1, K, None, INTERVAL))])
        if self.Feed is Records:
            feed.events += [ev(e.time, e.category, e.process, **e.data)
                            for e in harness.tracer.events
                            if e.category in ("dep.release", "dep.commit")]
        assert feed.verdict().violations == [
            f"Theorem 4 violated: {beyond.msg_id} released by P2 with "
            f"3 potential revokers [0, 1, 2] > K=2",
            f"output {O1} committed with live revokers [0, 1, 2]"]


class TestHarnessChecks(_CertifierSuite):
    """The suite through the typed calls of the harness's inline feed."""

    Feed = Calls

    def test_hooks_judge_nothing_without_check_invariants(self, n):
        harness = build_sim(n=n, k=K, until=None, check_invariants=False)
        relay_chain(Calls(n, harness.certifier))
        harness.hosts[K].execute([
            ReleaseMessage(make_msg(K, K + 1, n=n, send_interval=INTERVAL)),
            CommitOutput(OutputRecord(O1, K, None, INTERVAL))])
        assert harness.violations == []
        assert harness.committed_outputs    # the books are still kept

    def test_a_process_stable_only_at_checkpoint_owes_no_send(self, n):
        # Strom & Yemini record their own stability only at Checkpoint, so
        # a send may wait at quiescence on an interval the oracle knows is
        # stable; the harness exempts such processes (the post-hoc feed
        # judges every process).
        harness = build_sim(n=n, until=None, protocol=StromYeminiProcess)
        assert harness.certifier.checkpoint_only == set(range(n))
        harness.certifier.deliver(0, INTERVAL, -1, None, 1, 1)
        assert harness.certifier.finish().ok
        assert build_sim(n=n, until=None).certifier.checkpoint_only == set()

    def test_only_a_crash_excuses_a_journaled_commit(self, n):
        # A commit record made durable just before a crash cut the step
        # short of CommitOutput is the known open loss at the fsync
        # boundary: the inline feed excuses it at a process that crashed,
        # and nowhere else (the post-hoc feed excuses nothing).
        harness = build_sim(n=n, until=None)
        certifier = harness.certifier
        certifier.deliver(0, INTERVAL, -1, None, 0, 2)
        harness.hosts[0].protocol.storage.record_committed_output(
            OutputId(0, INTERVAL.inc, INTERVAL.sii, 1))
        lost = "surviving interval (0, 0, 2) never committed output(s)"
        assert certifier.finish().violations == [f"{lost} [0, 1]"]
        harness.hosts[0].crash()
        assert certifier.finish().violations == [f"{lost} [0]"]


class TestIngestChecks(_CertifierSuite):
    """The suite through the ``dep.*`` records of the post-hoc feed."""

    Feed = Records


class TestFinishTwice:
    """A run judged again at the end (``run()`` then ``settle()``) reports
    each end-of-run verdict once: the new batch replaces the old one, and
    the claims judged in between stay."""

    def test_the_second_batch_replaces_the_first(self):
        certifier = Certifier(4, K)
        certifier.commit(0, Entry(0, 1), "o1")
        certifier.commit(0, Entry(0, 1), "o1")
        assert certifier.finish().violations == [
            "output o1 committed more than once"]
        certifier.commit(0, Entry(0, 5), "o2")
        assert certifier.finish().violations == [
            "output o2 committed from unknown interval (0, 0, 5) at P0",
            "output o1 committed more than once"]

    @pytest.mark.parametrize("mutant", ["orphan_blind", "forgetful_piggyback"])
    def test_settling_a_run_again_repeats_no_verdict(self, mutant):
        harness = build_sim(
            n=4, k=1, seed=0, rate=0.6, until=150.0,
            failures=FailureSchedule([CrashEvent(60.0, 1),
                                      CrashEvent(90.0, 2)]),
            protocol=MUTANTS[mutant])
        harness.run(200.0)
        verdicts = list(harness.violations)
        assert verdicts                    # the mutant is caught
        # The mutant never quiesces, so settling again may find more.
        harness.settle()
        assert set(verdicts) <= set(harness.violations)
        assert len(set(harness.violations)) == len(harness.violations)
        harness.close()
