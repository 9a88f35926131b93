"""Unit tests for post-hoc trace certification (repro.oracle.ingest).

Synthetic ``dep.*`` streams exercise each check in isolation: a clean
run, a Theorem-4 violation, an orphan commit, out-of-order delivery
edges (the timestamp-tie deferral), and damaged trace files.
"""

import json

from repro.oracle.ingest import (
    certify_events,
    certify_traces,
    load_trace_events,
)


def ev(time, category, pid, **data):
    return {"time": time, "category": category, "process": pid, "data": data}


def deliver(time, pid, inc, sii, src=-1, src_inc=None, src_sii=None):
    data = {"inc": inc, "sii": sii, "src": src}
    if src_inc is not None:
        data["src_inc"] = src_inc
        data["src_sii"] = src_sii
    return ev(time, "dep.deliver", pid, **data)


class TestCleanRuns:
    def test_empty_stream_is_clean(self):
        cert = certify_events([], n=3, k=1)
        assert cert.ok
        assert cert.committed == []

    def test_stable_chain_commit_is_clean(self):
        events = [
            deliver(1.0, 0, 0, 2),                       # external stimulus
            ev(2.0, "dep.release", 0, inc=0, sii=2, msg="m1", replayed=False),
            deliver(3.0, 1, 0, 2, src=0, src_inc=0, src_sii=2),
            ev(4.0, "dep.stable", 0, inc=0, sii=2),      # sender flushed
            ev(5.0, "dep.stable", 1, inc=0, sii=2),      # receiver flushed
            ev(6.0, "dep.commit", 1, inc=0, sii=2, output="o1",
               payload={"tag": "t1"}),
        ]
        cert = certify_events(events, n=2, k=1)
        assert cert.ok, cert.violations
        assert cert.committed == [{"tag": "t1"}]
        assert cert.counts["deliveries"] == 2

    def test_k_bound_release_within_k_is_clean(self):
        # One non-stable predecessor (the sender itself): fine for K=1.
        events = [
            deliver(1.0, 0, 0, 2),
            ev(2.0, "dep.release", 0, inc=0, sii=2, msg="m1", replayed=False),
        ]
        assert certify_events(events, n=2, k=1).ok


class TestViolations:
    def test_theorem4_violation_detected(self):
        # P0 and P1 both non-stable in the causal past, released with K=1.
        events = [
            deliver(1.0, 0, 0, 2),
            ev(2.0, "dep.release", 0, inc=0, sii=2, msg="m1", replayed=False),
            deliver(3.0, 1, 0, 2, src=0, src_inc=0, src_sii=2),
            ev(4.0, "dep.release", 1, inc=0, sii=2, msg="m2", replayed=False),
        ]
        cert = certify_events(events, n=3, k=1)
        assert not cert.ok
        assert any("Theorem 4" in v for v in cert.violations)
        # The same stream is clean for K=2.
        assert certify_events(events, n=3, k=2).ok

    def test_replayed_release_skips_the_bound(self):
        events = [
            deliver(1.0, 0, 0, 2),
            deliver(2.0, 0, 0, 3),
            ev(3.0, "dep.release", 0, inc=0, sii=3, msg="m1", replayed=True),
        ]
        assert certify_events(events, n=2, k=0).ok

    def test_commit_with_live_revokers_detected(self):
        events = [
            deliver(1.0, 0, 0, 2),
            ev(2.0, "dep.commit", 0, inc=0, sii=2, output="o1",
               payload={"tag": "t1"}),   # nothing stable yet
        ]
        cert = certify_events(events, n=2, k=1)
        assert any("live revokers" in v for v in cert.violations)

    def test_orphan_commit_detected(self):
        # P1's interval depends on P0's (0,2); P0 then fails back to (0,1)
        # and P1 neither rolls back nor avoids committing: orphan output
        # plus an inconsistent final state.
        events = [
            deliver(1.0, 0, 0, 2),
            deliver(2.0, 1, 0, 2, src=0, src_inc=0, src_sii=2),
            ev(3.0, "dep.recover", 0, s_inc=0, s_sii=1, n_inc=1, n_sii=2),
            ev(4.0, "dep.stable", 1, inc=0, sii=2),
            ev(5.0, "dep.commit", 1, inc=0, sii=2, output="o1",
               payload={"tag": "t1"}),
        ]
        cert = certify_events(events, n=2, k=2)
        assert any("orphan interval" in v for v in cert.violations)
        assert any("orphan" in v for v in cert.violations[-1:])  # consistency

    def test_rollback_then_clean_state_passes(self):
        # Same failure, but P1 rolls its orphan back: consistent again.
        events = [
            deliver(1.0, 0, 0, 2),
            deliver(2.0, 1, 0, 2, src=0, src_inc=0, src_sii=2),
            ev(3.0, "dep.recover", 0, s_inc=0, s_sii=1, n_inc=1, n_sii=2),
            ev(4.0, "dep.recover", 1, s_inc=0, s_sii=1, n_inc=1, n_sii=2),
        ]
        cert = certify_events(events, n=2, k=2)
        assert cert.ok, cert.violations


class TestDeferral:
    def test_tied_timestamps_defer_until_sender_registered(self):
        # The receiver's deliver sorts before the sender's (same stamp,
        # earlier file): the edge must still be recorded — prove it is by
        # catching the orphan it transmits.
        events = [
            deliver(1.0, 1, 0, 2, src=0, src_inc=0, src_sii=2),  # early tie
            deliver(1.0, 0, 0, 2),
            ev(2.0, "dep.recover", 0, s_inc=0, s_sii=1, n_inc=1, n_sii=2),
        ]
        cert = certify_events(events, n=2, k=2)
        assert cert.counts["deferred"] == 1
        assert cert.counts["deliveries"] == 2
        assert any("orphan" in v for v in cert.violations)

    def test_unresolvable_sender_interval_is_a_violation(self):
        events = [deliver(1.0, 1, 0, 2, src=0, src_inc=0, src_sii=9)]
        cert = certify_events(events, n=2, k=2)
        assert any("never appeared" in v for v in cert.violations)


class TestTraceFiles:
    def test_merge_sorts_by_time_and_skips_torn_tail(self, tmp_path):
        a = tmp_path / "p000.jsonl"
        b = tmp_path / "p001.jsonl"
        a.write_text(
            json.dumps(deliver(1.0, 0, 0, 2)) + "\n"
            + json.dumps(ev(4.0, "dep.stable", 0, inc=0, sii=2)) + "\n"
            + '{"time": 9.9, "category": "dep.sta'  # SIGKILL mid-write
        )
        b.write_text(
            json.dumps(deliver(3.0, 1, 0, 2, src=0, src_inc=0, src_sii=2))
            + "\n"
            + json.dumps(ev(5.0, "dep.stable", 1, inc=0, sii=2)) + "\n"
            + json.dumps(ev(6.0, "dep.commit", 1, inc=0, sii=2, output="o1",
                            payload={"tag": "t9"})) + "\n"
        )
        cert = certify_traces([str(a), str(b)], n=2, k=1)
        assert cert.ok, cert.violations
        assert cert.committed == [{"tag": "t9"}]
        assert cert.counts["skipped_lines"] == 1

    def test_an_unparsable_line_inside_a_trace_is_a_violation(self, tmp_path):
        path = tmp_path / "p000.jsonl"
        path.write_text(
            json.dumps(deliver(1.0, 0, 0, 2)) + "\n"
            + "garbage, not a record\n"
            + json.dumps(ev(4.0, "dep.stable", 0, inc=0, sii=2)) + "\n"
            + '{"time": 5.0, "category": "dep.sta\n'  # complete, yet cut
        )
        cert = certify_traces([str(path)], n=1, k=1)
        assert cert.violations == [f"unparsable trace line {path}:2",
                                   f"unparsable trace line {path}:4"]
        assert cert.counts["skipped_lines"] == 0

    def test_non_dep_categories_are_ignored(self, tmp_path):
        path = tmp_path / "p000.jsonl"
        path.write_text(
            json.dumps(ev(1.0, "msg.release", 0, msg="x")) + "\n"
            + json.dumps(ev(2.0, "worker.start", 0)) + "\n"
        )
        cert = certify_traces([str(path)], n=1, k=1)
        assert cert.ok

    def test_invalid_process_id_is_a_violation(self):
        cert = certify_events([deliver(1.0, 7, 0, 2)], n=2, k=1)
        assert any("invalid process" in v for v in cert.violations)
