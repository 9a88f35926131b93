"""Receive_log over a batch equals Receive_log over its notifications one
by one.

The runtime hands every notification that lands at one instant to a
single :meth:`~repro.core.protocol.KOptimisticProcess.on_log_notifications`
call (``ProcessHost._drain_notifications``), and the shared timer slots
make such batches the rule from n = 17 on.  Hypothesis builds a process
with dependencies, held sends and pending outputs twice, then applies m
snapshots to one as one call and to the other as m single calls: both must
end in the same state and must have released and committed the same
things — the table merge is a monotone maximum, and each scan judges the
merged table.  The order of the releases may differ; their sets may not.

n = 5 runs on list columns and n = 64 on numpy (lists everywhere under
``REPRO_NO_NUMPY=1``).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.app.behavior import EchoBehavior
from repro.core.effects import CommitOutput, ReleaseMessage
from repro.core.entry import Entry
from helpers import log_notification, make_announcement, make_msg, make_proc

MAX_SII = 8


@st.composite
def batch_case(draw, n):
    """(build, snapshots): ``build()`` makes a fresh P0 holding sends and
    outputs on the dependencies its deliveries brought; m >= 2
    notifications."""
    pids = st.integers(1, n - 1)
    k = draw(st.integers(0, 3))
    # One incarnation per process throughout, so no delivery waits on
    # the stability of another incarnation (the receive buffer stays
    # empty and both sides deliver nothing).
    # P0 itself never crashed.
    incs = [0] + draw(st.lists(st.integers(0, 2), min_size=n - 1,
                               max_size=n - 1))
    # Announcements of earlier incarnations fill the iet without making
    # anything below an orphan.
    announcements = [(pid, incs[pid] - 1, draw(st.integers(1, MAX_SII)))
                     for pid in draw(st.lists(pids, max_size=3, unique=True))
                     if incs[pid] > 0]
    receives = []
    for _ in range(draw(st.integers(1, 6))):
        sender = draw(pids)
        deps = draw(st.dictionaries(pids, st.integers(1, MAX_SII),
                                    max_size=4))
        deps.setdefault(sender, draw(st.integers(1, MAX_SII)))
        payload = {"forward_to": draw(pids)}
        if draw(st.booleans()):
            payload["output"] = "out"
        entries = {pid: Entry(incs[pid], sii) for pid, sii in deps.items()}
        receives.append((sender, entries, payload))
    flush = draw(st.booleans())

    def build():
        # Built twice rather than deep-copied: numpy-backed tables hold
        # memoryviews, which do not copy.
        proc = make_proc(0, n=n, k=k, behavior=EchoBehavior())
        for pid, inc, sii in announcements:
            proc.on_failure_announcement(make_announcement(pid, inc, sii))
        for seq, (sender, entries, payload) in enumerate(receives):
            proc.on_receive(make_msg(sender, 0, n=n, payload=dict(payload),
                                     entries=entries, seq=seq))
        if flush:
            proc.flush()
        return proc

    # Mostly about the processes P0 depends on, so that snapshots
    # release and commit.
    known = sorted({0}.union(*(entries for _s, entries, _p in receives)))
    rows_of = st.one_of(st.sampled_from(known), st.integers(0, n - 1))
    snapshots = []
    for _ in range(draw(st.integers(2, 6))):
        rows = [{} for _ in range(n)]
        for pid, sii in draw(st.dictionaries(rows_of,
                                             st.integers(1, MAX_SII)
                                             | st.just(MAX_SII),
                                             min_size=1, max_size=5)).items():
            inc = (incs[pid] if draw(st.integers(0, 3))
                   else draw(st.integers(0, 2)))
            rows[pid][inc] = sii
        snapshots.append(log_notification(draw(pids), rows))
    return build, snapshots


def state(proc):
    n = proc.n
    return {
        "tdv": proc.tdv.as_dict(),
        "log": proc.log.snapshot_columns().rows(),
        "iet": [sorted(proc.iet.entries(pid)) for pid in range(n)],
        "send_buffer": [msg.msg_id for msg in proc.send_buffer],
        "output_buffer": [pending.record.output_id
                          for pending in proc.output_buffer.pending],
        "receive_buffer": [msg.msg_id for msg in proc.receive_buffer],
    }


def released(effects):
    return {e.message.msg_id for e in effects
            if isinstance(e, ReleaseMessage)}


def committed(effects):
    return {e.record.output_id for e in effects if isinstance(e, CommitOutput)}


@pytest.mark.parametrize("n", [5, 64])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_one_batch_equals_its_notifications_one_by_one(n, data):
    build, snapshots = data.draw(batch_case(n))
    batched, single = build(), build()
    assert state(batched) == state(single)
    batch_effects = batched.on_log_notifications(snapshots)
    single_effects = []
    for snapshot in snapshots:
        single_effects += single.on_log_notifications([snapshot])
    assert state(batched) == state(single)
    assert released(batch_effects) == released(single_effects)
    assert committed(batch_effects) == committed(single_effects)
