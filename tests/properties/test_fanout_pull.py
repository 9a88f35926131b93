"""Fanout-mode pull against broadcast push: the same outputs, once each.

How logging progress travels — pushed to everyone, or pulled from the
owners a process waits on — decides *when* an output commits, never
*whether*.  Hypothesis draws failure-free runs; the fanout run and the
broadcast run of the same inputs must both commit every output-emitting
token exactly once and leave nothing pending or held.

Output *ids* name the interval that produced them, and interval numbering
follows delivery order, which a held send (K < N) or a piggyback-sized
transmission delay makes depend on how fast stability spreads.  With
K = N and no per-entry latency the application-level execution is the
same whichever way progress travels, so there the id sets are compared
too.

A process waiting on m owners has asked them all after ceil(m / fanout)
ticks, so the runs leave a tail of ten ticks behind the last injection:
enough for n - 1 owners at fanout 1 with own-row answers.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.workloads.openloop import OpenLoopWorkload

from helpers import build_sim

DURATION = 200.0


def committed(n, seed, k, fanout, gossip, **config):
    harness = build_sim(
        n=n, k=k, seed=seed, notify_fanout=fanout, gossip_log_tables=gossip,
        workload=OpenLoopWorkload(rate=0.5, min_hops=1, max_hops=4,
                                  output_fraction=0.6),
        until=DURATION * 0.5, notify_interval=10.0, flush_interval=15.0,
        trace_enabled=False, **config)
    try:
        harness.run(DURATION)
        assert harness.metrics().violations == []
        assert not any(len(host.protocol.output_buffer)
                       or host.protocol.send_buffer for host in harness.hosts)
        records = [record for _time, record in harness.committed_outputs]
        return (Counter(record.output_id for record in records),
                Counter(record.payload["token"] for record in records))
    finally:
        harness.close()


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 16), n=st.integers(3, 9),
       k=st.one_of(st.none(), st.integers(0, 4)),
       fanout=st.integers(1, 4), gossip=st.booleans())
def test_pull_and_broadcast_commit_the_same_outputs_exactly_once(
        seed, n, k, fanout, gossip):
    ids, tokens = committed(n, seed, k, fanout, gossip)
    broadcast_ids, broadcast_tokens = committed(n, seed, k, None, gossip)
    assert tokens and set(tokens.values()) == {1}
    assert tokens == broadcast_tokens
    assert set(ids.values()) == {1} and len(ids) == len(broadcast_ids)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 16), n=st.integers(3, 9),
       fanout=st.integers(1, 4), gossip=st.booleans())
def test_same_output_ids_when_dissemination_cannot_reorder_deliveries(
        seed, n, fanout, gossip):
    ids, _tokens = committed(n, seed, None, fanout, gossip,
                             per_entry_latency=0.0)
    broadcast_ids, _tokens = committed(n, seed, None, None, gossip,
                                       per_entry_latency=0.0)
    assert ids and set(ids.values()) == {1}
    assert ids == broadcast_ids
