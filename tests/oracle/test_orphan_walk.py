"""The oracle's incremental orphan walk against a from-scratch one.

``DependencyOracle._orphans`` keeps the orphans created before the
earliest node a rollback marked and resumes its walk there.  Hypothesis
drives random delivery, stability and recovery sequences and requires,
after every step, the set a walk over every node from the first would
give (Definition 1: some rolled-back interval in the causal past).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entry import Entry
from repro.oracle.graph import DependencyOracle

from helpers import causal_past

N = 3


def from_scratch(oracle):
    return {iid for iid in oracle._creation_order
            if any(oracle.node(p).rolled_back
                   for p in causal_past(oracle, iid))}


def steps():
    pid = st.integers(0, N - 1)
    return st.lists(st.one_of(
        st.tuples(st.just("deliver"), pid, st.one_of(st.none(), pid),
                  st.integers(0, 1000)),
        st.tuples(st.just("stable"), pid, st.integers(0, 1000)),
        st.tuples(st.just("recover"), pid, st.integers(0, 1000)),
        st.tuples(st.just("query"),),
    ), max_size=40)


@settings(max_examples=300, deadline=None)
@given(steps())
def test_incremental_orphans_equal_a_walk_from_the_first_node(ops):
    oracle = DependencyOracle(N)
    current = {}
    for pid in range(N):
        oracle.start_process(pid)
        current[pid] = Entry(0, 1)
    created = [[(pid, 0, 1)] for pid in range(N)]  # every node, by owner
    for op in ops:
        kind = op[0]
        if kind == "deliver":
            _, pid, sender, pick = op
            at = current[pid].next_interval()
            if sender is None or sender == pid:
                oracle.record_delivery(pid, at, None, None)
            else:
                # Any interval the sender ever had, rolled back or not: a
                # message from a lost interval is how orphans arise.
                _s, inc, sii = created[sender][pick % len(created[sender])]
                oracle.record_delivery(pid, at, sender, Entry(inc, sii))
            current[pid] = at
            created[pid].append((pid, at.inc, at.sii))
        elif kind == "stable":
            _, pid, pick = op
            chain = oracle.live_chain(pid)
            _p, inc, sii = chain[pick % len(chain)]
            oracle.mark_stable(pid, Entry(inc, sii))
        elif kind == "recover":
            _, pid, pick = op
            chain = oracle.live_chain(pid)
            _p, inc, sii = chain[pick % len(chain)]
            new = Entry(current[pid].inc + 1, sii + 1)
            oracle.record_recovery(pid, Entry(inc, sii), new)
            current[pid] = new
            created[pid].append((pid, new.inc, new.sii))
        else:
            assert set(oracle._orphans()) == from_scratch(oracle)
    assert set(oracle._orphans()) == from_scratch(oracle)


def test_unmarking_rebuilds_from_the_first_node():
    oracle = DependencyOracle(2)
    oracle.start_process(0)
    oracle.start_process(1)
    oracle.record_delivery(0, Entry(0, 2), None, None)
    oracle.record_delivery(1, Entry(0, 2), 0, Entry(0, 2))
    oracle.node((0, 0, 2)).rolled_back = True
    oracle.node((0, 0, 1)).rolled_back = True
    assert set(oracle._orphans()) == {(0, 0, 1), (0, 0, 2), (1, 0, 2)}
    oracle.node((0, 0, 1)).rolled_back = False
    assert set(oracle._orphans()) == {(0, 0, 2), (1, 0, 2)}
    oracle.node((0, 0, 2)).rolled_back = False
    assert set(oracle._orphans()) == set()
