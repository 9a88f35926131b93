"""The oracle's stable frontier against the scans it replaced.

``potential_revokers`` used to re-derive, on every release and commit
and for every process in the node's causal vector, the first non-stable
node of that process's live chain by walking the chain.  That walk lives
on here, in the test tree only, as the first reference; the explicit
``causal_past`` traversal (Theorem 4's quantity by definition) is the
second.  Hypothesis drives one oracle through random scripts of starts,
deliveries, stability marks and recoveries and requires, after **every**
operation, that the cached frontier equals the walk for every process
and that ``potential_revokers`` equals both references for every
interval created so far — in the list and numpy representations of the
causal vector.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import columnar
from repro.core.entry import Entry
from repro.oracle.graph import _ALL_STABLE, DependencyOracle

# -- the references: walk every chain, traverse every past ---------------------


def first_non_stable_seq(oracle, pid):
    """Creation seq of ``pid``'s first non-stable live-chain node, by a
    walk of the whole chain (nothing cached, nothing assumed)."""
    for iid in oracle.live_chain(pid):
        if not oracle.node(iid).stable:
            return oracle._seq_of[iid]
    return None


def revokers_by_scan(oracle, iid):
    """The pre-frontier ``potential_revokers``: per process in the causal
    vector, compare its reach with the walked first non-stable seq."""
    vec = oracle._vec[iid]
    revokers = set()
    for j in range(oracle.n):
        reach = int(vec[j])
        first = first_non_stable_seq(oracle, j)
        if reach and first is not None and first <= reach:
            revokers.add(j)
    return revokers


def revokers_by_traversal(oracle, iid):
    """Theorem 4's quantity by definition: owners of non-stable,
    non-rolled-back intervals in the causal past."""
    return {u[0] for u in oracle.causal_past(iid)
            if not oracle.node(u).stable and not oracle.node(u).rolled_back}


# -- one oracle per representation ---------------------------------------------


def build_oracle(n, rep):
    """An oracle whose causal-vector representation is picked by n
    ("auto"), or forced to "list" at any n (the oracle reads the
    threshold once, at construction)."""
    saved = columnar.NP_MIN_N
    if rep == "list":
        columnar.NP_MIN_N = 1 << 30
    try:
        oracle = DependencyOracle(n)
    finally:
        columnar.NP_MIN_N = saved
    if rep == "list":
        assert not oracle._use_np
    return oracle


# -- random scripts ------------------------------------------------------------

# Every operation is a tuple of small integers, interpreted against the
# state the script has built so far (so shrinking keeps scripts valid).
OPERATION = st.one_of(
    st.tuples(st.just("start"), st.integers(0, 99)),
    # (pid, sender choice, sender-interval choice); every fourth sender
    # choice is the outside world, and an interval choice can name a
    # rolled-back or a never-recorded interval.
    st.tuples(st.just("deliver"), st.integers(0, 99), st.integers(0, 99),
              st.integers(0, 99)),
    # (pid, through: offset from the chain tip, -9 … +3 — stale, repeated
    # and beyond the tip)
    st.tuples(st.just("stable"), st.integers(0, 99), st.integers(-9, 3)),
    # (pid, survivor: how many intervals back from the tip, 0 … 9 — below
    # the stable prefix, down to an emptied chain)
    st.tuples(st.just("recover"), st.integers(0, 99), st.integers(0, 9)),
)


class Script:
    """Applies operations to one oracle, keeping intervals well formed:
    per process, interval indices strictly increase along the live chain
    and every recovery starts a new incarnation."""

    def __init__(self, oracle, pids):
        self.oracle = oracle
        self.pids = pids
        self.inc = {pid: 0 for pid in pids}
        self.created = []

    def tip_sii(self, pid):
        tip = self.oracle.live_interval(pid)
        return tip[2] if tip else 0

    def apply(self, op):
        kind, who, *args = op
        pid = self.pids[who % len(self.pids)]
        oracle = self.oracle
        if kind == "start":
            if any(iid[0] == pid for iid in self.created):
                return  # a start is only ever a process's first event
            oracle.start_process(pid)
            self.created.append((pid, 0, 1))
        elif kind == "deliver":
            sender_choice, interval_choice = args
            sender = sender_interval = None
            if sender_choice % 4:
                sender = self.pids[sender_choice // 4 % len(self.pids)]
                theirs = [iid for iid in self.created if iid[0] == sender]
                if theirs and interval_choice % 8:
                    _, inc, sii = theirs[interval_choice % len(theirs)]
                    sender_interval = Entry(inc, sii)
                else:
                    sender_interval = Entry(7, 90 + interval_choice)
            interval = Entry(self.inc[pid], self.tip_sii(pid) + 1)
            oracle.record_delivery(pid, interval, sender, sender_interval)
            self.created.append((pid, interval.inc, interval.sii))
        elif kind == "stable":
            (offset,) = args
            oracle.mark_stable(
                pid, Entry(self.inc[pid], max(0, self.tip_sii(pid) + offset)))
        else:
            (back,) = args
            survivor = max(0, self.tip_sii(pid) - back)
            self.inc[pid] += 1
            new_current = Entry(self.inc[pid], survivor + 1)
            oracle.record_recovery(pid, Entry(self.inc[pid] - 1, survivor),
                                   new_current)
            self.created.append((pid, new_current.inc, new_current.sii))


def assert_frontier_exact(script):
    oracle = script.oracle
    for pid in range(oracle.n):
        first = first_non_stable_seq(oracle, pid)
        assert int(oracle._frontier[pid]) == (
            _ALL_STABLE if first is None else first), f"frontier of P{pid}"
    for iid in script.created:
        got = oracle.potential_revokers(iid)
        assert got == revokers_by_scan(oracle, iid), iid
        assert got == revokers_by_traversal(oracle, iid), iid
        assert all(type(j) is int for j in got)


def pids_for(n):
    """A handful of active processes spread over the vector's width (the
    script stays small while the vectors stay n wide)."""
    return sorted({0, 1, 2, n // 2, n - 1})


@pytest.mark.parametrize("n,rep", [
    (3, "auto"), (16, "auto"), (64, "auto"), (70, "auto"),
    (64, "list"),
])
@settings(deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(OPERATION, min_size=1, max_size=30))
def test_frontier_matches_both_references_after_every_operation(n, rep, ops):
    script = Script(build_oracle(n, rep), pids_for(n))
    for op in ops:
        script.apply(op)
        assert_frontier_exact(script)


def test_auto_picks_list_below_64_and_numpy_from_64():
    """The parametrization above only means something if "auto" really
    picks the list form below 64 and numpy at and above it."""
    assert not build_oracle(16, "auto")._use_np
    if columnar.numpy_module() is not None:
        assert build_oracle(64, "auto")._use_np
        assert build_oracle(70, "auto")._use_np


class TestHandPickedSchedules:
    """The corners a stale frontier would hide in, as fixed scripts on
    every representation, so a mutant dies here even on an unlucky seed."""

    REPS = [(16, "auto"), (64, "auto"), (64, "list")]

    @pytest.mark.parametrize("n,rep", REPS)
    def test_recovery_below_the_stable_prefix(self, n, rep):
        script = Script(build_oracle(n, rep), [0, 1])
        for op in [("start", 0), ("start", 1),
                   ("deliver", 0, 0, 0), ("deliver", 0, 0, 0),
                   ("deliver", 1, 1, 2),           # P1 depends on P0's tip
                   ("stable", 0, 0),               # P0 all stable
                   ("recover", 0, 2),              # back under the prefix
                   ("stable", 0, 0), ("deliver", 0, 0, 0)]:
            script.apply(op)
            assert_frontier_exact(script)

    @pytest.mark.parametrize("n,rep", REPS)
    def test_two_recoveries_back_to_back_down_to_an_empty_chain(self, n, rep):
        script = Script(build_oracle(n, rep), [0, 1])
        for op in [("start", 0), ("deliver", 0, 0, 0), ("stable", 0, 0),
                   ("recover", 0, 9),              # survivor 0: chain emptied
                   ("recover", 0, 9),              # and again, straight away
                   ("deliver", 1, 4, 1),           # never-started receiver
                   ("recover", 1, 0), ("stable", 1, 3), ("stable", 1, -9)]:
            script.apply(op)
            assert_frontier_exact(script)
