"""Oracle edge cases: corrupted graphs, stability/recovery interleavings,
and the read-only introspection surface the checker's probes rely on."""

from repro.core.entry import Entry
from repro.oracle.graph import DependencyOracle

from helpers import causal_past

from test_oracle import oracle_with_chain


def cross_dependency_oracle():
    """P1's interval 2 depends on P0's interval 2 (the canonical orphan
    candidate shape)."""
    oracle = DependencyOracle(2)
    oracle.start_process(0)
    oracle.start_process(1)
    oracle.record_delivery(0, Entry(0, 2), None, None)
    oracle.record_delivery(1, Entry(0, 2), 0, Entry(0, 2))
    return oracle


class TestCorruptedGraphs:
    """check_consistency on graphs that a correct simulation can never
    produce — it must still report coherently rather than crash or stay
    silent."""

    def test_rolled_back_node_left_on_live_chain(self):
        oracle = oracle_with_chain(deliveries=2)
        # Corrupt: mark rolled back without truncating the chain (a
        # record_recovery bug would look like this).
        oracle.node((0, 0, 3)).rolled_back = True
        assert oracle.check_consistency() == [
            "live chain of P0 contains rolled-back (0, 0, 3)"]

    def test_corruption_downstream_counts_as_orphan(self):
        oracle = cross_dependency_oracle()
        oracle.node((0, 0, 2)).rolled_back = True
        del oracle._chains[0][1:]  # truncate P0's chain "properly"
        # P1 still survives on an orphaned interval, and nothing else is
        # wrong.
        assert oracle.is_orphan((1, 0, 2))
        assert oracle.check_consistency() == [
            "surviving interval (1, 0, 2) is an orphan"]

    def test_stable_flag_written_behind_the_oracle_moves_the_frontier(self):
        # The twin of the rolled-back cases above for the other guarded
        # flag: the Theorem 4 check reads a cached stable frontier, and a
        # direct write must not leave it describing the old graph.
        oracle = cross_dependency_oracle()
        assert oracle.potential_revokers((1, 0, 2)) == {0, 1}
        oracle.node((0, 0, 2)).stable = True
        assert oracle.potential_revokers((1, 0, 2)) == {1}
        assert (0, 0, 2) not in oracle.non_stable_intervals()
        oracle.node((0, 0, 2)).stable = False
        assert oracle.potential_revokers((1, 0, 2)) == {0, 1}
        # The oracle's own bookkeeping still lands on the same node.
        oracle.mark_stable(0, Entry(0, 2))
        assert oracle.potential_revokers((1, 0, 2)) == {1}

    def test_stable_flags_that_are_not_a_prefix(self):
        # Corrupt: a stable node *behind* a non-stable one (no flush can
        # produce this).  The frontier is the first non-stable node, and
        # mark_stable skips over the island instead of stopping on it.
        oracle = oracle_with_chain(deliveries=3)
        tip = (0, 0, 4)
        oracle.node((0, 0, 3)).stable = True
        assert oracle.potential_revokers(tip) == {0}
        oracle.mark_stable(0, Entry(0, 2))
        assert oracle.potential_revokers(tip) == {0}    # (0, 0, 4) is left
        oracle.node(tip).stable = True
        assert oracle.potential_revokers(tip) == set()
        oracle.node((0, 0, 2)).stable = False           # un-stabilise below
        assert oracle.potential_revokers(tip) == {0}
        assert oracle.potential_revokers((0, 0, 1)) == set()

    def test_dangling_predecessor_is_tolerated(self):
        oracle = oracle_with_chain(deliveries=1)
        # Corrupt: a predecessor that was never recorded.
        oracle.node((0, 0, 2)).preds.append((1, 7, 7))
        past = causal_past(oracle, (0, 0, 2))
        assert (1, 7, 7) not in past  # unknown nodes are skipped, not fatal
        assert oracle.check_consistency() == []

    def test_empty_chain_process(self):
        oracle = DependencyOracle(2)
        oracle.start_process(0)  # P1 never started
        assert oracle.live_interval(1) is None
        assert oracle.live_chain(1) == ()
        assert oracle.check_consistency() == []


class TestStabilityRecoveryInterleavings:
    """potential_revokers across mark_stable / record_recovery orders."""

    def test_stabilize_then_roll_back_past_the_stable_point(self):
        oracle = cross_dependency_oracle()
        oracle.mark_stable(0, Entry(0, 2))
        assert oracle.potential_revokers((1, 0, 2)) == {1}
        # P0 nevertheless rolls back below its stabilized index (a failed
        # incarnation's announcement can sit under gossiped progress).
        oracle.record_recovery(0, Entry(0, 1), Entry(1, 2))
        # The rolled-back interval is neither stable-revoker nor live;
        # P1's interval is now an orphan instead.
        assert oracle.potential_revokers((1, 0, 2)) == {1}
        assert oracle.is_orphan((1, 0, 2))

    def test_roll_back_then_stabilize_survivor_prefix(self):
        oracle = oracle_with_chain(deliveries=3)
        oracle.record_recovery(0, Entry(0, 2), Entry(1, 3))
        oracle.mark_stable(0, Entry(1, 2))
        # Stability marks live-chain nodes up to sii 2; the new
        # incarnation's head (sii 3) stays volatile.
        assert oracle.node((0, 0, 2)).stable
        assert not oracle.node((0, 1, 3)).stable
        assert oracle.potential_revokers((0, 1, 3)) == {0}

    def test_mark_stable_does_not_resurrect_rolled_back_intervals(self):
        oracle = oracle_with_chain(deliveries=3)
        oracle.record_recovery(0, Entry(0, 2), Entry(1, 3))
        oracle.mark_stable(0, Entry(1, 4))
        # (0,0,3)/(0,0,4) were rolled off the chain before the mark;
        # stability walks the live chain only.
        assert not oracle.node((0, 0, 3)).stable
        assert oracle.node((0, 0, 3)).rolled_back
        assert (0, 0, 3) not in oracle.non_stable_intervals()

    def test_revokers_after_double_recovery(self):
        oracle = cross_dependency_oracle()
        oracle.record_recovery(0, Entry(0, 1), Entry(1, 2))
        oracle.record_recovery(1, Entry(0, 1), Entry(1, 2))
        assert oracle.check_consistency() == []
        assert oracle.potential_revokers((1, 1, 2)) == {1}
        oracle.mark_stable(1, Entry(1, 2))
        assert oracle.potential_revokers((1, 1, 2)) == set()


class TestIntrospectionAccessors:
    def test_live_chain_is_a_snapshot(self):
        oracle = oracle_with_chain(deliveries=2)
        chain = oracle.live_chain(0)
        assert chain == ((0, 0, 1), (0, 0, 2), (0, 0, 3))
        oracle.record_delivery(0, Entry(0, 4), None, None)
        assert chain == ((0, 0, 1), (0, 0, 2), (0, 0, 3))  # unchanged

    def test_non_stable_intervals_excludes_stable_and_rolled_back(self):
        oracle = oracle_with_chain(deliveries=3)
        oracle.mark_stable(0, Entry(0, 2))
        oracle.record_recovery(0, Entry(0, 3), Entry(1, 4))
        non_stable = set(oracle.non_stable_intervals())
        assert (0, 0, 3) in non_stable      # survived, volatile
        assert (0, 1, 4) in non_stable      # new incarnation head
        assert (0, 0, 2) not in non_stable  # stable
        assert (0, 0, 4) not in non_stable  # rolled back

    def test_orphan_intervals_transient_then_clean(self):
        oracle = cross_dependency_oracle()
        oracle.record_recovery(0, Entry(0, 1), Entry(1, 2))
        # Mid-"announcement": P1 still lives on an orphan.
        assert oracle.orphan_intervals() == [(1, 0, 2)]
        oracle.record_recovery(1, Entry(0, 1), Entry(1, 2))
        assert oracle.orphan_intervals() == []
