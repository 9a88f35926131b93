"""Unit tests for the ground-truth dependency oracle."""

from repro.core.entry import Entry
from repro.oracle.graph import DependencyOracle

from helpers import causal_past


def oracle_with_chain(n=3, deliveries=3, pid=0):
    """An oracle where ``pid`` delivered ``deliveries`` env messages."""
    oracle = DependencyOracle(n)
    for p in range(n):
        oracle.start_process(p)
    for i in range(deliveries):
        oracle.record_delivery(pid, Entry(0, i + 2), None, None)
    return oracle


class TestConstruction:
    def test_start_process_creates_stable_root(self):
        oracle = DependencyOracle(2)
        oracle.start_process(0)
        node = oracle.node((0, 0, 1))
        assert node.stable
        assert not node.rolled_back

    def test_program_order_edges(self):
        oracle = oracle_with_chain(deliveries=2)
        assert oracle.node((0, 0, 3)).preds == [(0, 0, 2)]
        assert oracle.node((0, 0, 2)).preds == [(0, 0, 1)]

    def test_delivery_edge_from_sender(self):
        oracle = DependencyOracle(2)
        oracle.start_process(0)
        oracle.start_process(1)
        oracle.record_delivery(1, Entry(0, 2), sender=0, sender_interval=Entry(0, 1))
        assert (0, 0, 1) in oracle.node((1, 0, 2)).preds

    def test_environment_messages_have_no_sender_edge(self):
        oracle = DependencyOracle(2)
        oracle.start_process(0)
        oracle.record_delivery(0, Entry(0, 2), sender=-1, sender_interval=None)
        assert oracle.node((0, 0, 2)).preds == [(0, 0, 1)]


class TestCausalPast:
    def test_includes_self_and_transitive_closure(self):
        oracle = DependencyOracle(3)
        for p in range(3):
            oracle.start_process(p)
        oracle.record_delivery(1, Entry(0, 2), 0, Entry(0, 1))
        oracle.record_delivery(2, Entry(0, 2), 1, Entry(0, 2))
        past = causal_past(oracle, (2, 0, 2))
        assert (2, 0, 2) in past
        assert (1, 0, 2) in past
        assert (0, 0, 1) in past
        assert (1, 0, 1) in past  # via program order at P1

    def test_unrelated_interval_excluded(self):
        oracle = oracle_with_chain(n=3)
        oracle.record_delivery(1, Entry(0, 2), None, None)
        assert (1, 0, 2) not in causal_past(oracle, (0, 0, 2))


class TestRecovery:
    def test_record_recovery_truncates_chain(self):
        oracle = oracle_with_chain(deliveries=3)
        oracle.record_recovery(0, Entry(0, 2), Entry(1, 3))
        assert oracle.node((0, 0, 3)).rolled_back
        assert oracle.node((0, 0, 4)).rolled_back
        assert not oracle.node((0, 0, 2)).rolled_back
        assert oracle.live_interval(0) == (0, 1, 3)

    def test_new_incarnation_linked_to_survivor(self):
        oracle = oracle_with_chain(deliveries=2)
        oracle.record_recovery(0, Entry(0, 2), Entry(1, 3))
        assert oracle.node((0, 1, 3)).preds == [(0, 0, 2)]

    def test_orphan_via_rolled_back_dependency(self):
        oracle = DependencyOracle(2)
        oracle.start_process(0)
        oracle.start_process(1)
        oracle.record_delivery(0, Entry(0, 2), None, None)
        oracle.record_delivery(1, Entry(0, 2), 0, Entry(0, 2))
        oracle.record_recovery(0, Entry(0, 1), Entry(1, 2))
        assert oracle.is_orphan((1, 0, 2))
        assert not oracle.is_orphan((1, 0, 1))

    def test_consistency_check_flags_surviving_orphans(self):
        oracle = DependencyOracle(2)
        oracle.start_process(0)
        oracle.start_process(1)
        oracle.record_delivery(0, Entry(0, 2), None, None)
        oracle.record_delivery(1, Entry(0, 2), 0, Entry(0, 2))
        oracle.record_recovery(0, Entry(0, 1), Entry(1, 2))
        violations = oracle.check_consistency()
        assert violations and "orphan" in violations[0]

    def test_consistency_clean_after_dependent_rolls_back_too(self):
        oracle = DependencyOracle(2)
        oracle.start_process(0)
        oracle.start_process(1)
        oracle.record_delivery(0, Entry(0, 2), None, None)
        oracle.record_delivery(1, Entry(0, 2), 0, Entry(0, 2))
        oracle.record_recovery(0, Entry(0, 1), Entry(1, 2))
        oracle.record_recovery(1, Entry(0, 1), Entry(1, 2))
        assert oracle.check_consistency() == []


class TestStabilityAndRevokers:
    def test_mark_stable_prefix(self):
        oracle = oracle_with_chain(deliveries=3)
        oracle.mark_stable(0, Entry(0, 3))
        assert oracle.node((0, 0, 2)).stable
        assert oracle.node((0, 0, 3)).stable
        assert not oracle.node((0, 0, 4)).stable

    def test_potential_revokers(self):
        oracle = DependencyOracle(3)
        for p in range(3):
            oracle.start_process(p)
        oracle.record_delivery(0, Entry(0, 2), None, None)
        oracle.record_delivery(1, Entry(0, 2), 0, Entry(0, 2))
        # Both P0's and P1's new intervals are volatile.
        assert oracle.potential_revokers((1, 0, 2)) == {0, 1}
        oracle.mark_stable(0, Entry(0, 2))
        assert oracle.potential_revokers((1, 0, 2)) == {1}
        oracle.mark_stable(1, Entry(0, 2))
        assert oracle.potential_revokers((1, 0, 2)) == set()

    def test_counters(self):
        oracle = oracle_with_chain(deliveries=3)
        assert oracle.total_intervals == 3 + 3  # roots + chain
        oracle.record_recovery(0, Entry(0, 2), Entry(1, 3))
        assert oracle.rolled_back_intervals == 2
