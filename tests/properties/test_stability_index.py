"""The stability index against the full rescans it replaced.

``Check_send_buffer`` and ``OutputBuffer.update`` used to re-test every
entry of every held vector against the log table, and Receive_log every
entry of the process's own vector.  Those rescans live on here, in the
test tree only, as the reference: hypothesis drives the real protocol and
the rescanning one through the same random operations and requires
identical effects — the same releases and commits in the same order, with
the same vectors — and identical buffers and vectors after every step.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.baselines.fully_async import FullyAsyncProcess
from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.core.output import PendingOutput
from repro.core.protocol import KOptimisticProcess
from repro.core.tables import LoggingProgressTable
from repro.failures.injector import CrashEvent, FailureSchedule
from repro.net.message import AppMessage, LogProgressNotification, OutputRecord
from helpers import Scripted, build_sim, make_announcement, make_msg

# -- the reference: rescan everything, every time ------------------------------


class RescanOutputBuffer:
    """The pre-index Output_buffer, without its skip-when-unchanged cache."""

    def __init__(self):
        self._pending = []

    def add(self, record, tdv, now=0.0):
        self._pending.append(PendingOutput(record, tdv.copy(), now))

    def contains(self, output_id):
        return any(p.record.output_id == output_id for p in self._pending)

    def update(self, log):
        for pending in self._pending:
            tdv = pending.tdv
            if isinstance(tdv, DependencyVector):
                for pid in [pid for pid, packed in tdv.iter_packed()
                            if log.covers_packed(pid, packed)]:
                    tdv.nullify(pid)
            else:
                for pid, entry in list(tdv.iter_items()):
                    if log.covers(pid, entry):
                        tdv.nullify_entry(pid, entry)
        ready = [p for p in self._pending if p.tdv.non_null_count() == 0]
        self._pending = [p for p in self._pending if p.tdv.non_null_count() > 0]
        return ready

    def discard_orphans(self, iet):
        orphans = [p for p in self._pending
                   if any(iet.invalidates(pid, e) for pid, e in p.tdv.items())]
        self._pending = [p for p in self._pending
                         if not any(p is o for o in orphans)]
        return orphans

    def discard_all(self):
        self._pending.clear()

    @property
    def pending(self):
        return list(self._pending)

    def __len__(self):
        return len(self._pending)


class RescanKOptimistic(KOptimisticProcess):
    """K-optimistic logging with the held x width rescans."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.output_buffer = RescanOutputBuffer()

    def _nullify_stable_tdv_entries(self, merged=None):
        """The literal Receive_log loop over the process's own vector:
        every pass tests every entry."""
        log = self.log
        for pid in [pid for pid, packed in self.tdv.iter_packed()
                    if pid != self.pid and log.covers_packed(pid, packed)]:
            self.tdv.nullify(pid)

    def _check_send_buffer(self):
        effects = []
        log = self.log
        for msg in self.send_buffer:
            for pid in [pid for pid, packed in msg.tdv.iter_packed()
                        if log.covers_packed(pid, packed)]:
                msg.tdv.nullify(pid)
        still_held = []
        now = self.now_fn()
        for msg in self.send_buffer:
            limit = self.k if msg.k_limit is None else msg.k_limit
            if msg.tdv.non_null_count() > limit:
                still_held.append(msg)
                continue
            enqueued = self._send_enqueue_times.pop(msg.wire_id, now)
            hold = now - enqueued
            self.stats.send_hold_time_total += hold
            self.stats.send_hold_time_max = max(
                self.stats.send_hold_time_max, hold)
            self.stats.messages_released += 1
            if self.retransmit_window > 0:
                copies = self._sent_log.setdefault(msg.dst, [])
                copies.append(msg)
                del copies[: -self.retransmit_window]
            effects += self._release(msg)
        self.send_buffer = still_held
        return effects


class RescanFullyAsync(FullyAsyncProcess):
    """The fully-async baseline (multi-incarnation output vectors)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.output_buffer = RescanOutputBuffer()


# -- one scripted application, random operations --------------------------------


def peers_of(n):
    """A few pids other than 0 (the process under test): all of them at
    n=5, a spread over the numpy-backed table's rows at n=64."""
    return [1, 2, 3, 4] if n == 5 else [1, 2, 17, 40, 63]


def operations(n):
    peer = st.sampled_from(peers_of(n))
    entry = st.builds(Entry, inc=st.integers(0, 2), sii=st.integers(1, 12))
    triples = st.lists(
        st.tuples(st.sampled_from([0] + peers_of(n)), st.integers(0, 2),
                  st.integers(1, 14)),
        min_size=1, max_size=4)
    receive = st.tuples(
        st.just("receive"), peer,
        st.dictionaries(peer, entry, max_size=4),
        st.lists(st.tuples(peer, st.sampled_from([None, None, 0, 1, 3])),
                 max_size=3),
        st.integers(0, 2))
    return st.lists(st.one_of(
        receive, receive,
        st.tuples(st.just("notify"), triples),
        st.tuples(st.just("notify_batch"),
                  st.lists(triples, min_size=2, max_size=3)),
        st.tuples(st.just("insert"), triples),
        st.tuples(st.just("announce"), peer, st.integers(0, 2),
                  st.integers(1, 10)),
        st.sampled_from([("flush",), ("checkpoint",), ("crash",)]),
    ), max_size=30).map(respect_ends)


def respect_ends(ops):
    """``ops`` as a history that could happen: an incarnation ends once,
    at or beyond every interval of it already declared logged, and nothing
    of it is declared logged beyond that end afterwards.  (A logged (40,
    0, 2) followed by an announcement that incarnation 0 of P40 ended at 1
    is not a history any run produces.)"""
    ends, logged = {}, {}

    def clamp(triples):
        out = []
        for pid, inc, sii in triples:
            sii = min(sii, ends.get((pid, inc), sii))
            logged[pid, inc] = max(logged.get((pid, inc), 0), sii)
            out.append((pid, inc, sii))
        return out

    fixed = []
    for op in ops:
        kind = op[0]
        if kind in ("notify", "insert"):
            op = (kind, clamp(op[1]))
        elif kind == "notify_batch":
            op = (kind, [clamp(triples) for triples in op[1]])
        elif kind == "announce":
            _, pid, inc, sii = op
            end = ends.setdefault(
                (pid, inc), max(sii, logged.get((pid, inc), 0)))
            op = (kind, pid, inc, end)
        fixed.append(op)
    return fixed


def snapshot(n, triples):
    """What a peer gossips: its table's columnar snapshot (ndarray columns
    at n=64, list columns at n=5)."""
    table = LoggingProgressTable(n)
    for pid, inc, sii in triples:
        table.insert(pid, Entry(inc, sii))
    return table.snapshot_columns()


def apply_op(proc, op, n, step):
    kind = op[0]
    if kind == "receive":
        _, sender, entries, sends, outputs = op
        entries = dict(entries)
        entries.setdefault(sender, Entry(0, 1))
        payload = {"sends": sends,
                   "outputs": [f"out-{step}-{i}" for i in range(outputs)]}
        return proc.on_receive(
            make_msg(sender, 0, n=n, entries=entries, payload=payload, seq=step))
    if kind == "notify":
        return proc.on_log_notification(
            LogProgressNotification(1, snapshot(n, op[1])))
    if kind == "notify_batch":
        return proc.on_log_notifications(
            [LogProgressNotification(1, snapshot(n, t)) for t in op[1]])
    if kind == "insert":
        for pid, inc, sii in op[1]:
            proc.log.insert(pid, Entry(inc, sii))
        return proc._check_send_buffer() + proc._update_output_buffer()
    if kind == "announce":
        return proc.on_failure_announcement(
            make_announcement(op[1], op[2], op[3]))
    if kind == "flush":
        return proc.flush()
    if kind == "checkpoint":
        return proc.checkpoint()
    proc.crash()
    return proc.restart()


def plain(value):
    """An effect field without per-transmission identity (``wire_id``)."""
    if isinstance(value, AppMessage):
        return (value.msg_id, value.dst, value.tdv.as_dict(), value.k_limit,
                value.replayed)
    if isinstance(value, OutputRecord):
        return (value.output_id, value.payload)
    return value


def describe(effects):
    return [(type(e).__name__,
             [plain(getattr(e, f.name)) for f in dataclasses.fields(e)])
            for e in effects]


def buffers(proc):
    return ([plain(m) for m in proc.send_buffer],
            [plain(m) for m in proc.receive_buffer],
            [(plain(p.record), p.tdv.as_dict(), p.enqueued_at)
             for p in proc.output_buffer.pending],
            vars(proc.stats))


def run_differential(n, ops, real_cls, reference_cls, k):
    clock = {"now": 0.0}
    pair = []
    for cls in (real_cls, reference_cls):
        proc = cls(0, n, k, Scripted(), now_fn=lambda: clock["now"],
                   retransmit_window=2, retransmit_timeout=5.0)
        proc.initialize()
        pair.append(proc)
    real, reference = pair
    for step, op in enumerate(ops):
        clock["now"] += 1.0
        got = describe(apply_op(real, op, n, step))
        want = describe(apply_op(reference, op, n, step))
        assert got == want, (step, op)
        assert buffers(real) == buffers(reference), (step, op)
        assert real.tdv == reference.tdv
    # Every buffered vector and the process's own one (once a last
    # Theorem-2 pass has applied its queued pops; the fully-async
    # baseline runs none) is accounted for in the index, and nothing else.
    real._nullify_stable_tdv_entries()
    held = sum(m.tdv.non_null_count() for m in real.send_buffer)
    held += sum(p.tdv.non_null_count() for p in real.output_buffer.pending)
    if real_cls is KOptimisticProcess:
        held += sum(1 for pid in real.tdv.processes() if pid != real.pid)
    assert held <= len(real._stability) <= 2 * held


class TestAgainstFullRescan:
    @pytest.mark.parametrize("n", [5, 64])
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), k=st.integers(0, 3))
    def test_k_optimistic(self, n, data, k):
        run_differential(n, data.draw(operations(n)), KOptimisticProcess,
                         RescanKOptimistic, k)

    @pytest.mark.parametrize("n", [5, 64])
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_fully_async_multi_incarnation_outputs(self, n, data):
        run_differential(n, data.draw(operations(n)), FullyAsyncProcess,
                         RescanFullyAsync, None)

    def test_generated_histories_end_an_incarnation_once_past_its_log(self):
        """The shape the generator once drew: (40, 0, 2) declared logged,
        then incarnation 0 of P40 announced ended at 1."""
        ops = respect_ends([
            ("notify", [(40, 0, 2)]),
            ("announce", 40, 0, 1),
            ("insert", [(40, 0, 7), (40, 1, 3)]),
            ("announce", 40, 0, 9),
        ])
        assert ops == [
            ("notify", [(40, 0, 2)]),
            ("announce", 40, 0, 2),
            ("insert", [(40, 0, 2), (40, 1, 3)]),
            ("announce", 40, 0, 2),
        ]
        run_differential(64, ops, FullyAsyncProcess, RescanFullyAsync, None)

    def test_rollback_keeps_the_survivors_waiting(self):
        """A directed case for the path random vectors rarely reach: a
        rollback scrubs one held message and one output as orphans, the
        others stay held, and a later notification releases them."""
        ops = [
            ("receive", 1, {1: Entry(0, 3)}, [(2, None)], 1),
            ("receive", 2, {2: Entry(0, 5)}, [(3, 0)], 1),
            ("announce", 2, 0, 4),
            ("notify", [(1, 0, 3)]),
            ("flush",),
        ]
        for n in (5, 64):
            run_differential(n, ops, KOptimisticProcess, RescanKOptimistic, 0)


# -- the index on its own: vectors the protocol would not produce -----------------


def index_operations():
    pid = st.integers(0, 4)
    entries = st.dictionaries(pid, st.tuples(st.integers(0, 2),
                                             st.integers(1, 9)), max_size=4)
    return st.lists(st.one_of(
        st.tuples(st.just("watch"), entries, st.integers(0, 2)),
        st.tuples(st.just("insert"), pid, st.integers(0, 2), st.integers(1, 9)),
        st.tuples(st.just("drop"), st.integers(0, 30)),
    ), max_size=40)


class TestIndexContract:
    """The protocol's held vectors are snapshots of one growing vector, so
    a later one rarely waits on less than an earlier one.  The index does
    not rely on that: here the vectors are arbitrary."""

    @settings(max_examples=200, deadline=None)
    @given(index_operations(), st.booleans())
    # advance() pops a live entry while a dropped waiter's four stale ones
    # remain: 7 heap entries for 3 live unless advance re-checks the sweep.
    @example([("watch", {0: (2, 1), 1: (0, 1), 2: (0, 1), 3: (0, 1)}, 0),
              ("watch", {0: (2, 5), 1: (0, 1), 2: (0, 1), 3: (0, 1)}, 0),
              ("drop", 1),
              ("insert", 0, 2, 1)], False)
    def test_matches_a_rescan_of_arbitrary_vectors(self, ops, multi):
        from repro.core.baselines.fully_async import MultiIncarnationVector
        from repro.core.stability import StabilityIndex

        n = 5
        index, log, woken = StabilityIndex(), LoggingProgressTable(n), []
        waiters = []        # (waiter, limit), in buffer order
        model = []          # (name, {pid: Entry}, limit), the rescan's view
        for step, op in enumerate(ops):
            if op[0] == "watch":
                entries = {p: Entry(*e) for p, e in op[1].items()}
                if multi:
                    tdv = MultiIncarnationVector(n)
                    for p, e in entries.items():
                        tdv.set(p, e)
                else:
                    tdv = DependencyVector(n, entries)
                waiters.append((index.watch(step, tdv, log, woken), op[2]))
                model.append((step, entries, op[2]))
            elif op[0] == "insert":
                log.insert(op[1], Entry(op[2], op[3]))
            elif waiters:
                at = op[1] % len(waiters)
                index.drop(waiters.pop(at)[0])
                model.pop(at)
            index.advance(log)
            limits = {w.item: limit for w, limit in waiters}
            ready = index.collect(woken, limits.__getitem__)
            waiters = [(w, k) for w, k in waiters if w.woken is not None]

            for _name, entries, _limit in model:
                for p in [p for p, e in entries.items() if log.covers(p, e)]:
                    del entries[p]
            expected = [m for m in model if len(m[1]) <= m[2]]
            model = [m for m in model if len(m[1]) > m[2]]
            assert [w.item for w in ready] == [m[0] for m in expected]
            assert [w.tdv.non_null_count() for w in ready] == \
                [len(m[1]) for m in expected]
            assert [w.item for w, _ in waiters] == [m[0] for m in model]
            for (w, _), m in zip(waiters, model):
                assert dict(w.tdv.items()) == m[1]
            live = sum(len(m[1]) for m in model)
            assert live <= len(index) <= 2 * live

    def test_releases_come_in_buffer_order_not_wake_order(self):
        from repro.core.stability import StabilityIndex

        index, log, woken = StabilityIndex(), LoggingProgressTable(4), []
        index.watch("first", DependencyVector(4, {1: Entry(0, 5)}), log, woken)
        index.watch("second", DependencyVector(4, {1: Entry(0, 2)}), log, woken)
        assert index.collect(woken, lambda _item: 0) == []
        log.insert(1, Entry(0, 5))
        index.advance(log)      # pops "second" (the lower index) first
        assert [w.item for w in index.collect(woken, lambda _item: 0)] == \
            ["first", "second"]
        assert len(index) == 0


# -- work bound ------------------------------------------------------------------


class CountingLog(LoggingProgressTable):
    """A log table that counts its point lookups."""

    lookups = 0

    def covers(self, pid, entry):
        self.lookups += 1
        return super().covers(pid, entry)

    def covers_packed(self, pid, packed):
        self.lookups += 1
        return super().covers_packed(pid, packed)

    def lookup(self, pid, inc):
        self.lookups += 1
        return super().lookup(pid, inc)


class TestWorkBound:
    B = 40   # held messages
    W = 30   # entries per held vector (besides the sender's own)

    def held_process(self):
        """P0 with B held messages, each depending on the same W peers."""
        n = 64
        proc = KOptimisticProcess(0, n, 0, Scripted())
        proc.log = CountingLog(n)
        proc.initialize()
        entries = {pid: Entry(0, 5) for pid in range(1, self.W + 1)}
        for i in range(self.B):
            proc.on_receive(make_msg(1, 0, n=n, entries=entries, seq=i,
                                     payload={"sends": [(2, None)]}))
        assert len(proc.send_buffer) == self.B
        assert all(m.tdv.non_null_count() == self.W + 1
                   for m in proc.send_buffer)
        return proc

    def notify(self, proc, pid, sii):
        proc.log.lookups = 0
        effects = proc.on_log_notification(
            LogProgressNotification(pid, snapshot(proc.n, [(pid, 0, sii)])))
        return proc.log.lookups, effects

    def test_one_changed_position_costs_watched_positions_not_held_x_width(self):
        proc = self.held_process()
        index = proc._stability
        positions = index.watched_positions()
        assert positions == self.W + 1   # the W peers and P0's own row
        # The held copies and the process's vector share one group per peer
        # entry; P0's own entry differs per message (one interval each).
        assert len(index._groups) == self.W + self.B

        # A row nobody waits on: one test per watched position, no more —
        # the process's own vector costs nothing extra.
        lookups, effects = self.notify(proc, 50, 9)
        assert not effects
        assert lookups == positions

        # One watched row moves: its one group pops for all B waiters and
        # the vector, every other position is tested once.
        lookups, effects = self.notify(proc, 7, 5)
        assert not effects                       # K=0: W entries still wait
        assert all(m.tdv.get(7) is None for m in proc.send_buffer)
        assert proc.tdv.get(7) is None
        assert index.watched_positions() == positions - 1
        assert lookups == positions

    def test_no_table_change_costs_no_lookups(self):
        proc = self.held_process()
        self.notify(proc, 7, 5)
        lookups, _ = self.notify(proc, 7, 5)     # the same news again
        assert lookups == 0

    # Held copies of one vector register each entry once.
    COPIES = 8
    WIDTH = 12

    def watched_copies(self):
        from repro.core.stability import StabilityIndex

        n = 16
        index, log, woken = StabilityIndex(), CountingLog(n), []
        vector = DependencyVector(
            n, {pid: Entry(0, pid + 3) for pid in range(1, self.WIDTH + 1)})
        waiters = []
        for copy in range(self.COPIES):
            index.advance(log)
            log.lookups = 0
            waiters.append(index.watch(copy, vector.copy(), log, woken))
            # Only the first copy's entries are looked up: the others join.
            assert log.lookups == (self.WIDTH if copy == 0 else 0)
        assert index.collect(woken, lambda _item: 0) == []
        return index, log, woken, waiters

    def test_eight_copies_cost_one_heap_entry_per_entry(self):
        index, _log, _woken, _waiters = self.watched_copies()
        assert len(index._groups) == self.WIDTH
        assert index.watched_positions() == self.WIDTH
        assert len(index) == self.COPIES * self.WIDTH

    def test_covering_a_shared_entry_is_one_pop_that_wakes_every_copy(self):
        index, log, woken, waiters = self.watched_copies()
        log.insert(5, Entry(0, 8))
        log.lookups = 0
        index.advance(log)
        assert log.lookups == self.WIDTH         # one test per position
        assert len(index._groups) == self.WIDTH - 1
        assert sorted(w.item for w in woken) == list(range(self.COPIES))
        assert all(w.tdv.get(5) is None for w in waiters)
        assert all(w.tdv.non_null_count() == self.WIDTH - 1 for w in waiters)

    def test_dropping_seven_copies_sweeps_to_one_member_per_group(self):
        index, _log, _woken, waiters = self.watched_copies()
        for waiter in waiters[1:]:
            index.drop(waiter)
        assert len(index._groups) == self.WIDTH
        assert len(index) == self.WIDTH


# -- hygiene ---------------------------------------------------------------------


CRASH_CLUSTERS = FailureSchedule(
    [CrashEvent(60.0 + 7.0 * j, pid) for j, pid in enumerate([1, 3, 4, 0])]
    + [CrashEvent(140.0 + 7.0 * j, pid) for j, pid in enumerate([2, 5, 1, 3])])


class TestIndexHygiene:
    def crash_cluster_run(self, protocol_factory=None):
        harness = build_sim(n=6, k=1, seed=5, rate=0.6, until=200.0,
                            failures=CRASH_CLUSTERS,
                            protocol_factory=protocol_factory)
        harness.run(220.0)
        harness.settle()
        return harness

    def test_empty_buffers_leave_an_empty_index(self):
        harness = self.crash_cluster_run()
        assert harness.violations == []
        assert sum(h.protocol.stats.rollbacks for h in harness.hosts) > 0
        assert sum(h.protocol.stats.restarts for h in harness.hosts) == 8
        for host in harness.hosts:
            proc = host.protocol
            assert not proc.send_buffer and not len(proc.output_buffer)
            # What is left is the vector's own entries, each its own
            # group, and at most as many stale registrations.
            entries = sum(1 for pid in proc.tdv.processes() if pid != proc.pid)
            assert len(proc._stability._groups) >= entries
            assert entries <= len(proc._stability) <= 2 * entries
            assert proc._stability.awaited_owners() <= set(proc.tdv.processes())
            assert not proc._sb_held and not proc._sb_woken

    def test_unbounded_release_mutant_still_caught(self):
        """The mutant flips ``self.k`` around ``super()._check_send_buffer()``:
        the limit must be read when a vector is judged, not when it is
        registered, or the mutant would go unnoticed."""
        from repro.check.mutants import mutant_factory

        harness = self.crash_cluster_run(mutant_factory("unbounded_release"))
        assert any("Theorem 4" in v for v in harness.violations)

    def test_dropped_waiters_are_swept(self):
        """Waiters released with entries left (K > 0) or discarded go stale
        in their groups; the index sweeps them once they outnumber the
        live, which leaves the vector's one open dependency (on P2)."""
        proc = KOptimisticProcess(0, 8, 2, Scripted())
        proc.initialize()
        for i in range(20):
            # Three entries: held (K=2) until P1's interval is stable.
            proc.on_receive(make_msg(1, 0, n=8, seq=i,
                                     entries={1: Entry(0, i + 1),
                                              2: Entry(0, 1)},
                                     payload={"sends": [(3, None)]}))
            proc.on_log_notification(LogProgressNotification(
                1, snapshot(8, [(1, 0, i + 1)])))
            assert not proc.send_buffer          # released with 2 entries left
            assert list(proc.tdv.processes()) == [0, 2]
            assert len(proc._stability) == 1
