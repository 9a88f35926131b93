"""One engine record per timer slot and activity.

From n = 17 on, the processes congruent mod ``PHASE_SLOTS`` share their
flush, checkpoint, notify and control instants, and the harness arms one
:func:`~repro.runtime.host.periodic` timer per slot and activity, which
runs that activity for every member in pid order (the notify tick: one
end-of-instant callback for the slot).  The per-host arming it replaced —
every host its own timers, armed pid by pid — lives on here, in the test
tree only, as the reference the folded run must be indistinguishable
from: the same control payloads in send order, the same next draws, the
same ``events_executed`` (a folded record counts one event per member),
the same metrics row, and the same trace as a multiset.

The one allowed difference is the order of two *different* slots'
records at an instant shared in their first period: both arrangements
arm every grid at t = 0, the reference pid by pid, the harness slot by
slot, and after its first firing each timer re-arms itself in firing
order.  At n = 40, P23's flush and P33's checkpoint both fall at
160 * 2/17 and fire the other way round.
"""

from collections import Counter
from dataclasses import astuple, replace

import pytest

from repro.failures.injector import CrashEvent, FailureSchedule
from repro.runtime import harness as harness_module
from repro.runtime.config import SimConfig
from repro.runtime.host import PHASE_SLOTS, periodic
from repro.sim.engine import Engine
from helpers import build_sim, next_draws

DURATION = 120.0

SCENARIOS = {
    # The controller's tick is a fourth activity per slot.
    "adaptive_k": {"adaptive_k": True, "slo_output_latency": 30.0},
    # P16 shares slot 0 with P0 at every n here; it crashes between two
    # of the slot's flushes and its slot-mate's timers go on.
    "filelog_crash": {"storage_backend": "filelog",
                      "failures": FailureSchedule([CrashEvent(50.0, 16)])},
    # Pull asks and their answers, dropped, duplicated and reordered.
    "fanout_lossy": {"notify_fanout": 4, "drop_rate": 0.05,
                     "duplicate_rate": 0.02, "reorder_rate": 0.05,
                     "retransmit_window": 16},
}


def arm_per_host(hosts, horizon, fold=True):
    """The reference: every activity of every host on a timer of its own,
    armed host by host in pid order (whatever ``fold`` says)."""
    for host in hosts:
        config, env = host.config, host.env
        phase = ((host.pid % PHASE_SLOTS + 1)
                 / (min(config.n, PHASE_SLOTS) + 1))
        flush_at = config.flush_interval * phase
        activities = [
            (config.checkpoint_interval * phase, config.checkpoint_interval,
             host.checkpoint),
            (flush_at, config.flush_interval, host.flush),
            (flush_at, config.notify_interval,
             lambda host=host: host.env.after_due(host.pid, host.notify)),
        ]
        if host.controller is not None:
            activities.append((config.control_interval * phase,
                               config.control_interval, host.control_tick))
        for anchor, interval, action in activities:
            periodic(env.schedule, anchor, interval, action, horizon)


@pytest.fixture
def timer_records(monkeypatch):
    """The ``callbacks`` count of every timer record the engine is asked
    for (a record :func:`periodic` schedules)."""
    counts = []
    schedule = Engine.schedule

    def counting(self, delay, callback, label=None, callbacks=1):
        if callback.__qualname__ == "periodic.<locals>.fire":
            counts.append(callbacks)
        return schedule(self, delay, callback, label, callbacks)

    monkeypatch.setattr(Engine, "schedule", counting)
    return counts


def run(n, scenario, probe=False):
    """One run; everything the comparison reads, taken before close."""
    harness = build_sim(n=n, k=2, seed=7, rate=2.0, until=DURATION * 0.6,
                        **SCENARIOS[scenario])
    sent = []
    multicast = harness.network.multicast_control

    def record_control(src, dsts, payload):
        # Every control send funnels through multicast_control.
        table = getattr(payload, "table", None)
        sent.append((src, None if dsts is None else tuple(dsts),
                     type(payload).__name__,
                     0 if table is None else sum(map(len, table.rows()))))
        multicast(src, dsts, payload)

    harness.network.multicast_control = record_control
    if probe:
        harness.add_step_probe(lambda _harness: None)
    try:
        harness.run(DURATION)
        return {
            "sent": sent,
            "draws": next_draws(harness.network),
            "events": harness.engine.events_executed,
            "metrics": astuple(replace(harness.metrics(),
                                       storage_recovery_wall_s=0.0)),
            "trace": [(time, category, pid, sorted(data.items()))
                      for time, category, pid, data
                      in harness.tracer.rows()],
            "first_period": max(harness.config.checkpoint_interval,
                                harness.config.flush_interval,
                                harness.config.control_interval),
        }
    finally:
        harness.close()


def run_reference(n, scenario, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(harness_module, "start_timers", arm_per_host)
        return run(n, scenario)


def instants(trace):
    """The trace cut into its instants: ``time -> records``, in order."""
    cut = {}
    for row in trace:
        cut.setdefault(row[0], []).append(row)
    return cut


def slot_of(row):
    return row[2] % PHASE_SLOTS if row[2] is not None and row[2] >= 0 else -1


def assert_same_run(folded, reference):
    for key in ("sent", "draws", "events", "metrics"):
        assert folded[key] == reference[key], key
    assert Counter(map(repr, folded["trace"])) \
        == Counter(map(repr, reference["trace"]))
    mine, theirs = instants(folded["trace"]), instants(reference["trace"])
    assert list(mine) == list(theirs)
    reordered = []
    for time, rows in mine.items():
        if rows == theirs[time]:
            continue
        reordered.append(time)
        assert time < folded["first_period"], time
        for slot in {slot_of(row) for row in rows}:
            assert [row for row in rows if slot_of(row) == slot] \
                == [row for row in theirs[time] if slot_of(row) == slot], \
                (time, slot)
    return reordered


@pytest.mark.parametrize("n, scenario", [
    # filelog_crash at n = 40 and 64 checks what n = 17 checks for a
    # crashed slot member and 64-adaptive_k and 64-fanout_lossy check for
    # four-member slots: it runs in the slow set only.  40-adaptive_k
    # stays, for its reordered slots.
    pytest.param(n, scenario, marks=pytest.mark.slow)
    if (n, scenario) in ((40, "filelog_crash"), (64, "filelog_crash"))
    else (n, scenario)
    for n in (17, 40, 64) for scenario in sorted(SCENARIOS)])
def test_slot_timers_run_like_per_host_timers(n, scenario, monkeypatch,
                                              timer_records):
    folded = run(n, scenario)
    folded_records = list(timer_records)
    timer_records.clear()
    reference = run_reference(n, scenario, monkeypatch)
    reordered = assert_same_run(folded, reference)
    if (n, scenario) == (40, "adaptive_k"):
        # Not vacuous: two slots' records do swap in the first period,
        # P33's checkpoint (slot 1) and P23's flush (slot 7) at 160 * 2/17
        # among them.
        assert pytest.approx(160 * 2 / 17) in reordered
    # One record per slot and grid instant: at most groups x ticks.
    config = SimConfig(n=n)
    intervals = [config.checkpoint_interval, config.flush_interval,
                 config.notify_interval]
    if scenario == "adaptive_k":
        intervals.append(config.control_interval)
    ticks = sum(int(DURATION // interval) + 1 for interval in intervals)
    assert len(folded_records) <= PHASE_SLOTS * ticks
    assert len(timer_records) > len(folded_records)
    assert max(folded_records) == -(-n // PHASE_SLOTS)
    assert sum(folded_records) == len(timer_records) == sum(timer_records)


# n = 40 checks what n = 17 checks: it runs in the slow set only.
@pytest.mark.parametrize("n", [17, pytest.param(40, marks=pytest.mark.slow)])
def test_an_observed_engine_gives_every_host_its_own_timer(n, monkeypatch,
                                                           timer_records):
    # A post-step probe looks at the run one callback at a time: the
    # harness folds nothing, and the run is the reference's to the byte.
    observed = run(n, "filelog_crash", probe=True)
    assert set(timer_records) == {1}
    observed_records = len(timer_records)
    timer_records.clear()
    reference = run_reference(n, "filelog_crash", monkeypatch)
    assert observed_records == len(timer_records)
    for key in ("sent", "draws", "events", "metrics", "trace"):
        assert observed[key] == reference[key], key
