"""Every output of a surviving interval commits, exactly once.

Reduced forms of the two crash benchmarks — a durable journal under
evenly spaced crashes, and a lossy network with crash clusters under the
adaptive-K controller — at n = 8 over five seeds.  Every injected token
that emits an output must see that output committed exactly once after
``settle``.  A token never enters at a process that is down or about to
crash with it still unlogged: nobody retransmits an outside-world
message (footnote 3), so such a loss is a property of the inputs, not of
the protocol.

Before checkpoints kept their buffers, restarting from a checkpoint lost
the pending outputs and held sends of the intervals it covered, and
these runs ended with tokens that never committed.
"""

import functools
import os
import random
from collections import Counter

import pytest

from repro.failures.injector import CrashEvent, FailureSchedule
from repro.runtime.config import SimConfig
from repro.runtime.harness import SimulationHarness
from repro.workloads.openloop import OpenLoopBehavior

N = 8
SEEDS = range(5)

#: name -> (config overrides, duration, tokens per process per unit, crashes)
SHAPES = {
    "crash_filelog": (
        {"k": 2, "storage_backend": "filelog", "retransmit_window": 32},
        480.0, 0.08, "spread"),
    "chaos": (
        {"k": 8, "adaptive_k": True, "k_max": 8, "slo_output_latency": 90.0,
         "control_interval": 10.0, "drop_rate": 0.05,
         "duplicate_rate": 0.02, "reorder_rate": 0.05,
         "retransmit_window": 32},
        600.0, 0.1, "cluster"),
}


def crashes(rng, shape, duration):
    if shape == "spread":
        return [((i + 1) / 7 * duration, rng.randrange(N)) for i in range(4)]
    base = duration / 3
    return [(base + j * 60.0, pid)
            for j, pid in enumerate(rng.sample(range(N), 4))]


def run(shape, seed):
    overrides, duration, rate, crash_shape = SHAPES[shape]
    config = SimConfig(n=N, seed=seed, **overrides)
    rng = random.Random(f"{shape}/{seed}")
    schedule = crashes(rng, crash_shape, duration)
    harness = SimulationHarness(
        config, OpenLoopBehavior(),
        failures=FailureSchedule([CrashEvent(t, pid) for t, pid in schedule]))
    expected = {}
    t, token = rng.expovariate(rate * N), 0
    while t < 0.9 * duration:
        down = {pid for at, pid in schedule
                if at - config.flush_interval - 1.0 <= t
                <= at + config.restart_delay + 1.0}
        dst = rng.choice([pid for pid in range(N) if pid not in down])
        emit = token % 2 == 0
        harness.inject_at(t, dst, {"token": token, "hops": rng.randint(2, 6),
                                   "emit_output": emit, "t0": t})
        if emit:
            expected[token] = t
        t += rng.expovariate(rate * N)
        token += 1
    try:
        harness.run(duration)
        committed = Counter(record.payload["token"]
                            for _now, record in harness.committed_outputs)
        return expected, committed, harness.metrics()
    finally:
        harness.close()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_output_commits_exactly_once(shape):
    for seed in SEEDS:
        expected, committed, metrics = run(shape, seed)
        assert metrics.crashes == 4 and metrics.outputs_pending == 0
        assert metrics.violations == []
        assert set(committed) <= set(expected), seed
        assert [token for token in expected if committed[token] != 1] == [], \
            seed


@pytest.mark.slow
def test_a_crash_right_after_a_rollback_leaves_nothing_pending(monkeypatch):
    """The benchmark's ``chaos_adaptive_n16`` inputs with its crash
    clusters 18 units apart instead of 60, seed 108, iteration 0.  P3 rolls
    back at t = 511 and crashes at 518, before any notification reports
    where incarnation 0 ended; it restarts from a checkpoint of
    incarnation 1.  Before the incarnation marker carried that end, 482
    outputs stayed pending on the row (P3, inc 0) forever."""
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "bench")
    monkeypatch.syspath_prepend(bench)
    import workloads

    monkeypatch.setattr(workloads, "clustered_crashes", functools.partial(
        workloads.clustered_crashes, gap=18.0))
    workload = workloads.workload_by_name("chaos_adaptive_n16")
    inputs = workload.inputs(108, 0)
    harness = workload.build(inputs, storage_dir="")
    try:
        harness.run(inputs.duration)
        harness.settle()
        metrics = harness.metrics()
        committed = {record.payload["token"]
                     for _now, record in harness.committed_outputs}
    finally:
        harness.close()
    assert metrics.violations == []
    assert metrics.outputs_pending == 0
    assert set(inputs.expected_outputs) <= committed
