"""Inputs and deterministic counts are pure functions of the seed."""

import pytest

import run
import workloads
from workloads import WORKLOADS, workload_by_name

SIM = [w for w in WORKLOADS if w.kind == "sim"]


@pytest.mark.parametrize("workload", SIM, ids=lambda w: w.name)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    a = workload.inputs(7, 0, scale=0.2)
    b = workload.inputs(7, 0, scale=0.2)
    assert (a.seed, a.duration, a.stimuli, a.crashes) == (
        b.seed, b.duration, b.stimuli, b.crashes)
    assert workload.inputs(8, 0, scale=0.2).stimuli != a.stimuli
    assert workload.inputs(7, 1, scale=0.2).stimuli != a.stimuli


def test_parallel_twin_gets_the_serial_inputs():
    par = workload_by_name("scale_gossip_n1024_par2")
    serial = workload_by_name(par.twin)
    assert par.inputs(3, 1).stimuli == serial.inputs(3, 1).stimuli


def test_no_stimulus_enters_a_crashed_process():
    workload = workload_by_name("chaos_adaptive_n16")
    inputs = workload.inputs(5, 0)
    assert inputs.crashes
    for time, dst, _payload in inputs.stimuli:
        for at, pid in inputs.crashes:
            assert not (pid == dst and at <= time <= at + 10.0)


def test_serve_stimuli_follow_the_fixed_schedule():
    workload = workload_by_name("serve_paced_n2")
    stimuli = workload.stimuli(1, 0, seconds=0.5)
    assert stimuli == workload.stimuli(1, 0, seconds=0.5)
    assert [s["due"] for s in stimuli] == [
        (i + 1) / workload.rate for i in range(100)]
    assert stimuli != workload.stimuli(2, 0, seconds=0.5)


def test_arrival_rates_are_what_they_say():
    rng = workloads.stream("test", 1, 0, "arrivals")
    assert len(workloads.poisson_times(rng, 2.0, 5000.0)) == pytest.approx(
        10_000, rel=0.05)
    assert len(workloads.bursty_times(rng, 2.0, 20_000.0)) == pytest.approx(
        40_000, rel=0.25)


@pytest.mark.parametrize("name", ["crash_filelog_n16", "chaos_adaptive_n16"])
def test_same_seed_same_counts_other_seed_other_counts(name, tmp_path):
    workload = workload_by_name(name)
    a = run.run_iteration(workload, 11, 0, 0.25, str(tmp_path), "a")
    b = run.run_iteration(workload, 11, 0, 0.25, str(tmp_path), "b")
    c = run.run_iteration(workload, 12, 0, 0.25, str(tmp_path), "c")
    assert not a.problems and a.metrics.crashes > 0
    assert a.counts() == b.counts()
    assert a.counts() != c.counts()
    assert run.require_same_counts("repeat", a, b) == []
    assert run.require_same_counts("repeat", a, c)
