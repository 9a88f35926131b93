"""The correctness gate, the comparison verdicts and a smoke of the suite."""

import json
import os
import subprocess
import sys
import time

import compare
import run
from workloads import BENCH_DIR, Inputs, WORKLOADS

SMALL = ["--workload", "steady_dense_n64", "--seed", "1", "--seconds", "3",
         "--scale", "0.2"]


def last_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_output_check_flags_duplicates_strays_and_counts_missing():
    inputs = Inputs(seed=1, duration=10.0, crashes=[], stimuli=[
        (1.0, 0, {"token": 0, "hops": 2, "emit_output": True, "t0": 1.0}),
        (2.0, 1, {"token": 1, "hops": 2, "emit_output": False, "t0": 2.0}),
        (3.0, 1, {"token": 2, "hops": 2, "emit_output": True, "t0": 3.0}),
    ])
    assert run.check_outputs(inputs, [(0, 1.0, 9.0), (2, 3.0, 9.5)]) == (0, [])
    failed, problems = run.check_outputs(
        inputs, [(0, 1.0, 9.0), (0, 1.0, 9.1), (1, 2.0, 9.2)])
    assert failed == 1
    assert any("committed 2 times" in p for p in problems)
    assert any("must not emit" in p for p in problems)
    _failed, problems = run.check_outputs(inputs, [(0, 1.5, 9.0)])
    assert any("carries t0" in p for p in problems)


def test_clean_run_exits_zero_and_reports_declared_metrics(capsys):
    assert run.main(SMALL + ["--trace", "0"]) == 0
    result = last_line(capsys)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {
        m["name"] for m in run.spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_gate_exits_nonzero_on_an_injected_violation(capsys, monkeypatch):
    from repro.runtime.harness import SimulationHarness

    original = SimulationHarness.metrics

    def metrics_with_violation(self):
        metrics = original(self)
        metrics.violations.append("Theorem 4 violated: injected by the test")
        return metrics

    monkeypatch.setattr(SimulationHarness, "metrics", metrics_with_violation)
    assert run.main(SMALL + ["--trace", "0"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out.strip().splitlines()[-1])["correct"] is False
    assert "injected by the test" in captured.err


def test_gate_exits_nonzero_when_a_repeat_counts_differently(capsys,
                                                             monkeypatch):
    original = run.run_iteration
    calls = []

    def second_run_differs(*args, **kwargs):
        iteration = original(*args, **kwargs)
        calls.append(iteration)
        if len(calls) == 2:
            iteration.metrics.messages_delivered += 1
        return iteration

    monkeypatch.setattr(run, "run_iteration", second_run_differs)
    assert run.main(SMALL + ["--trace", "1"]) == 1
    captured = capsys.readouterr()
    assert "deliveries differs between runs of the same inputs" in captured.err


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "higher", 0.10) == "ok"
    assert compare.verdict(
        steady, [v * 0.8 for v in steady], "higher", 0.10) == "regression"
    assert compare.verdict(
        steady, [v * 1.2 for v in steady], "lower", 0.10) == "regression"
    assert compare.verdict(
        steady, [v * 1.2 for v in steady], "higher", 0.10) == "better"
    noisy = [100.0, 140.0, 70.0, 120.0, 85.0]
    assert compare.verdict(steady, noisy, "higher", 0.10) == "unresolved"


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ there is
    nothing to measure."""
    import shutil

    root = os.path.dirname(BENCH_DIR)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "steady_dense_n64",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_smoke_of_all_six_workloads_under_a_minute(tmp_path):
    started = time.perf_counter()
    results = tmp_path / "results.json"
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--all",
         "--scale", "0.05", "--seconds", "10", "--json", str(results)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    assert time.perf_counter() - started < 60.0
    collected = json.loads(results.read_text())
    assert set(collected) == {w.name for w in WORKLOADS}
    declared = {m["name"] for m in run.spec()["end_to_end"]} | {
        m["name"] for m in run.spec()["per_layer"]}
    for rows in collected.values():
        assert set(rows) == declared
