"""Differential suite: the epoch-parallel runner vs the serial engine.

The parallel runner's whole correctness claim is *bit-identical traces*:
for any scenario, running the W process slices on W worker processes
must produce exactly the dependency-trace stream (and event/delivery
counts) of serial execution.  These tests pin that claim across the
feature matrix the runner has to survive: crashes (single and storms),
fanout gossip (a pull: requests and answers between workers), delta
notifications, the durable file-log backend, and the open-loop workload
with SLO accounting.

Each parallel trace is additionally replayed through the post-hoc
dependency oracle (:func:`repro.oracle.ingest.certify_events`) and must
certify with zero violations — the same bar the serial engine's inline
oracle enforces.
"""

import dataclasses
import os
from dataclasses import replace

import pytest

from repro.failures.injector import CrashEvent, FailureSchedule
from repro.oracle.ingest import certify_events
from repro.parallel import ParallelHarness, canonical_dep_events, render_jsonl
from repro.runtime.config import SimConfig
from repro.runtime.harness import SimulationHarness
from repro.workloads.openloop import OpenLoopWorkload
from repro.workloads.random_peers import RandomPeersWorkload


def _peers(**kwargs):
    return lambda: RandomPeersWorkload(rate=2.0, **kwargs)


#: name -> (config, workload factory, failure schedule, duration)
CASES = {
    "base": (
        SimConfig(n=8, k=2, seed=11, dep_trace=True), _peers(),
        FailureSchedule.single(time=20.0, pid=3), 60.0),
    "storm": (
        SimConfig(n=12, k=3, seed=7, dep_trace=True),
        lambda: RandomPeersWorkload(rate=3.0),
        FailureSchedule([CrashEvent(15.0, 2), CrashEvent(22.5, 7),
                         CrashEvent(31.25, 4)]), 70.0),
    "fanout": (
        SimConfig(n=16, k=2, seed=3, notify_fanout=4, dep_trace=True),
        _peers(),
        FailureSchedule.single(time=25.0, pid=5), 60.0),
    # Fanout-mode pull under a crash storm: asks and answers cross worker
    # boundaries as ordinary control messages, some reach a down owner.
    "pull_storm": (
        SimConfig(n=12, k=1, seed=17, notify_fanout=2, retransmit_window=8,
                  notify_interval=6.0, dep_trace=True), _peers(),
        FailureSchedule([CrashEvent(14.0, 3), CrashEvent(21.5, 9),
                         CrashEvent(33.25, 3)]), 70.0),
    "delta": (
        SimConfig(n=10, k=2, seed=5, delta_notifications=True,
                  dep_trace=True), _peers(),
        FailureSchedule.single(time=18.0, pid=1), 60.0),
    "filelog": (
        SimConfig(n=6, k=1, seed=9, storage_backend="filelog",
                  dep_trace=True), _peers(),
        FailureSchedule.single(time=20.0, pid=2), 50.0),
    "openloop": (
        SimConfig(n=8, k=2, seed=13, slo_output_latency=20.0,
                  dep_trace=True),
        lambda: OpenLoopWorkload(rate=2.0, output_fraction=0.5),
        FailureSchedule.single(time=20.0, pid=3), 60.0),
}

#: Serial reference per case, computed once per session.
_reference = {}


def _run_serial(name):
    config, make_workload, failures, duration = CASES[name]
    workload = make_workload()
    harness = SimulationHarness(config, workload.behavior(),
                                failures=failures)
    try:
        workload.install(harness, until=duration * 0.8)
        harness.run(duration)
        return (
            render_jsonl(canonical_dep_events(harness.tracer.events)),
            harness.engine.events_executed,
            harness.metrics().messages_delivered,
        )
    finally:
        harness.close()


def reference(name):
    if name not in _reference:
        ref = _run_serial(name)
        # Bit-identical *empty* traces would prove nothing: every case
        # must actually exercise the dep.* emission path.
        assert ref[0], f"case {name!r} produced an empty dep trace"
        _reference[name] = ref
    return _reference[name]


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("name", sorted(CASES))
def test_parallel_matches_serial_bit_identically(name, workers):
    config, make_workload, failures, duration = CASES[name]
    workload = make_workload()
    parallel_config = replace(config, parallel_workers=workers,
                              oracle_enabled=False, check_invariants=False)
    harness = ParallelHarness(parallel_config, workload.behavior(),
                              failures=failures, workload=workload,
                              install_until=duration * 0.8)
    try:
        harness.run(duration)
        dep = harness.dep_events()
        dump = render_jsonl(dep)
        ref_dump, ref_events, ref_delivered = reference(name)
        assert dump == ref_dump
        assert harness.engine.events_executed == ref_events
        assert harness.metrics().messages_delivered == ref_delivered

        # The parallel run must also stand on its own: replay its trace
        # through the post-hoc oracle and demand zero violations.
        events = [{"time": t, "category": c, "process": p, "data": d}
                  for t, c, p, d in canonical_dep_events(dep)]
        k = config.k if config.k is not None else config.n
        certification = certify_events(events, config.n, k)
        assert certification.violations == []
    finally:
        harness.close()


def _journal_sizes(storage_dir):
    """Bytes on disk per process journal (``pNNN`` directory)."""
    return {
        name: sum(os.path.getsize(os.path.join(storage_dir, name, f))
                  for f in os.listdir(os.path.join(storage_dir, name)))
        for name in sorted(os.listdir(storage_dir))
    }


@pytest.mark.parametrize("workers", [2, 3])
def test_filelog_journals_have_one_writer(tmp_path, workers):
    """A worker builds (and so opens and initializes) only the journals of
    the processes it hosts: after the build every journal is exactly what
    the serial build leaves — one initial-checkpoint frame — and the
    crash scenario's merged metrics equal the serial twin's, down to the
    records its REDO scans recovered."""
    config, make_workload, failures, duration = CASES["filelog"]
    config = replace(config, oracle_enabled=False, check_invariants=False)
    twin_config = replace(config, storage_dir=str(tmp_path / "serial"))
    workload = make_workload()
    twin = SimulationHarness(twin_config, workload.behavior(),
                             failures=failures)
    try:
        built = _journal_sizes(twin_config.storage_dir)
        workload.install(twin, until=duration * 0.8)
        twin.run(duration)
        twin_metrics = dataclasses.asdict(twin.metrics())
        twin_dump = render_jsonl(canonical_dep_events(twin.tracer.events))
    finally:
        twin.close()
    assert len(built) == config.n and len(set(built.values())) == 1

    workload = make_workload()
    parallel_config = replace(config, parallel_workers=workers,
                              storage_dir=str(tmp_path / "parallel"))
    harness = ParallelHarness(parallel_config, workload.behavior(),
                              failures=failures, workload=workload,
                              install_until=duration * 0.8)
    try:
        assert _journal_sizes(parallel_config.storage_dir) == built
        harness.run(duration)
        metrics = dataclasses.asdict(harness.metrics())
        assert harness.worker_hosts == [
            len(range(w, config.n, workers)) for w in range(workers)]
        assert render_jsonl(harness.dep_events()) == twin_dump
    finally:
        harness.close()
    assert metrics["storage_recoveries"] == 1
    assert metrics["storage_recovered_records"] > 0
    # Not functions of the run: wall-clock seconds, and pickled record
    # sizes (a message that crossed the worker pipe no longer shares
    # string objects with its sender's state, so pickle memoizes less).
    for name in ("storage_recovery_wall_s", "storage_bytes_written",
                 "storage_bytes_fsynced"):
        assert metrics.pop(name) > 0 and twin_metrics.pop(name) > 0
    # Float totals are summed per worker first: equal up to the last ulp.
    for name in [name for name, value in twin_metrics.items()
                 if isinstance(value, float)]:
        assert metrics.pop(name) == pytest.approx(twin_metrics.pop(name),
                                                  rel=1e-12)
    assert metrics == twin_metrics
