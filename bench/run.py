"""The repository's benchmark: one run of one workload.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

generates W's inputs from the seed, runs the program on them, checks the
outputs and prints every metric by name with its unit; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json`` from untraced runs, ``--trace 1`` the per-layer metrics
from a traced run (see ``tracing.py``).  An incorrect run prints the
problems it found on standard error and exits 1.

    python3 bench/run.py --all [--seed N] [--runs R] [--only W,...] [--json F]

runs every workload both ways in fresh subprocesses, R seeds each, and
writes the collected values to F for ``compare.py``.
"""

from __future__ import annotations

import time

T_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence, Tuple  # noqa: E402

import tracing  # noqa: E402
from calibrate import MARKS, Calibration  # noqa: E402
from workloads import (  # noqa: E402
    BENCH_DIR, OUT_DIR, WORKLOADS, Inputs, ServeWorkload, SimWorkload,
    run_load_client, workload_by_name,
)

#: Set-up is repeated until there are this many samples; the median counts.
SETUP_SAMPLES = {"sim": 5, "serve": 3}


@functools.lru_cache(maxsize=None)
def spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the declared metrics, their units and bounds."""
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


# -- small measurements ----------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile; 0.0 for an empty sample.  (The
    benchmark's own: a yardstick must not change with the program.)"""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def cpu_seconds() -> Tuple[float, float]:
    """(this process, waited-for children) user+system CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime,
            children.ru_utime + children.ru_stime)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def scratch_dir(workload: str, seed: int) -> str:
    """A fresh directory of this run's own under ``bench/out``."""
    path = os.path.join(OUT_DIR, f"run-{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _dirs, names in os.walk(path) for name in names)


# -- one simulated iteration -----------------------------------------------------


@dataclass
class Iteration:
    """What one timed run of a simulated workload produced."""

    #: Calibrated seconds (see ``calibrate.py``) of ``run()`` + settle.
    wall_s: float
    #: The same region in raw wall-clock seconds.
    raw_wall_s: float
    #: Calibrated user+system CPU seconds of every process of the run.
    cpu_s: float
    setup_s: float
    metrics: Any                      # repro RunMetrics
    events: int
    latencies: List[float]
    attempted: int
    failed: int
    problems: List[str]
    #: Public counters of the epoch-parallel runner (empty when serial).
    parallel: Dict[str, float] = field(default_factory=dict)
    #: Per-process public counters ``RunMetrics`` does not aggregate
    #: (zero for the parallel runner, whose processes live in its workers).
    replayed_deliveries: int = 0
    messages_logged: int = 0
    #: The finished harness, kept only when the caller certifies it.
    harness: Any = None

    @property
    def deliveries(self) -> int:
        return self.metrics.messages_delivered

    def counts(self) -> Dict[str, Any]:
        """Everything that must repeat exactly for the same inputs."""
        m = self.metrics
        return {
            "deliveries": m.messages_delivered,
            "outputs": m.outputs_committed,
            "released": m.messages_released,
            "control_messages": m.control_messages,
            "events": self.events,
            "rollbacks": m.rollbacks,
            "intervals_undone": m.intervals_undone,
            "latency_p50": percentile(self.latencies, 50.0),
            "latency_p99": percentile(self.latencies, 99.0),
            "failed": self.failed,
        }


def committed_tokens(harness: Any) -> List[Tuple[int, float, float]]:
    """``(token, t0, commit time)`` of every output the run committed."""
    if hasattr(harness, "dep_events"):  # epoch-parallel runner
        return [(data["payload"]["token"], data["payload"]["t0"], time_)
                for time_, category, _pid, data in harness.dep_events()
                if category == "dep.commit"]
    return [(record.payload["token"], record.payload["t0"], now)
            for now, record in harness.committed_outputs]


def check_outputs(inputs: Inputs, committed: List[Tuple[int, float, float]],
                  ) -> Tuple[int, List[str]]:
    """Exactly-once output: every committed output belongs to one injected
    output-emitting token and carries its injection stamp; returns how many
    such tokens never committed, and the violations found."""
    expected = inputs.expected_outputs
    problems = []
    seen = Counter(token for token, _t0, _now in committed)
    for token, t0, _now in committed:
        if token not in expected:
            problems.append(f"output for token {token} that must not emit")
        elif expected[token] != t0:
            problems.append(f"output for token {token} carries t0={t0}, "
                            f"injected at {expected[token]}")
    problems += [f"token {token} committed {count} times"
                 for token, count in seen.items() if count > 1]
    return sum(1 for token in expected if token not in seen), problems


def set_up(workload: SimWorkload, seed: int, iteration: int, scale: float,
           storage_dir: str) -> Tuple[Inputs, Any, float]:
    """Generate the inputs, build the harness (forking its workers if it
    has any) and install the stimuli; returns the seconds that took."""
    # Free the previous iteration's harness (it is cyclic garbage) first,
    # so that peak memory is one harness, not sometimes two.
    gc.collect()
    started = time.perf_counter()
    inputs = workload.inputs(seed, iteration, scale)
    harness = workload.build(inputs, storage_dir)
    return inputs, harness, time.perf_counter() - started


def run_iteration(workload: SimWorkload, seed: int, iteration: int,
                  scale: float, root: str, tag: str = "",
                  keep_harness: bool = False,
                  spans: Optional[tracing.Spans] = None) -> Iteration:
    storage_dir = os.path.join(root, f"journal-{iteration}{tag}")
    inputs, harness, setup_s = set_up(workload, seed, iteration, scale,
                                      storage_dir)
    try:
        calibration = Calibration()
        serial = not workload.parallel
        # Under tracing the kernel is a span of its own, so that its time
        # is not mistaken for the engine's.
        mark = (calibration.mark if spans is None
                else spans.wrap("bench.calibrate", calibration.mark))
        if serial:
            for i in range(1, MARKS):
                harness.engine.schedule_at(inputs.duration * i / MARKS, mark)
        own0, children0 = cpu_seconds()
        if serial:
            mark()
            harness.run(inputs.duration)
            mark()
        else:
            with calibration.background():
                harness.run(inputs.duration)
        own1, children1 = cpu_seconds()
        raw_wall_s, wall_s = calibration.seconds(concurrent=not serial)
        cpu_s = ((own1 - own0) + (children1 - children0)
                 - calibration.kernel_s()) * wall_s / raw_wall_s
        metrics = harness.metrics()
        committed = committed_tokens(harness)
        failed, problems = check_outputs(inputs, committed)
        problems += [f"violation: {v}" for v in metrics.violations]
        if len(committed) != metrics.outputs_committed:
            problems.append(
                f"{len(committed)} outputs seen, {metrics.outputs_committed} "
                f"counted by the program")
        parallel = {}
        hosts = []
        if serial:
            hosts = harness.hosts
        else:
            parallel = {"epochs": harness.epochs,
                        "cross_messages": harness.cross_messages,
                        "worker_cpu_s_sum": sum(harness.worker_cpu_s),
                        "worker_cpu_s_max": max(harness.worker_cpu_s)}
        return Iteration(
            wall_s=wall_s,
            raw_wall_s=raw_wall_s,
            cpu_s=cpu_s,
            setup_s=setup_s,
            metrics=metrics,
            events=(harness.engine.events_executed
                    - (MARKS - 1 if serial else 0)),
            latencies=[now - t0 for _token, t0, now in committed],
            attempted=len(inputs.expected_outputs),
            failed=failed,
            problems=problems,
            parallel=parallel,
            replayed_deliveries=sum(
                host.protocol.stats.replayed_deliveries for host in hosts),
            messages_logged=sum(
                host.protocol.storage.messages_logged for host in hosts),
            harness=harness if keep_harness else None,
        )
    finally:
        harness.close()
        shutil.rmtree(storage_dir, ignore_errors=True)


def require_same_counts(label: str, a: Iteration, b: Iteration,
                        keys: Optional[Sequence[str]] = None) -> List[str]:
    """Problems for every deterministic count on which two runs of the
    same inputs disagree."""
    ca, cb = a.counts(), b.counts()
    return [f"{label}: {key} differs between runs of the same inputs: "
            f"{ca[key]} != {cb[key]}"
            for key in (keys or ca) if ca[key] != cb[key]]


# -- simulated workloads: the two kinds of run -----------------------------------


def run_sim_untraced(workload: SimWorkload, seed: int, seconds: float,
                     scale: float, import_s: float) -> Dict[str, Any]:
    root = scratch_dir(workload.name, seed)
    try:
        count = max(1, round(seconds / workload.iteration_s))
        runs = [run_iteration(workload, seed, i, scale, root)
                for i in range(count)]
        setups = [run.setup_s for run in runs]
        # An epoch-parallel harness that never ran cannot be torn down
        # cleanly (its workers' shared-memory arenas leak until exit), so
        # that workload's samples are its timed iterations only.
        while not workload.parallel and len(setups) < SETUP_SAMPLES["sim"]:
            _inputs, harness, setup_s = set_up(
                workload, seed, 0, scale, os.path.join(root, "journal-setup"))
            harness.close()
            shutil.rmtree(os.path.join(root, "journal-setup"),
                          ignore_errors=True)
            setups.append(setup_s)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    latencies = [sample for run in runs for sample in run.latencies]
    values = {
        "deliveries_per_s": statistics.median(
            run.deliveries / run.wall_s for run in runs),
        "outputs_per_s": statistics.median(
            run.metrics.outputs_committed / run.wall_s for run in runs),
        "cpu_ms_per_delivery": statistics.median(
            1e3 * run.cpu_s / run.deliveries for run in runs),
        "commit_latency_p50_vt": percentile(latencies, 50.0),
        "commit_latency_p99_vt": percentile(latencies, 99.0),
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    walls = [run.wall_s for run in runs]
    raw_walls = [run.raw_wall_s for run in runs]
    notes = [
        f"iterations {count}  calibrated wall_s median "
        f"{statistics.median(walls):.3f} min {min(walls):.3f} max "
        f"{max(walls):.3f}  raw wall_s median "
        f"{statistics.median(raw_walls):.3f} min {min(raw_walls):.3f} max "
        f"{max(raw_walls):.3f}",
        f"latency samples {len(latencies)}  deliveries "
        f"{sum(run.deliveries for run in runs)}  import_s {import_s:.3f}",
    ]
    return {
        "values": values,
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "problems": [p for run in runs for p in run.problems],
        "notes": notes,
    }


def certify(harness: Any, n: int, k: int) -> Tuple[List[str], float, float]:
    """Post-hoc certification of a finished run's ``dep.*`` trace; returns
    the violations, the seconds it took and the peak-RSS growth in MB."""
    from repro.oracle.ingest import certify_events, certify_tracer

    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    started = time.perf_counter()
    if hasattr(harness, "dep_events"):  # epoch-parallel runner
        verdict = certify_events(
            [{"time": t, "category": c, "process": p, "data": d}
             for t, c, p, d in harness.dep_events()], n, k)
    else:
        verdict = certify_tracer(harness.tracer, n, k)
    seconds = time.perf_counter() - started
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems = [f"certification: {v}" for v in verdict.violations]
    if verdict.counts["commits"] == 0:
        problems.append("certification saw no commit: vacuous pass")
    return problems, seconds, (rss1 - rss0) / 1024.0


def probe_tables(n: int) -> Tuple[float, float]:
    """Micro-probes on a log table built through the public API at the
    workload's n: ns per ``covers`` lookup, us per snapshot merge."""
    from repro.core.entry import Entry
    from repro.core.tables import LoggingProgressTable

    table, other = LoggingProgressTable(n), LoggingProgressTable(n)
    for pid in range(n):
        table.insert(pid, Entry(0, pid % 7 + 1))
        other.insert(pid, Entry(0, pid % 5 + 2))
    entry = Entry(0, 3)
    loops = 20_000
    started = time.perf_counter_ns()
    for i in range(loops):
        table.covers(i % n, entry)
    lookup_ns = (time.perf_counter_ns() - started) / loops
    snapshot = other.snapshot_columns()
    loops = 200
    started = time.perf_counter_ns()
    for _ in range(loops):
        table.merge_snapshot(snapshot)
    merge_us = (time.perf_counter_ns() - started) / loops / 1e3
    return lookup_ns, merge_us


def run_sim_traced(workload: SimWorkload, seed: int, scale: float,
                   ) -> Dict[str, Any]:
    """Two untraced runs and one traced run of the same inputs (for the
    parallel workload: its serial twin, then two parallel runs, the second
    with the parent-side wrappers)."""
    root = scratch_dir(workload.name, seed)
    spans = tracing.Spans()
    problems: List[str] = []
    values = dict.fromkeys((m["name"] for m in spec()["per_layer"]), 0.0)
    try:
        if workload.twin is None:
            first = run_iteration(workload, seed, 0, scale, root, "a")
            layers = tracing.SERIAL_SIM_LAYERS
        else:
            first = run_iteration(workload_by_name(workload.twin), seed, 0,
                                  scale, root, "twin")
            layers = tracing.PARALLEL_LAYERS
        plain = run_iteration(workload, seed, 0, scale, root, "b",
                              keep_harness=workload.certify)
        installation = tracing.install(spans, layers)
        try:
            traced = run_iteration(workload, seed, 0, scale, root, "traced",
                                   spans=spans)
        finally:
            installation.uninstall()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    problems += first.problems + plain.problems + traced.problems
    problems += require_same_counts("traced vs untraced", plain, traced)
    if workload.twin is None:
        problems += require_same_counts("repeat", first, plain)
        untraced_walls = [first.wall_s, plain.wall_s]
    else:
        problems += require_same_counts(
            f"{workload.name} vs {workload.twin}", first, plain,
            keys=("deliveries", "outputs", "latency_p50", "latency_p99",
                  "failed"))
        untraced_walls = [plain.wall_s]
        values["parallel.speedup_vs_serial"] = first.wall_s / plain.wall_s
    if workload.certify:
        found, values["oracle.certify_s"], values["oracle.certify_rss_mb"] = (
            certify(plain.harness, workload.n, workload.config["k"]))
        problems += found

    os.makedirs(OUT_DIR, exist_ok=True)
    spans.dump_jsonl(os.path.join(OUT_DIR, f"{workload.name}.spans.jsonl"))
    # Only what ran inside the timed region counts towards a layer.
    by_name = spans.by_name(
        under="parallel.run" if workload.twin else "runtime.harness.run")
    layer_s = tracing.layer_self_s(by_name, layers)
    m = traced.metrics
    deliveries = max(1, m.messages_delivered)

    def span(name: str, key: str = "total_s") -> float:
        return by_name.get(name, {}).get(key, 0.0)

    values.update({
        "sim.events": traced.events,
        "sim.events_per_delivery": traced.events / deliveries,
        "sim.schedule_calls": sum(
            span(f"sim.{name}", "calls")
            for name in ("schedule_at", "schedule_at_raw")),
        "sim.self_s": layer_s.get("sim", 0.0),
        "sim.trace.records": span("sim.trace.record", "calls"),
        "sim.trace.self_s": layer_s.get("sim.trace", 0.0),
        "net.app_sent": m.messages_released,
        "net.control_sent": m.control_messages,
        "net.control_per_delivery": m.control_messages / deliveries,
        "net.piggyback_entries_mean": m.mean_piggyback_entries,
        "net.drops": m.app_drops + m.control_drops,
        "net.duplicates_injected": m.duplicates_injected,
        "net.retransmits": (m.retransmissions + m.timer_retransmissions
                            + m.ctl_retransmits),
        "net.self_s": layer_s.get("net", 0.0),
        "core.protocol.self_s": layer_s.get("core.protocol", 0.0),
        "core.protocol.on_receive_s": span("core.protocol.on_receive"),
        "core.protocol.on_log_notifications_s":
            span("core.protocol.on_log_notifications"),
        "core.protocol.flush_s": span("core.protocol.flush"),
        "core.protocol.checkpoint_s": span("core.protocol.checkpoint"),
        "core.protocol.restart_s": span("core.protocol.restart"),
        "core.protocol.on_failure_announcement_s":
            span("core.protocol.on_failure_announcement"),
        "core.protocol.send_hold_mean_vt": m.mean_send_hold,
        "core.protocol.orphans_discarded": m.orphans_discarded,
        "core.protocol.rollbacks": m.rollbacks,
        "core.protocol.replayed_deliveries": traced.replayed_deliveries,
        "core.tables.merge_calls": (
            span("core.tables.merge_snapshot", "calls")
            + span("core.tables.merge_snapshots", "calls")),
        "core.tables.merge_s": (span("core.tables.merge_snapshot", "self_s")
                                + span("core.tables.merge_snapshots", "self_s")),
        "core.tables.snapshot_calls": span("core.tables.snapshot_columns",
                                           "calls"),
        "core.tables.snapshot_s": span("core.tables.snapshot_columns"),
        "core.output.update_s": span("core.output.update"),
        "core.output.commit_wait_mean_vt": m.mean_output_latency,
        "core.output.discarded": m.outputs_discarded,
        "storage.self_s": layer_s.get("storage", 0.0),
        "storage.fsyncs": m.storage_fsyncs,
        "storage.bytes_fsynced": m.storage_bytes_fsynced,
        "storage.fsynced_bytes_per_output":
            m.storage_bytes_fsynced / max(1, m.outputs_committed),
        "storage.group_commits": m.storage_group_commits,
        "storage.records_per_group_commit":
            traced.messages_logged / m.storage_group_commits
            if m.storage_group_commits else 0.0,
        "storage.sync_writes": m.sync_writes,
        "storage.async_writes": m.async_writes,
        "storage.recoveries": m.storage_recoveries,
        "storage.recover_ms_p50":
            1e3 * percentile(spans.durations_s("storage.recover"), 50.0),
        "storage.recovered_records": m.storage_recovered_records,
        "runtime.host_self_s": layer_s.get("runtime.host", 0.0),
        "runtime.executor_self_s": layer_s.get("runtime.executor", 0.0),
        "runtime.harness_self_s": layer_s.get("runtime.harness", 0.0),
        "runtime.settle_s": span("runtime.harness.settle"),
        "runtime.metrics_s": sum(spans.durations_s("runtime.harness.metrics")),
        "oracle.inline_self_s": layer_s.get("oracle", 0.0),
        "control.observe_calls": span("control.observe", "calls"),
        "control.self_s": layer_s.get("control", 0.0),
        "control.k_mean": m.k_mean,
        "control.k_decisions": m.k_decisions,
        "app.on_message_self_s": layer_s.get("app", 0.0),
        "recovery.undone_intervals_per_crash":
            m.intervals_undone / max(1, m.crashes),
        "recovery.span_vt": m.mean_recovery_span,
        "bench.trace_overhead_frac":
            traced.wall_s / statistics.median(untraced_walls) - 1.0,
        "bench.repeat_spread_frac":
            (max(untraced_walls) - min(untraced_walls))
            / statistics.median(untraced_walls),
        "bench.attributed_frac": sum(layer_s.values()) / traced.raw_wall_s,
    })
    values["core.tables.lookup_ns"], values["core.tables.merge_us"] = (
        probe_tables(workload.n))
    if traced.parallel:
        values.update({f"parallel.{key}": value
                       for key, value in traced.parallel.items()})
        values["parallel.barrier_overhead_s"] = (
            traced.raw_wall_s - traced.parallel["worker_cpu_s_max"])
    notes = [f"calibrated wall: traced {traced.wall_s:.3f} s, untraced "
             f"{statistics.median(untraced_walls):.3f} s; raw traced wall "
             f"{traced.raw_wall_s:.3f} s, {len(spans.start_ns)} spans"]
    notes += [f"share of traced wall  {layer:<18} "
              f"{seconds / traced.raw_wall_s:6.1%}  {seconds:8.3f} s"
              for layer, seconds in sorted(layer_s.items(),
                                           key=lambda item: -item[1])]
    return {
        "values": values,
        "attempted": first.attempted + plain.attempted + traced.attempted,
        "failed": first.failed + plain.failed + traced.failed,
        "problems": problems,
        "notes": notes,
    }


# -- the live stack --------------------------------------------------------------


@dataclass
class ServeRun:
    spawn_s: float
    makespan_s: float
    #: Raw CPU seconds: the coordinator (with the load client) after
    #: set-up, and the workers over their whole life.
    own_cpu_s: float
    children_cpu_s: float
    #: Calibrated over raw seconds during the load (see ``calibrate.py``).
    speed: float
    deliveries: int
    outputs: int
    latencies_vt: List[float]
    lags_s: List[float]
    attempted: int
    failed: int
    problems: List[str]
    trace_bytes: int
    journal_bytes: int


async def _serve(workload: ServeWorkload, stimuli: List[Dict[str, Any]],
                 run_dir: str, seed: int) -> ServeRun:
    from repro.backplane.coordinator import Coordinator, ServePlan

    started = time.perf_counter()
    seconds = stimuli[-1]["due"] if stimuli else 0.0
    coordinator = Coordinator(ServePlan(
        n=workload.n, k=workload.k, seed=seed, behavior="hopchain",
        timescale=workload.timescale, duration=seconds / workload.timescale,
        rate=0.0, run_dir=run_dir))
    running = asyncio.ensure_future(coordinator.run())
    manifest = os.path.join(run_dir, "run.json")
    while not (os.path.exists(manifest)
               and len(coordinator.hello_events) == workload.n):
        if running.done():
            running.result()  # raises what stopped the coordinator
        await asyncio.sleep(0.002)
    with open(manifest, encoding="utf-8") as fh:
        port = json.load(fh)["port"]
    for pid in range(workload.n):
        await coordinator.hello_events[pid].wait()
    spawn_s = time.perf_counter() - started

    # Workers' CPU is only known once they are waited for, so theirs covers
    # their whole life; the coordinator's starts here, after set-up.
    own0, children0 = cpu_seconds()
    load_started = time.time()
    calibration = Calibration()
    with calibration.background():
        due_at, lags = await run_load_client(port, stimuli)
        report = await running
    own1, children1 = cpu_seconds()
    raw_s, calibrated_s = calibration.seconds(concurrent=True)

    commits: List[Tuple[str, float]] = []
    trace_dir = os.path.join(run_dir, "trace")
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                if record["category"] == "dep.commit":
                    commits.append((record["data"]["payload"]["tag"],
                                    record["time"]))
    problems = [f"certification: {v}" for v in report.violations]
    seen = Counter(tag for tag, _time in commits)
    problems += [f"tag {tag} committed {count} times"
                 for tag, count in seen.items() if count > 1]
    problems += [f"output for unknown tag {tag}"
                 for tag in seen if tag not in due_at]
    if stimuli and not commits:
        problems.append("no output committed")
    return ServeRun(
        spawn_s=spawn_s,
        makespan_s=max((t for _tag, t in commits),
                       default=time.time()) - load_started,
        own_cpu_s=own1 - own0 - calibration.kernel_s(),
        children_cpu_s=children1 - children0,
        speed=calibrated_s / raw_s,
        deliveries=report.deliveries,
        outputs=len(seen),
        latencies_vt=[(t - due_at[tag]) / workload.timescale
                      for tag, t in commits if tag in due_at],
        lags_s=lags,
        attempted=len(stimuli),
        failed=sum(1 for tag in due_at if tag not in seen),
        problems=problems,
        trace_bytes=tree_bytes(trace_dir),
        journal_bytes=tree_bytes(os.path.join(run_dir, "storage")),
    )


def serve(workload: ServeWorkload, seed: int, iteration: int, seconds: float,
          root: str, tag: str) -> ServeRun:
    run_dir = os.path.join(root, f"serve-{tag}")
    os.makedirs(run_dir)
    try:
        return asyncio.run(_serve(
            workload, workload.stimuli(seed, iteration, seconds), run_dir,
            seed))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run_serve_untraced(workload: ServeWorkload, seed: int, seconds: float,
                       scale: float, import_s: float) -> Dict[str, Any]:
    root = scratch_dir(workload.name, seed)
    try:
        run = serve(workload, seed, 0, seconds * scale, root, "timed")
        spawns = [run.spawn_s]
        while len(spawns) < SETUP_SAMPLES["serve"]:
            spawns.append(serve(workload, seed, 0, 0.0, root,
                                f"setup{len(spawns)}").spawn_s)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    deliveries = max(1, run.deliveries)
    values = {
        "deliveries_per_s": run.deliveries / run.makespan_s,
        "outputs_per_s": run.outputs / run.makespan_s,
        "cpu_ms_per_delivery":
            1e3 * (run.own_cpu_s + run.children_cpu_s) * run.speed
            / deliveries,
        "commit_latency_p50_vt": percentile(run.latencies_vt, 50.0),
        "commit_latency_p99_vt": percentile(run.latencies_vt, 99.0),
        "setup_s": import_s + statistics.median(spawns),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [f"stimuli {run.attempted}  deliveries {run.deliveries}  "
             f"makespan_s {run.makespan_s:.3f}  latency samples "
             f"{len(run.latencies_vt)}  generator lag p99 "
             f"{1e3 * percentile(run.lags_s, 99.0):.2f} ms  raw CPU "
             f"{run.own_cpu_s + run.children_cpu_s:.3f} s x calibration "
             f"{run.speed:.3f}"]
    return {"values": values, "attempted": run.attempted,
            "failed": run.failed, "problems": run.problems, "notes": notes}


def probe_codec(n: int) -> Tuple[float, float]:
    """us per encode and per decode of one application message."""
    from repro.backplane.codec import decode_app, encode_app
    from repro.core.depvec import DependencyVector
    from repro.core.entry import Entry
    from repro.net.message import AppMessage
    from repro.types import MessageId

    msg = AppMessage(
        msg_id=MessageId(0, 0, 7, 1), src=0, dst=1,
        payload={"tag": "t000001", "hops": 2},
        tdv=DependencyVector(n, {pid: Entry(0, 5 + pid) for pid in range(n)}),
        send_interval=Entry(0, 7))
    loops = 5_000
    started = time.perf_counter_ns()
    for _ in range(loops):
        raw = encode_app(msg)
    encode_us = (time.perf_counter_ns() - started) / loops / 1e3
    started = time.perf_counter_ns()
    for _ in range(loops):
        decode_app(n, raw)
    decode_us = (time.perf_counter_ns() - started) / loops / 1e3
    return encode_us, decode_us


def run_serve_traced(workload: ServeWorkload, seed: int, seconds: float,
                     scale: float) -> Dict[str, Any]:
    """Half the time untraced, half with the coordinator-side wrappers:
    the load is paced, so tracing overhead shows in CPU, not in wall."""
    # Imported here so that the first of the two runs does not pay for it.
    import repro.backplane.coordinator  # noqa: F401

    root = scratch_dir(workload.name, seed)
    spans = tracing.Spans()
    half = seconds * scale / 2.0
    try:
        plain = serve(workload, seed, 0, half, root, "plain")
        installation = tracing.install(spans, tracing.SERVE_LAYERS)
        try:
            traced = serve(workload, seed, 0, half, root, "traced")
        finally:
            installation.uninstall()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans.dump_jsonl(os.path.join(OUT_DIR, f"{workload.name}.spans.jsonl"))
    by_name = spans.by_name()
    deliveries = max(1, traced.deliveries)
    values = dict.fromkeys((m["name"] for m in spec()["per_layer"]), 0.0)
    encode_us, decode_us = probe_codec(workload.n)
    values.update({
        "backplane.spawn_s": traced.spawn_s,
        "backplane.frames_routed": by_name["backplane.read_frame"]["calls"],
        "backplane.wire_bytes_per_delivery":
            spans.sizes["backplane.encode_frame"] / deliveries,
        "backplane.trace_bytes_per_delivery": traced.trace_bytes / deliveries,
        "backplane.journal_bytes_per_delivery":
            traced.journal_bytes / deliveries,
        "backplane.coordinator_cpu_s": traced.own_cpu_s,
        "backplane.worker_cpu_s_sum": traced.children_cpu_s,
        "backplane.generator_lag_ms_p99":
            1e3 * percentile(traced.lags_s, 99.0),
        "backplane.codec_encode_us": encode_us,
        "backplane.codec_decode_us": decode_us,
        "oracle.certify_s": by_name["oracle.certify_traces"]["total_s"],
        "bench.trace_overhead_frac":
            (traced.own_cpu_s * traced.speed / deliveries)
            / (plain.own_cpu_s * plain.speed / max(1, plain.deliveries)) - 1.0,
    })
    notes = [f"{len(spans.start_ns)} spans; coordinator CPU "
             f"{traced.own_cpu_s:.3f} s traced, {plain.own_cpu_s:.3f} s plain"]
    return {"values": values,
            "attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed,
            "problems": plain.problems + traced.problems,
            "notes": notes}


# -- entry points ----------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool,
            scale: float) -> int:
    workload = workload_by_name(name)
    import_s = time.perf_counter() - T_PROCESS_START
    if workload.kind == "sim":
        result = (run_sim_traced(workload, seed, scale) if trace else
                  run_sim_untraced(workload, seed, seconds, scale, import_s))
    else:
        result = (run_serve_traced(workload, seed, seconds, scale) if trace
                  else run_serve_untraced(workload, seed, seconds, scale,
                                          import_s))
    declared = spec()["per_layer" if trace else "end_to_end"]
    values = result["values"]
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(
            f"metrics produced and metrics declared in BENCHMARK.json "
            f"differ: {sorted(set(values) ^ {m['name'] for m in declared})}")
    print(f"# {name}  seed {seed}  trace {int(trace)}")
    for note in result["notes"]:
        print(f"# {note}")
    for m in declared:
        print(f"{m['name']:<44} {values[m['name']]:>16.6g} {m['unit']}")
    for problem in result["problems"][:20]:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 1 if result["problems"] else 0


def run_all(seed: int, runs: int, only: Optional[List[str]], seconds: float,
            scale: float, json_path: Optional[str]) -> int:
    """Every workload, untraced and traced, each run in a fresh process."""
    collected: Dict[str, Dict[str, List[float]]] = {}
    status = 0
    for workload in WORKLOADS:
        if only and workload.name not in only:
            continue
        rows = collected.setdefault(workload.name, {})
        for trace in (0, 1):
            for run in range(runs if trace == 0 else 1):
                done = subprocess.run(
                    [sys.executable, os.path.abspath(__file__),
                     "--workload", workload.name, "--seed", str(seed + run),
                     "--seconds", str(seconds), "--trace", str(trace),
                     "--scale", str(scale)],
                    stdout=subprocess.PIPE, text=True)
                sys.stdout.write(done.stdout)
                if done.returncode != 0:
                    status = 1
                    continue
                result = json.loads(done.stdout.strip().splitlines()[-1])
                for name, metric in result["metrics"].items():
                    rows.setdefault(name, []).append(metric["value"])
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(collected, fh, indent=1)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (smoke tests)")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--only", type=lambda s: s.split(","))
    parser.add_argument("--json")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.runs, args.only, args.seconds,
                       args.scale, args.json)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                   args.scale)


if __name__ == "__main__":
    sys.exit(main())
