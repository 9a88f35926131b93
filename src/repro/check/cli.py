"""``python -m repro check`` — the exploration checker's entry point.

Modes:

- ``dfs``     — exhaustive depth-bounded DFS over same-time tie-breaks of
  one small deterministic scenario (2-3 processes);
- ``random``  — seeded random sampling of scenarios (3-6 processes,
  crashes and partitions included); a violation is shrunk and dumped;
- ``mutants`` — run the random explorer against deliberately broken
  protocol variants and *expect* violations (checker self-test);
- ``replay``  — re-execute a dumped counterexample file;
- ``storage`` — seeded storage-fault campaigns on the durable file-log
  backend (randomized crash+fault runs, or the crash-at-every-fsync
  boundary sweep), each run judged by the same runner.

Exit status is 0 when the world looks as expected (clean exploration,
every mutant caught, replay reproduces the violation) and 1 otherwise.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence, Union

from repro.check.explorer import (
    BoundedDFSExplorer,
    RandomExplorer,
    RandomScenarioSampler,
)
from repro.check.mutants import MUTANTS
from repro.check.scenario import Injection, Scenario, run_scenario
from repro.check.shrinker import (
    dump_counterexample,
    load_counterexample,
    shrink,
)
from repro.check.storage_campaign import (
    fault_campaign,
    fsync_sweep,
    sweep_baseline,
)
from repro.core.protocol import KOptimisticProcess


def small_scenario(n: int = 2, k: Optional[int] = 1, tokens: int = 3,
                   horizon: float = 30.0,
                   crash: Union[None, int, Sequence[int]] = None) -> Scenario:
    """The DFS workhorse: a tiny deterministic token scenario.

    ``crash`` names a pid that crashes at ``horizon / 2``, or a pair of
    distinct pids: the second crashes half a flush interval after the
    first, so both crashes fall inside one flush interval."""
    injections = [
        Injection(time=1.0 + 2.0 * i, dst=i % n, token=i, hops=2,
                  emit_output=(i == tokens - 1))
        for i in range(tokens)
    ]
    pids = [crash] if isinstance(crash, int) else list(crash or ())
    if len(pids) > 2 or len(set(pids)) < len(pids):
        raise ValueError(f"crash takes one pid or two distinct pids, "
                         f"got {pids}")
    scenario = Scenario(n=n, k=k, seed=0, horizon=horizon,
                        injections=injections)
    scenario.crashes = [(horizon / 2 + i * scenario.flush_interval / 2, pid)
                        for i, pid in enumerate(pids)]
    return scenario


def _report_found(stats, out: Optional[str]) -> int:
    """Print the violation an exploration found, shrink it and write the
    shrunk counterexample to ``out``; exit status 1."""
    print(f"VIOLATION after {stats.runs} run(s):")
    for violation in stats.result.violations[:5]:
        print("  *", violation)
    shrunk = shrink(stats.counterexample)
    found = shrunk.scenario
    print(f"shrunk in {shrunk.runs} runs: "
          f"{len(found.injections)} injection(s), "
          f"{len(found.crashes)} crash(es), "
          f"{len(found.partitions)} partition(s), "
          f"{len(found.storage_faults)} storage fault(s), "
          f"horizon {found.horizon}, "
          f"trace {shrunk.trace_length} event(s)")
    if out:
        dump_counterexample(out, found, shrunk.result)
        print(f"counterexample written to {out} "
              f"(replay: python -m repro check replay {out})")
    return 1


def cmd_dfs(args: argparse.Namespace) -> int:
    try:
        scenario = small_scenario(n=args.n, k=args.k, tokens=args.tokens,
                                  horizon=args.horizon, crash=args.crash)
    except ValueError as exc:
        raise SystemExit(f"check dfs: {exc}")
    explorer = BoundedDFSExplorer(scenario, max_depth=args.depth,
                                  max_runs=args.max_runs)
    stats = explorer.explore()
    if stats.found:
        return _report_found(stats, args.out)
    coverage = "exhausted" if stats.exhausted else "budget-capped"
    print(f"dfs clean: {stats.runs} schedule(s), depth<={args.depth} "
          f"({coverage}), max branching {stats.max_branching}, "
          f"max release revokers {stats.max_release_revokers}")
    return 0


def cmd_random(args: argparse.Namespace) -> int:
    sampler = RandomScenarioSampler(seed=args.seed)
    explorer = RandomExplorer(sampler, runs=args.runs)
    stats = explorer.explore()
    if stats.found:
        return _report_found(stats, args.out)
    print(f"random clean: {stats.runs} scenario(s) sampled from seed "
          f"{args.seed}, max branching {stats.max_branching}, "
          f"max release revokers {stats.max_release_revokers}")
    return 0


def cmd_mutants(args: argparse.Namespace) -> int:
    names = sorted(MUTANTS) if args.mutant == "all" else [args.mutant]
    # An empty registry catches nothing; it must not read as a pass.
    all_caught = bool(names)
    for name in names:
        sampler = RandomScenarioSampler(seed=args.seed)
        explorer = RandomExplorer(sampler, runs=args.runs,
                                  protocol=MUTANTS[name])
        stats = explorer.explore()
        if not stats.found:
            print(f"{name}: NOT CAUGHT in {stats.runs} scenario(s)")
            all_caught = False
            continue
        shrunk = shrink(stats.counterexample,
                        protocol=MUTANTS[name])
        print(f"{name}: caught after {stats.runs} scenario(s); "
              f"shrunk to trace of {shrunk.trace_length} event(s)")
        if args.out_dir:
            path = f"{args.out_dir}/counterexample_{name}.json"
            dump_counterexample(path, shrunk.scenario, shrunk.result,
                                mutant=name)
            print(f"  written to {path}")
    return 0 if all_caught else 1


def cmd_replay(args: argparse.Namespace) -> int:
    scenario, mutant = load_counterexample(args.path)
    result = run_scenario(
        scenario, MUTANTS[mutant] if mutant else KOptimisticProcess)
    against = f" against mutant {mutant}" if mutant else ""
    if result.violations:
        print(f"replayed {args.path}{against}: violation reproduced "
              f"({result.events_executed} events)")
        for violation in result.violations[:5]:
            print("  *", violation)
        return 0
    print(f"replayed {args.path}{against}: no violation "
          f"({result.events_executed} events)")
    return 1


def cmd_storage(args: argparse.Namespace) -> int:
    if args.fault_mode == "sweep":
        baseline = sweep_baseline(seed=args.seed, n=args.n, k=args.k,
                                  horizon=args.horizon)
        first = run_scenario(baseline)
        runs = [("baseline (no crash)", first)] + [
            (f"P{pid} crash after fsync #{index}", run_scenario(scenario))
            for pid, index, scenario in fsync_sweep(
                baseline, first.fsyncs, max_points=args.max_points)]
        recoveries = sum(r.metrics.storage_recoveries for _, r in runs)
        print(f"storage sweep: {len(runs) - 1} boundary crash(es) "
              f"{_status(runs)} (baseline fsyncs per process: "
              f"{first.fsyncs}; {recoveries} REDO recoveries)")
    else:
        runs = [(f"run {index} (seed {scenario.seed}; {description})",
                 run_scenario(scenario))
                for index, (description, scenario) in enumerate(
                    fault_campaign(runs=args.runs, seed=args.seed, n=args.n,
                                   k=args.k, horizon=args.horizon))]
        total = [sum(getattr(r.metrics, name) for _, r in runs) for name in (
            "outputs_committed", "storage_recoveries", "storage_fsync_lies",
            "storage_torn_dropped", "storage_io_retries", "storage_deaths")]
        print(f"storage faults: {len(runs)} run(s) {_status(runs)}: "
              f"{total[0]} outputs committed, {total[1]} REDO recoveries, "
              f"{total[2]} fsync lies, {total[3]} torn records dropped, "
              f"{total[4]} I/O retries, {total[5]} dead-storage crashes")
    for label, result in runs:
        if result.violations:
            print(f"  {label}:")
            for violation in result.violations[:3]:
                print("    *", violation)
    return 0 if all(result.ok for _, result in runs) else 1


def _status(runs) -> str:
    failed = sum(not result.ok for _, result in runs)
    return f"{failed} FAILED" if failed else "clean"


def configure(parser: argparse.ArgumentParser) -> None:
    """Attach the check sub-commands to the ``repro check`` parser."""
    sub = parser.add_subparsers(dest="mode", required=True)

    dfs = sub.add_parser("dfs", help="bounded exhaustive schedule DFS")
    dfs.add_argument("--n", type=int, default=2)
    dfs.add_argument("--k", type=int, default=1)
    dfs.add_argument("--tokens", type=int, default=3)
    dfs.add_argument("--horizon", type=float, default=30.0)
    dfs.add_argument("--depth", type=int, default=10)
    dfs.add_argument("--max-runs", type=int, default=2000)
    dfs.add_argument("--crash", type=int, nargs="+", default=None,
                     metavar="PID",
                     help="crash PID at horizon/2; a second PID crashes "
                          "half a flush interval later")
    dfs.add_argument("--out", default=None, help="counterexample path")
    dfs.set_defaults(func=cmd_dfs)

    rnd = sub.add_parser("random", help="seeded random scenario sampling")
    rnd.add_argument("--runs", type=int, default=1000)
    rnd.add_argument("--seed", type=int, default=0)
    rnd.add_argument("--out", default=None, help="counterexample path")
    rnd.set_defaults(func=cmd_random)

    mut = sub.add_parser("mutants",
                         help="verify the checker catches broken variants")
    mut.add_argument("--mutant", choices=sorted(MUTANTS) + ["all"],
                     default="all")
    mut.add_argument("--runs", type=int, default=60)
    mut.add_argument("--seed", type=int, default=0)
    mut.add_argument("--out-dir", default=None)
    mut.set_defaults(func=cmd_mutants)

    rep = sub.add_parser("replay", help="re-execute a counterexample file")
    rep.add_argument("path")
    rep.set_defaults(func=cmd_replay)

    sto = sub.add_parser(
        "storage", help="storage-fault campaigns on the file-log backend")
    sto.add_argument("--mode", dest="fault_mode",
                     choices=("faults", "sweep"), default="faults")
    sto.add_argument("--runs", type=int, default=10,
                     help="randomized runs (mode=faults)")
    sto.add_argument("--seed", type=int, default=0)
    sto.add_argument("--n", type=int, default=6)
    sto.add_argument("--k", type=int, default=2)
    sto.add_argument("--horizon", type=float, default=300.0)
    sto.add_argument("--max-points", type=int, default=24,
                     help="sampled fsync boundaries (mode=sweep)")
    sto.set_defaults(func=cmd_storage)
