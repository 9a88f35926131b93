"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``experiment <name>`` — run one reproduction experiment
  (figure1, tradeoff, recovery, vector_size, comparison, output_commit,
  direct_tracking, scalability, sender_based, ablations, multiseed,
  unreliable, adaptive_k, all);
- ``simulate``           — run one ad-hoc simulation and print its metrics;
- ``check``              — systematic schedule/fault exploration
  (``dfs``, ``random``, ``mutants``, ``replay``; see docs/TESTING.md);
- ``serve``              — run the protocol over a real asyncio TCP
  backplane: one OS process per recovery unit, SIGKILL crash injection,
  post-hoc oracle certification (see docs/RUNTIME.md);
- ``load``               — inject deterministic load into a running
  ``serve`` coordinator;
- ``list``               — list the available experiments and workloads.

(``serve-worker`` is internal: the coordinator spawns it, one per
recovery unit.)
"""

from __future__ import annotations

import argparse
import sys

#: Module paths, imported only when an experiment runs (``serve-worker``
#: starts through this module); ``all`` runs the others in this order.
EXPERIMENTS = {
    "figure1": "repro.experiments.figure1",
    "tradeoff": "repro.experiments.tradeoff",
    "recovery": "repro.experiments.recovery",
    "vector_size": "repro.experiments.vector_size",
    "comparison": "repro.experiments.comparison",
    "output_commit": "repro.experiments.output_commit",
    "ablations": "repro.experiments.ablations",
    "direct_tracking": "repro.experiments.direct_tracking",
    "scalability": "repro.experiments.scalability",
    "sender_based": "repro.experiments.sender_based",
    "unreliable": "repro.experiments.unreliable",
    "multiseed": "repro.experiments.multiseed",
    "exploration": "repro.experiments.exploration",
    "adaptive_k": "repro.experiments.adaptive_k",
    "all": "repro.experiments.all",
}

WORKLOADS = ["random_peers", "client_server", "pipeline", "telecom",
             "openloop"]


def _make_workload(name: str, rate: float):
    from repro.workloads.client_server import ClientServerWorkload
    from repro.workloads.openloop import OpenLoopWorkload
    from repro.workloads.pipeline import PipelineWorkload
    from repro.workloads.random_peers import RandomPeersWorkload
    from repro.workloads.telecom import TelecomWorkload

    factories = {
        "random_peers": RandomPeersWorkload,
        "client_server": ClientServerWorkload,
        "pipeline": PipelineWorkload,
        "telecom": TelecomWorkload,
        "openloop": OpenLoopWorkload,
    }
    return factories[name](rate=rate)


def cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    module = importlib.import_module(EXPERIMENTS[args.name])
    module.main()
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.failures.injector import FailureSchedule
    from repro.runtime.config import SimConfig
    from repro.runtime.harness import SimulationHarness
    from repro.runtime.metrics import format_table

    if args.crash is not None and not 0 <= args.crash < args.n:
        print(f"--crash {args.crash} out of range for --n {args.n}",
              file=sys.stderr)
        return 2
    parallel = args.parallel_workers or 0
    extra = {}
    if parallel > 1:
        # The epoch runner certifies post-hoc from dep.* traces; the
        # inline oracle cannot see across worker processes.
        extra = {"parallel_workers": parallel, "oracle_enabled": False,
                 "check_invariants": False, "trace_prefix": "dep.",
                 "dep_trace": True}
    config = SimConfig(n=args.n, k=args.k, seed=args.seed,
                       output_driven_logging=args.output_driven_logging,
                       notify_fanout=args.notify_fanout,
                       adaptive_k=args.adaptive_k,
                       slo_output_latency=args.slo, **extra)
    workload = _make_workload(args.workload, args.rate)
    failures = FailureSchedule.none()
    if args.crash is not None:
        failures = FailureSchedule.single(args.duration / 2, args.crash)
    if parallel > 1:
        from repro.parallel import ParallelHarness

        harness = ParallelHarness(config, workload.behavior(),
                                  failures=failures, workload=workload,
                                  install_until=args.duration * 0.8)
        harness.run(args.duration)
        metrics = harness.metrics()
        print(format_table([metrics.as_row()]))
        print(f"\nparallel run: {parallel} workers, {harness.epochs} epochs, "
              f"{harness.cross_messages} cross-worker messages")
        from repro.oracle.ingest import certify_events

        events = [{"time": t, "category": c, "process": p, "data": d}
                  for t, c, p, d in harness.dep_events()]
        cert = certify_events(events, config.n, config.resolved_k())
        harness.close()
        if cert.violations:
            print("\nCERTIFICATION VIOLATIONS:")
            for violation in cert.violations[:10]:
                print(" *", violation)
            return 1
        if not events:
            print("CERTIFICATION EMPTY: no dep.* events were traced")
            return 1
        print(f"certified: no violations (post-hoc oracle over "
              f"{len(events)} dep.* events)")
        return 0
    harness = SimulationHarness(config, workload.behavior(), failures=failures)
    workload.install(harness, until=args.duration * 0.8)
    harness.run(args.duration)
    metrics = harness.metrics()
    print(format_table([metrics.as_row()]))
    if metrics.output_latency_count:
        print(f"\noutput-commit latency: p50={metrics.output_latency_p50:.2f} "
              f"p95={metrics.output_latency_p95:.2f} "
              f"p99={metrics.output_latency_p99:.2f} "
              f"({metrics.output_latency_count} samples)")
        if metrics.slo_target > 0:
            print(f"SLO target {metrics.slo_target}: "
                  f"{metrics.slo_attained:.1%} attained")
    if metrics.adaptive_k:
        print(f"adaptive K: {metrics.k_decisions} decisions, "
              f"mean K {metrics.k_mean:.2f}, "
              f"final mean K {metrics.k_final_mean:.2f}")
    if metrics.violations:
        print("\nINVARIANT VIOLATIONS:")
        for violation in metrics.violations[:10]:
            print(" *", violation)
        return 1
    print("\nno invariant violations (oracle-checked)")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.backplane.coordinator import ServePlan, run_serve

    crashes = []
    for pid in args.crash or []:
        if not 0 <= pid < args.n:
            print(f"--crash {pid} out of range for --n {args.n}",
                  file=sys.stderr)
            return 2
        crashes.append((args.duration * 0.4, pid))
    plan = ServePlan(
        n=args.n,
        k=args.k,
        seed=args.seed,
        behavior=args.behavior,
        timescale=args.timescale,
        duration=args.duration,
        rate=args.rate,
        crashes=crashes,
        restart_delay=args.restart_delay,
        run_dir=args.run_dir,
        profile=args.profile,
    )
    report = run_serve(plan)
    print(f"run dir:      {report.run_dir}")
    print(f"injected:     {report.injected} stimuli")
    print(f"crashes:      {report.crashes} (SIGKILL)")
    print(f"deliveries:   {report.deliveries}")
    print(f"committed:    {len(report.committed)} outputs")
    print(f"wall time:    {report.wall_seconds:.1f}s")
    if report.failures:
        print("\nRUN FAILURES:")
        for failure in report.failures:
            print(" *", failure)
    if report.violations:
        print("\nCERTIFICATION VIOLATIONS:")
        for violation in report.violations[:10]:
            print(" *", violation)
    if not report.ok:
        return 1
    print("\ncertified: no violations (post-hoc oracle over dep.* traces)")
    return 0


def cmd_serve_worker(args: argparse.Namespace) -> int:
    from repro.backplane.worker import main as worker_main

    return worker_main(args.pid, args.run_dir)


def cmd_load(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.backplane.loadgen import load_main

    port, n, timescale = args.port, args.n, args.timescale
    if args.run_dir is not None:
        with open(os.path.join(args.run_dir, "run.json"),
                  encoding="utf-8") as fh:
            manifest = json.load(fh)
        port = manifest["port"]
        n = manifest["n"]
        timescale = manifest["timescale"]
    if port is None or n is None:
        print("load needs --run-dir, or --port and --n", file=sys.stderr)
        return 2
    return load_main(port, n, args.seed, args.duration, args.rate,
                     timescale or 0.02, exclude=args.exclude or (),
                     profile=args.profile)


def cmd_list(_args: argparse.Namespace) -> int:
    print("experiments:")
    for name in EXPERIMENTS:
        print(f"  {name}")
    print("workloads:")
    for name in WORKLOADS:
        print(f"  {name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="K-optimistic logging (Wang/Damani/Garg, ICDCS 1997) "
                    "reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run a reproduction experiment")
    exp.add_argument("name", choices=sorted(EXPERIMENTS))
    exp.set_defaults(func=cmd_experiment)

    sim = sub.add_parser("simulate", help="run one ad-hoc simulation")
    sim.add_argument("--n", type=int, default=6, help="number of processes")
    sim.add_argument("--k", type=int, default=None,
                     help="degree of optimism (default: N)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--duration", type=float, default=800.0)
    sim.add_argument("--rate", type=float, default=0.6,
                     help="workload injection rate")
    sim.add_argument("--workload", choices=WORKLOADS, default="random_peers")
    sim.add_argument("--crash", type=int, default=None, metavar="PID",
                     help="crash this process mid-run")
    sim.add_argument("--output-driven-logging", action="store_true")
    sim.add_argument("--notify-fanout", type=int, default=None, metavar="F",
                     help="pull logging progress: each notify tick asks at "
                          "most F of the processes this one is waiting on "
                          "(default: broadcast to everyone)")
    sim.add_argument("--adaptive-k", action="store_true",
                     help="run the per-process adaptive-K controller "
                          "(see docs/CONTROL.md)")
    sim.add_argument("--slo", type=float, default=0.0,
                     help="output-commit latency SLO target in virtual "
                          "units (0 disables)")
    sim.add_argument("--parallel-workers", type=int, default=0, metavar="W",
                     help="run the epoch-parallel runner on W worker "
                          "processes (>=2; certifies post-hoc, see "
                          "docs/PERF.md)")
    sim.set_defaults(func=cmd_simulate)

    from repro.check.cli import configure as configure_check

    chk = sub.add_parser(
        "check", help="systematic schedule/fault exploration checker"
    )
    configure_check(chk)

    serve = sub.add_parser(
        "serve", help="run the protocol over a real multi-process backplane"
    )
    serve.add_argument("--n", type=int, default=4, help="number of workers")
    serve.add_argument("--k", type=int, default=None,
                       help="degree of optimism (default: N)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--duration", type=float, default=200.0,
                       help="load window in virtual time units")
    serve.add_argument("--rate", type=float, default=1.0,
                       help="stimuli per virtual unit (0: external "
                            "'repro load' drives injection)")
    serve.add_argument("--profile", choices=["uniform", "openloop"],
                       default="uniform",
                       help="built-in load arrival shape (openloop: "
                            "heavy-tailed + diurnal + bursts)")
    serve.add_argument("--timescale", type=float, default=0.02,
                       help="real seconds per virtual unit")
    serve.add_argument("--crash", type=int, action="append", metavar="PID",
                       help="SIGKILL this worker mid-run (repeatable)")
    serve.add_argument("--restart-delay", type=float, default=50.0,
                       help="virtual units between SIGKILL and respawn")
    serve.add_argument("--behavior", choices=["hopchain", "echo"],
                       default="hopchain")
    serve.add_argument("--run-dir", default=None,
                       help="run directory (default: a fresh temp dir)")
    serve.set_defaults(func=cmd_serve)

    worker = sub.add_parser("serve-worker")  # internal: spawned by serve
    worker.add_argument("--pid", type=int, required=True)
    worker.add_argument("--run-dir", required=True)
    worker.set_defaults(func=cmd_serve_worker)

    load = sub.add_parser(
        "load", help="inject deterministic load into a running serve run"
    )
    load.add_argument("--run-dir", default=None,
                      help="serve run directory (reads port/n/timescale "
                           "from its run.json)")
    load.add_argument("--port", type=int, default=None)
    load.add_argument("--n", type=int, default=None)
    load.add_argument("--timescale", type=float, default=None)
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--duration", type=float, default=200.0)
    load.add_argument("--rate", type=float, default=1.0)
    load.add_argument("--profile", choices=["uniform", "openloop"],
                      default="uniform",
                      help="arrival shape (must match the serve side for "
                           "differential comparison)")
    load.add_argument("--exclude", type=int, action="append", metavar="PID",
                      help="never use PID as an entry point (repeatable)")
    load.set_defaults(func=cmd_load)

    lst = sub.add_parser("list", help="list experiments and workloads")
    lst.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
