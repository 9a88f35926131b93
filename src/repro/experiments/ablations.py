"""Ablations of the design choices called out in DESIGN.md.

Each ablation disables one mechanism and measures what it was buying:

- **A1 — flush-time Theorem 2** (``nullify_own_on_flush``): with it off,
  only Checkpoint advances a process's own row of the log table, so held
  messages and outputs wait longer and vectors stay bigger.
- **A2 — log-table gossip** (``gossip_log_tables``): with it off,
  notifications carry only the sender's own row, so under fanout-1
  dissemination — each tick asks one awaited owner — an answer settles
  one dependency instead of everything the owner knows.
- **A3 — output-driven logging** (``output_driven_logging``): Section 2's
  alternative to periodic notifications — the flush-first form of the
  request a fanout-mode tick sends — measured where it matters: sparse
  notification periods.

Run: ``python -m repro.experiments.ablations``
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.experiments.runner import print_experiment, simulate
from repro.runtime.config import SimConfig
from repro.workloads.random_peers import RandomPeersWorkload
from repro.workloads.telecom import TelecomWorkload

DURATION = 800.0


def _run(config: SimConfig, workload) -> Dict[str, object]:
    metrics = simulate(config, workload, duration=DURATION)
    return metrics


def run_flush_nullification(n: int = 6, seed: int = 42) -> List[Dict[str, object]]:
    rows = []
    for enabled in (True, False):
        config = SimConfig(n=n, k=2, seed=seed, trace_enabled=False,
                           nullify_own_on_flush=enabled)
        metrics = _run(config, RandomPeersWorkload(rate=0.6, min_hops=3,
                                                   max_hops=8))
        rows.append({
            "flush_thm2": "on" if enabled else "off",
            "hold": round(metrics.mean_send_hold, 2),
            "pgb": round(metrics.mean_piggyback_entries, 2),
            "out_lat": round(metrics.mean_output_latency, 2),
        })
    return rows


def run_gossip(n: int = 8, seed: int = 42) -> List[Dict[str, object]]:
    """Full-table vs own-row answers under fanout-1 dissemination.

    Under broadcast both modes are equivalent (everyone hears everyone's
    own row directly); the difference appears when a process may ask only
    one of the owners it is waiting on per period: a full-table answer
    carries what that owner knows about the others too — exactly what
    Receive_log's all-rows merge is for — an own-row answer one row.
    """
    rows = []
    for gossip in (True, False):
        config = SimConfig(n=n, k=2, seed=seed, trace_enabled=False,
                           gossip_log_tables=gossip, notify_interval=20.0,
                           notify_fanout=1)
        metrics = _run(config, RandomPeersWorkload(rate=0.6, min_hops=3,
                                                   max_hops=8))
        rows.append({
            "gossip": "full-table" if gossip else "own-row",
            "hold": round(metrics.mean_send_hold, 2),
            "pgb": round(metrics.mean_piggyback_entries, 2),
            "out_lat": round(metrics.mean_output_latency, 2),
        })
    return rows


def run_output_driven(n: int = 6, seed: int = 42) -> List[Dict[str, object]]:
    rows = []
    for driven in (False, True):
        config = SimConfig(n=n, k=None, seed=seed, trace_enabled=False,
                           notify_interval=200.0, flush_interval=200.0,
                           output_driven_logging=driven)
        metrics = _run(config, TelecomWorkload(rate=0.6))
        rows.append({
            "mode": "output-driven" if driven else "periodic-only",
            "out_lat": round(metrics.mean_output_latency, 2),
            "outputs": metrics.outputs_committed,
            "control_msgs": metrics.control_messages,
        })
    return rows


def run_gc(n: int = 6, seed: int = 42) -> List[Dict[str, object]]:
    """A4: Theorem-3-based storage reclamation on vs off."""
    rows = []
    for gc in (True, False):
        config = SimConfig(n=n, k=2, seed=seed, trace_enabled=False,
                           gc_on_checkpoint=gc)
        metrics = _run(config, RandomPeersWorkload(rate=0.6, min_hops=3,
                                                   max_hops=8))
        rows.append({
            "gc": "on" if gc else "off",
            "final_log_records": metrics.final_log_records,
            "final_checkpoints": metrics.final_checkpoints,
            "reclaimed": metrics.gc_reclaimed,
            "hold": round(metrics.mean_send_hold, 2),
        })
    return rows


def run_retransmission(n: int = 5, seed: int = 13) -> List[Dict[str, object]]:
    """A5: footnote-3 sender-side retransmission on vs off.

    Uses the pipeline workload with a long mid-stage outage: items lost in
    transit to the down stage are causally *independent* of its lost state
    (they come from upstream), so they are recoverable — exactly footnote
    3's "they either do not cause inconsistency, or they can be retrieved
    from the senders' volatile logs".  (In a gossip workload most lost
    in-transit messages are orphans of the crash anyway, and retransmitted
    copies would just be discarded.)
    """
    from repro.failures.injector import FailureSchedule
    from repro.workloads.pipeline import PipelineWorkload

    rows = []
    for window in (0, 64):
        config = SimConfig(n=n, k=None, seed=seed, restart_delay=60.0,
                           retransmit_window=window, trace_enabled=False)
        metrics = simulate(
            config, PipelineWorkload(rate=1.0),
            failures=FailureSchedule.single(DURATION / 2, n // 2),
            duration=DURATION,
        )
        rows.append({
            "retransmit": f"window={window}" if window else "off",
            "lost_in_transit": metrics.app_messages_lost,
            "resent": metrics.retransmissions,
            "items_completed": metrics.outputs_committed,
        })
    return rows


def run_flush_period(n: int = 6, seed: int = 42) -> List[Dict[str, object]]:
    """A6: the stability lag itself.  K bounds *how many* non-stable
    dependencies a message may carry; the flush/notification periods decide
    *how long* anything stays non-stable.  At a fixed small K, the hold
    time tracks the flush period almost linearly."""
    rows = []
    for period in (10.0, 20.0, 40.0, 80.0):
        config = SimConfig(n=n, k=1, seed=seed, trace_enabled=False,
                           flush_interval=period,
                           notify_interval=period / 2)
        metrics = _run(config, RandomPeersWorkload(rate=0.6, min_hops=3,
                                                   max_hops=8))
        rows.append({
            "flush_period": period,
            "hold": round(metrics.mean_send_hold, 2),
            "out_lat": round(metrics.mean_output_latency, 2),
            "async_w": metrics.async_writes,
        })
    return rows


def main() -> None:
    print_experiment(
        "A1 - Theorem 2 applied at flush time (vs checkpoint-only)",
        run_flush_nullification(),
        notes="Flush-time self-stability is most of what keeps low-K holds "
              "short: with it off, releases wait for the (4x rarer) "
              "checkpoints.",
    )
    print_experiment(
        "A2 - Full-table gossip vs own-row notifications "
        "(fanout-1 dissemination)",
        run_gossip(),
        notes="Under broadcast the two modes are identical; with each "
              "process asking one awaited owner per period, a full-table "
              "answer spreads stability transitively through Receive_log's "
              "all-rows merge, where an own-row answer settles one "
              "dependency per period: hold time and output latency are both "
              "shorter.",
    )
    print_experiment(
        "A3 - Output-driven logging at sparse notification periods",
        run_output_driven(),
        notes="Demand-driven flushes commit outputs far sooner than waiting "
              "for rare periodic notifications, at a small control-traffic "
              "cost (Section 2's suggestion, realized).",
    )
    print_experiment(
        "A4 - Storage reclamation via Theorem 3 (GC on checkpoints)",
        run_gc(),
        notes="A checkpoint with a fully-stable vector can never be "
              "orphaned; reclaiming older state bounds the recovery "
              "footprint without changing protocol behaviour.",
    )
    print_experiment(
        "A5 - Sender-side retransmission (footnote 3)",
        run_retransmission(),
        notes="With a long restart delay, in-flight messages to the crashed "
              "process are lost; retransmission from senders' volatile "
              "sent-logs recovers the deliveries.",
    )
    print_experiment(
        "A6 - The stability lag: hold time vs flush period at K=1",
        run_flush_period(),
        notes="K bounds how many non-stable dependencies a message may "
              "carry; the flush/notification periods decide how long "
              "anything stays non-stable.  Fewer, larger batched writes "
              "(async_w) buy longer holds - the knob behind the knob.",
    )


if __name__ == "__main__":
    main()
