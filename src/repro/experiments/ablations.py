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

from functools import partial

from repro.experiments.runner import Sweep
from repro.failures.injector import FailureSchedule
from repro.workloads.pipeline import PipelineWorkload
from repro.workloads.random_peers import RandomPeersWorkload
from repro.workloads.telecom import TelecomWorkload

DURATION = 800.0

#: Every ablation runs ``DURATION`` at N=6, seed 42, on random peers
#: unless it says otherwise.
ablation = partial(Sweep, duration=DURATION, params=dict(n=6, seed=42),
                   workload=RandomPeersWorkload(rate=0.6, min_hops=3,
                                                max_hops=8))

A1 = ablation(
    "A1 - Theorem 2 applied at flush time (vs checkpoint-only)",
    rows=lambda p: [({"flush_thm2": "on" if enabled else "off"},
                     dict(n=p.n, k=2, seed=p.seed,
                          nullify_own_on_flush=enabled))
                    for enabled in (True, False)],
    columns=("flush_thm2", "hold", "pgb", "out_lat"),
    notes="Flush-time self-stability is most of what keeps low-K holds "
          "short: with it off, releases wait for the (4x rarer) "
          "checkpoints.",
)
# Full-table vs own-row answers under fanout-1 dissemination.
#
# Under broadcast both modes are equivalent (everyone hears everyone's
# own row directly); the difference appears when a process may ask only
# one of the owners it is waiting on per period: a full-table answer
# carries what that owner knows about the others too — exactly what
# Receive_log's all-rows merge is for — an own-row answer one row.
A2 = ablation(
    "A2 - Full-table gossip vs own-row notifications "
    "(fanout-1 dissemination)",
    params=dict(n=8, seed=42),
    rows=lambda p: [({"gossip": "full-table" if gossip else "own-row"},
                     dict(n=p.n, k=2, seed=p.seed, notify_interval=20.0,
                          notify_fanout=1, gossip_log_tables=gossip))
                    for gossip in (True, False)],
    columns=("gossip", "hold", "pgb", "out_lat"),
    notes="Under broadcast the two modes are identical; with each "
          "process asking one awaited owner per period, a full-table "
          "answer spreads stability transitively through Receive_log's "
          "all-rows merge, where an own-row answer settles one "
          "dependency per period: hold time and output latency are both "
          "shorter.",
)
A3 = ablation(
    "A3 - Output-driven logging at sparse notification periods",
    workload=TelecomWorkload(rate=0.6),
    rows=lambda p: [({"mode": "output-driven" if driven else "periodic-only"},
                     dict(n=p.n, seed=p.seed, notify_interval=200.0,
                          flush_interval=200.0, output_driven_logging=driven))
                    for driven in (False, True)],
    columns=("mode", "out_lat", "outputs", "control_msgs"),
    notes="Demand-driven flushes commit outputs far sooner than waiting "
          "for rare periodic notifications, at a small control-traffic "
          "cost (Section 2's suggestion, realized).",
)
# A4: Theorem-3-based storage reclamation on vs off.
A4 = ablation(
    "A4 - Storage reclamation via Theorem 3 (GC on checkpoints)",
    rows=lambda p: [({"gc": "on" if gc else "off"},
                     dict(n=p.n, k=2, seed=p.seed, gc_on_checkpoint=gc))
                    for gc in (True, False)],
    columns=("gc", ("final_log_records", "final_log_records"),
             ("final_checkpoints", "final_checkpoints"),
             ("reclaimed", "gc_reclaimed"), "hold"),
    notes="A checkpoint with a fully-stable vector can never be "
          "orphaned; reclaiming older state bounds the recovery "
          "footprint without changing protocol behaviour.",
)
# A5: footnote-3 sender-side retransmission on vs off.
#
# Uses the pipeline workload with a long mid-stage outage: items lost in
# transit to the down stage are causally *independent* of its lost state
# (they come from upstream), so they are recoverable — exactly footnote
# 3's "they either do not cause inconsistency, or they can be retrieved
# from the senders' volatile logs".  (In a gossip workload most lost
# in-transit messages are orphans of the crash anyway, and retransmitted
# copies would just be discarded.)
A5 = ablation(
    "A5 - Sender-side retransmission (footnote 3)",
    params=dict(n=5, seed=13),
    workload=PipelineWorkload(rate=1.0),
    failures=lambda p: FailureSchedule.single(p.duration / 2, p.n // 2),
    rows=lambda p: [({"retransmit": f"window={window}" if window else "off"},
                     dict(n=p.n, seed=p.seed, restart_delay=60.0,
                          retransmit_window=window)) for window in (0, 64)],
    columns=("retransmit", ("lost_in_transit", "app_messages_lost"),
             ("resent", "retransmissions"),
             ("items_completed", "outputs_committed")),
    notes="With a long restart delay, in-flight messages to the crashed "
          "process are lost; retransmission from senders' volatile "
          "sent-logs recovers the deliveries.",
)
# A6: the stability lag itself.  K bounds *how many* non-stable
# dependencies a message may carry; the flush/notification periods decide
# *how long* anything stays non-stable.  At a fixed small K, the hold
# time tracks the flush period almost linearly.
A6 = ablation(
    "A6 - The stability lag: hold time vs flush period at K=1",
    rows=lambda p: [({"flush_period": period},
                     dict(n=p.n, k=1, seed=p.seed, flush_interval=period,
                          notify_interval=period / 2))
                    for period in (10.0, 20.0, 40.0, 80.0)],
    columns=("flush_period", "hold", "out_lat", "async_w"),
    notes="K bounds how many non-stable dependencies a message may "
          "carry; the flush/notification periods decide how long "
          "anything stays non-stable.  Fewer, larger batched writes "
          "(async_w) buy longer holds - the knob behind the knob.",
)
run_flush_nullification = A1.run
run_gossip = A2.run
run_output_driven = A3.run
run_gc = A4.run
run_retransmission = A5.run
run_flush_period = A6.run


def main() -> None:
    for sweep in (A1, A2, A3, A4, A5, A6):
        sweep.main()


if __name__ == "__main__":
    main()
