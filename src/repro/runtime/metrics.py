"""Run metrics: the quantities the experiments report.

``RunMetrics`` is a plain summary computed once at the end of a run from
the protocol counters, the network, the oracle, and harness-level event
records.  Experiments print selected columns; tests assert on them.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


def sample_mean(samples: Sequence[float]) -> float:
    """Arithmetic mean that is safe on degenerate windows.

    An empty window reports 0.0 instead of raising: latency accounting
    runs on every control tick and at the end of every run, including
    runs (or windows) that committed nothing.
    """
    if not samples:
        return 0.0
    return sum(samples) / len(samples)


def sample_percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of an (unsorted) sample window.

    Degenerate windows are well-defined rather than errors: an empty
    window reports 0.0 and a single-sample window reports that sample
    for every q.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


@dataclass
class RunMetrics:
    """Aggregated results of one simulation run."""

    # -- identification -----------------------------------------------------
    n: int = 0
    k: int = 0
    duration: float = 0.0

    # -- failure-free behaviour -------------------------------------------
    messages_enqueued: int = 0
    messages_released: int = 0
    messages_delivered: int = 0
    mean_send_hold: float = 0.0
    max_send_hold: float = 0.0
    mean_delivery_wait: float = 0.0
    mean_piggyback_entries: float = 0.0
    max_piggyback_entries: int = 0
    sync_writes: int = 0
    async_writes: int = 0
    storage_cost: float = 0.0
    control_messages: int = 0
    outputs_committed: int = 0
    mean_output_latency: float = 0.0

    # -- output-commit latency SLO ------------------------------------------
    #: End-to-end output-commit latency percentiles.  Samples are measured
    #: from workload injection (payloads carrying ``t0``, e.g. the
    #: open-loop workload) or, for payloads without an injection stamp,
    #: from output enqueue to commit.
    output_latency_p50: float = 0.0
    output_latency_p95: float = 0.0
    output_latency_p99: float = 0.0
    output_latency_count: int = 0
    #: The configured latency target (0 disables SLO accounting) and the
    #: fraction of samples that met it (1.0 with no target or no samples).
    slo_target: float = 0.0
    slo_attained: float = 1.0

    # -- adaptive-K control ---------------------------------------------------
    adaptive_k: bool = False
    #: Total K changes across all per-process controllers.
    k_decisions: int = 0
    #: Mean K over every controller observation, and the mean final K.
    k_mean: float = 0.0
    k_final_mean: float = 0.0

    # -- recovery behaviour ---------------------------------------------------
    crashes: int = 0
    rollbacks: int = 0
    processes_rolled_back: int = 0
    intervals_undone: int = 0
    intervals_lost: int = 0
    orphans_discarded: int = 0
    outputs_discarded: int = 0
    messages_requeued: int = 0
    duplicates_dropped: int = 0
    app_messages_lost: int = 0
    retransmissions: int = 0
    gc_reclaimed: int = 0
    final_log_records: int = 0
    final_checkpoints: int = 0
    mean_recovery_span: float = 0.0

    # -- storage backend (file-log; zeros on the in-memory model) -------------
    storage_bytes_written: int = 0
    storage_bytes_fsynced: int = 0
    storage_fsyncs: int = 0
    storage_group_commits: int = 0
    storage_forced_commits: int = 0
    storage_io_errors: int = 0
    storage_io_retries: int = 0
    storage_fsync_lies: int = 0
    storage_recoveries: int = 0
    storage_recovered_records: int = 0
    storage_torn_dropped: int = 0
    storage_corrupt_dropped: int = 0
    #: Wall-clock seconds spent in REDO recovery scans (not virtual time).
    storage_recovery_wall_s: float = 0.0
    #: Times a backend declared itself dead (retry budget exhausted or an
    #: injected fsync-boundary crash).
    storage_dead_declared: int = 0
    #: Dead-backend events the runtime converted into fail-stop crashes.
    storage_deaths: int = 0

    # -- unreliable network ---------------------------------------------------
    app_drops: int = 0
    control_drops: int = 0
    partition_drops: int = 0
    duplicates_injected: int = 0
    partitions: int = 0
    partition_time: float = 0.0
    #: Timer-driven app-message retransmissions (sender timeout fired).
    timer_retransmissions: int = 0
    acks_received: int = 0
    retransmit_budget_exhausted: int = 0
    #: Control-plane (envelope) retransmission statistics.
    ctl_retransmits: int = 0
    ctl_acked: int = 0
    ctl_budget_exhausted: int = 0
    mean_ack_rtt: float = 0.0
    #: Outputs still waiting in some Output_buffer at the end of the run.
    outputs_pending: int = 0

    # -- ground truth -----------------------------------------------------------
    total_intervals: int = 0
    rolled_back_intervals: int = 0
    #: Largest oracle-computed potential-revoker set observed at any
    #: app-message release (Theorem 4 bounds this by K).
    max_release_revokers: int = 0
    violations: List[str] = field(default_factory=list)

    def throughput(self) -> float:
        """Delivered application messages per virtual time unit."""
        if self.duration <= 0:
            return 0.0
        return self.messages_delivered / self.duration

    def as_row(self) -> Dict[str, object]:
        """Flat dict for tabular reports."""
        return {
            "n": self.n,
            "K": self.k,
            "released": self.messages_released,
            "delivered": self.messages_delivered,
            "hold_mean": round(self.mean_send_hold, 3),
            "pgb_mean": round(self.mean_piggyback_entries, 3),
            "sync_w": self.sync_writes,
            "async_w": self.async_writes,
            "outputs": self.outputs_committed,
            "out_lat": round(self.mean_output_latency, 3),
            "crashes": self.crashes,
            "rollbacks": self.rollbacks,
            "procs_rb": self.processes_rolled_back,
            "undone": self.intervals_undone,
            "orphans": self.orphans_discarded,
        }


@dataclass
class RunTotals:
    """One harness's raw share of a run: everything that adds up.

    ``counters`` holds the additive (and the three max) fields of
    :class:`RunMetrics` with every derived field left at its default; the
    remaining fields are the raw totals, samples and event lists the
    derived fields are computed from.  A serial run has one of these, an
    epoch-parallel run one per worker (workers own disjoint process sets
    and network counters are sender-local, so the shares simply add).
    """

    counters: RunMetrics
    send_hold_total: float = 0.0
    delivery_wait_total: float = 0.0
    output_wait_total: float = 0.0
    piggyback_total: int = 0
    app_messages_sent: int = 0
    ack_rtt_total: float = 0.0
    output_latency_samples: List[float] = field(default_factory=list)
    crash_events: List[Tuple[float, int]] = field(default_factory=list)
    rollback_events: List[Tuple[float, int]] = field(default_factory=list)
    #: Every K a controller settled on over the run, and each
    #: controller's final K (both empty without adaptive K).
    k_history: List[float] = field(default_factory=list)
    k_final: List[float] = field(default_factory=list)


#: ``RunMetrics`` fields that describe the run rather than count it.
_RUN_FIELDS = frozenset({"n", "k", "duration", "slo_target"})
_MAX_FIELDS = frozenset({"max_send_hold", "max_piggyback_entries",
                         "max_release_revokers"})


def derive_metrics(parts: Sequence[RunTotals]) -> RunMetrics:
    """The :class:`RunMetrics` of a run from the raw totals of its parts.

    Counters sum and maxima take the max; every mean, percentile and span
    is computed here, once, from the summed totals and the concatenated
    samples — averaging per-part means would weight parts, not events.
    """
    m = RunMetrics()
    for f in dataclasses.fields(RunMetrics):
        values = [getattr(part.counters, f.name) for part in parts]
        if f.name in _RUN_FIELDS:
            merged = values[0]
        elif f.name in _MAX_FIELDS:
            merged = max(values)
        elif isinstance(values[0], list):
            merged = [item for value in values for item in value]
        else:
            merged = sum(values)
        setattr(m, f.name, merged)

    def mean(total: float, count: float) -> float:
        return total / count if count else 0.0

    m.mean_send_hold = mean(sum(p.send_hold_total for p in parts),
                            m.messages_released)
    m.mean_delivery_wait = mean(sum(p.delivery_wait_total for p in parts),
                                m.messages_delivered)
    m.mean_output_latency = mean(sum(p.output_wait_total for p in parts),
                                 m.outputs_committed)
    m.mean_piggyback_entries = mean(sum(p.piggyback_total for p in parts),
                                    sum(p.app_messages_sent for p in parts))
    m.mean_ack_rtt = mean(sum(p.ack_rtt_total for p in parts), m.ctl_acked)

    # Output-commit latency SLO accounting (end-to-end samples).
    samples = [s for part in parts for s in part.output_latency_samples]
    m.output_latency_count = len(samples)
    m.output_latency_p50 = sample_percentile(samples, 50.0)
    m.output_latency_p95 = sample_percentile(samples, 95.0)
    m.output_latency_p99 = sample_percentile(samples, 99.0)
    m.slo_attained = 1.0
    if m.slo_target > 0 and samples:
        m.slo_attained = (sum(1 for s in samples if s <= m.slo_target)
                          / len(samples))

    final = [k for part in parts for k in part.k_final]
    m.adaptive_k = bool(final)
    if final:
        history = [k for part in parts for k in part.k_history]
        m.k_mean = sample_mean(history if history else final)
        m.k_final_mean = sample_mean(final)

    rollbacks = [event for part in parts for event in part.rollback_events]
    m.processes_rolled_back = len({pid for _t, pid in rollbacks})
    crash_times = sorted({t for part in parts for t, _pid in part.crash_events})
    # Attribute each rollback to the most recent crash at or before it: a
    # crash's recovery window closes when the next crash opens, otherwise
    # every late rollback would inflate the span of every earlier crash.
    spans = []
    for i, crash_time in enumerate(crash_times):
        window_end = (crash_times[i + 1] if i + 1 < len(crash_times)
                      else float("inf"))
        window = [t for t, _pid in rollbacks if crash_time <= t < window_end]
        if window:
            spans.append(max(window) - crash_time)
    m.mean_recovery_span = sample_mean(spans)
    return m


def format_table(rows: List[Dict[str, object]]) -> str:
    """Render a list of row dicts as an aligned text table."""
    if not rows:
        return "(no rows)"
    headers = list(rows[0].keys())
    widths = {
        h: max(len(str(h)), max(len(str(r.get(h, ""))) for r in rows)) for h in headers
    }
    lines = [
        "  ".join(str(h).rjust(widths[h]) for h in headers),
        "  ".join("-" * widths[h] for h in headers),
    ]
    for row in rows:
        lines.append("  ".join(str(row.get(h, "")).rjust(widths[h]) for h in headers))
    return "\n".join(lines)
