"""Run metrics: the quantities the experiments report.

Each counted field of :class:`RunMetrics` names its source once, in its
``dataclasses.field`` metadata: an attribute path read on each hosted
process (:func:`each`) or once on the harness (:func:`once`), and the
``kind`` that combines a run's shares: ``run`` takes the first, ``sum``
adds, ``max`` takes the largest, and a mean (``over=<count path>``)
divides the summed total by the summed count.  :func:`share` reads one
harness (a serial run's, or an epoch-parallel worker's); :func:`merge`
combines the shares.  Adding a metric is a ``+=`` counter on its owner
and one field here.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import partial, reduce
from operator import add, attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.runtime.config import ASYNC_WRITE_COST, SYNC_WRITE_COST


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
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


#: Owners a run may lack (a reliable network's fault model, a post hoc
#: certified run's certifier): a field under one keeps its default.
_OPTIONAL = frozenset({"network.faults", "certifier"})


def reader(path: str) -> Callable[[Any], Any]:
    """The function reading the dotted ``path`` off an owner.  A path
    ending in ``()`` is called, one under an absent optional owner reads
    None, and any other path that does not resolve raises."""
    if path.endswith("()"):
        method = attrgetter(path[:-2])
        return lambda owner: method(owner)()
    head = next((o for o in _OPTIONAL if path.startswith(o + ".")), None)
    if head is None:
        return attrgetter(path)
    holder, rest = attrgetter(head), attrgetter(path[len(head) + 1:])
    return lambda owner: None if holder(owner) is None else rest(holder(owner))


def each(source: str, kind: str = "sum", default: Any = 0,
         over: Optional[str] = None, hosts: bool = True) -> Any:
    """A field read at ``source`` on each hosted process, folded by ``kind``
    (a mean sums ``source`` and ``over``); a callable default is a factory."""
    metadata = {"source": source, "kind": "mean" if over else kind,
                "over": over, "hosts": hosts, "read": reader(source),
                "count": reader(over) if over else None}
    if callable(default):
        return field(default_factory=default, metadata=metadata)
    return field(default=0.0 if over else default, metadata=metadata)


#: A field read once at ``source`` on the harness.
once = partial(each, hosts=False)


@dataclass
class RunMetrics:
    """Aggregated results of one simulation run."""

    # -- identification -----------------------------------------------------
    n: int = once("config.n", "run")
    k: int = once("config.resolved_k()", "run")
    duration: float = once("horizon", "run", 0.0)

    # -- failure-free behaviour -------------------------------------------
    messages_enqueued: int = each("protocol.stats.messages_enqueued")
    messages_released: int = each("protocol.stats.messages_released")
    messages_delivered: int = each("messages_delivered")
    mean_send_hold: float = each("protocol.stats.send_hold_time_total",
                                 over="protocol.stats.messages_released")
    max_send_hold: float = each("protocol.stats.send_hold_time_max", "max", 0.0)
    mean_delivery_wait: float = each("protocol.stats.delivery_wait_total",
                                     over="messages_delivered")
    #: Per application-message transmission, retransmissions included.
    mean_piggyback_entries: float = once("network.piggyback_entries_total",
                                         over="network.app_messages_sent")
    max_piggyback_entries: int = once("network.piggyback_entries_max", "max")
    sync_writes: int = each("protocol.storage.sync_writes")
    async_writes: int = each("protocol.storage.async_writes")
    storage_cost: float = 0.0
    control_messages: int = once("network.control_messages_sent")
    outputs_committed: int = each("protocol.stats.outputs_committed")
    mean_output_latency: float = each("protocol.stats.output_wait_total",
                                      over="protocol.stats.outputs_committed")

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
    slo_target: float = once("config.slo_output_latency", "run", 0.0)
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
    rollbacks: int = each("protocol.stats.rollbacks")
    processes_rolled_back: int = 0
    intervals_undone: int = each("protocol.stats.intervals_undone")
    intervals_lost: int = each("intervals_lost")
    orphans_discarded: int = each("protocol.stats.orphans_discarded")
    outputs_discarded: int = each("protocol.stats.outputs_discarded")
    messages_requeued: int = each("protocol.stats.messages_requeued")
    duplicates_dropped: int = each("protocol.stats.duplicates_dropped")
    app_messages_lost: int = each("lost_app_messages")
    retransmissions: int = each("protocol.stats.retransmissions")
    gc_reclaimed: int = each("protocol.storage.gc_reclaimed")
    final_log_records: int = each("protocol.storage.log_size")
    final_checkpoints: int = each("final_checkpoints")
    mean_recovery_span: float = 0.0

    # -- storage backend (file-log; zeros on the in-memory model) -------------
    storage_bytes_written: int = each("protocol.storage.bytes_written")
    storage_bytes_fsynced: int = each("protocol.storage.bytes_fsynced")
    storage_fsyncs: int = each("protocol.storage.fsyncs")
    storage_group_commits: int = each("protocol.storage.group_commits")
    storage_forced_commits: int = each("protocol.storage.forced_group_commits")
    storage_io_errors: int = each("protocol.storage.io_errors")
    storage_io_retries: int = each("protocol.storage.io_retries")
    storage_fsync_lies: int = each("protocol.storage.fsync_lies")
    storage_recoveries: int = each("protocol.storage.recoveries")
    storage_recovered_records: int = each("protocol.storage.recovered_records")
    storage_torn_dropped: int = each("protocol.storage.torn_records_dropped")
    storage_corrupt_dropped: int = each(
        "protocol.storage.corrupt_records_dropped")
    #: Wall-clock seconds spent in REDO recovery scans (not virtual time).
    storage_recovery_wall_s: float = each("protocol.storage.recovery_wall_s",
                                          default=0.0)
    #: Times a backend declared itself dead (retry budget exhausted or an
    #: injected fsync-boundary crash).
    storage_dead_declared: int = each("protocol.storage.dead_declared")
    #: Dead-backend events the runtime converted into fail-stop crashes.
    storage_deaths: int = each("storage_deaths")

    # -- unreliable network ---------------------------------------------------
    app_drops: int = once("network.app_dropped")
    control_drops: int = once("network.control_dropped")
    partition_drops: int = once("network.partition_drops")
    duplicates_injected: int = once("network.duplicates_injected")
    partitions: int = once("network.faults.partitions_seen")
    partition_time: float = once("network.faults.partition_time", default=0.0)
    #: Timer-driven app-message retransmissions (sender timeout fired).
    timer_retransmissions: int = each("protocol.stats.timer_retransmissions")
    acks_received: int = each("protocol.stats.acks_received")
    retransmit_budget_exhausted: int = each(
        "protocol.stats.retransmit_budget_exhausted")
    #: The same retransmitter on failure announcements (one copy per
    #: destination); the mean ack RTT is taken from a copy's first send.
    ctl_retransmits: int = each("protocol.stats.ctl_retransmits")
    ctl_acked: int = each("protocol.stats.ctl_acked")
    ctl_budget_exhausted: int = each("protocol.stats.ctl_budget_exhausted")
    mean_ack_rtt: float = each("protocol.stats.ack_rtt_total",
                               over="protocol.stats.ctl_acked")
    #: Outputs still waiting in some Output_buffer at the end of the run.
    outputs_pending: int = each("outputs_pending")

    # -- ground truth -----------------------------------------------------------
    total_intervals: int = once("certifier.oracle.total_intervals")
    rolled_back_intervals: int = once("certifier.oracle.rolled_back_intervals")
    #: Largest oracle-computed potential-revoker set observed at any
    #: app-message release (Theorem 4 bounds this by K).
    max_release_revokers: int = once("certifier.max_release_revokers", "max")
    violations: List[str] = once("violations", default=list)

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


_DECLARED = tuple(f for f in dataclasses.fields(RunMetrics) if f.metadata)


def _combine(kind: str, values: Sequence[Any]) -> Any:
    """The first of ``values`` (kind ``run``), the largest, or their sum."""
    if kind == "run":
        return values[0]
    return max(values) if kind == "max" else reduce(add, values)


def _fold(owners: Sequence[Any], kind: str, read: Callable[[Any], Any],
          start: Any) -> Any:
    """What ``read`` finds on ``owners``, then ``start``, combined."""
    found = [value for value in map(read, owners) if value is not None]
    return _combine(kind, found + [start])


def share(harness: Any) -> Dict[str, Any]:
    """One harness's share of its run: each declared field's value (a
    mean's ``(total, count)``) and the samples the rest are taken over."""
    hosts, blank, out = harness.hosts, RunMetrics(), {}
    for f in _DECLARED:
        meta = f.metadata
        owners = hosts if meta["hosts"] else (harness,)
        if meta["count"] is None:
            out[f.name] = _fold(owners, meta["kind"], meta["read"],
                                getattr(blank, f.name))
        else:
            out[f.name] = (_fold(owners, "sum", meta["read"], 0.0),
                           _fold(owners, "sum", meta["count"], 0))
    controllers = [h.controller for h in hosts if h.controller is not None]
    out.update(
        latency_samples=[s for host in hosts for s in host.latency_samples],
        rollback_times=[(t, host.pid) for host in hosts
                        for t in host.rollback_times],
        crash_times=[t for host in hosts for t in host.crash_times],
        k_history=[k for c in controllers for _, k in c.history],
        k_final=[float(c.k) for c in controllers],
        k_decisions=[len(c.decisions) - 1 for c in controllers])  # no "init"
    return out


def merge(shares: Sequence[Dict[str, Any]]) -> RunMetrics:
    """The :class:`RunMetrics` of a run from the shares of its parts: the
    declared fields by kind, the rest computed once over all samples."""
    m = RunMetrics()
    for f in _DECLARED:
        kind, values = f.metadata["kind"], [part[f.name] for part in shares]
        if kind == "mean":
            total, count = (_combine("sum", side) for side in zip(*values))
            setattr(m, f.name, total / count if count else 0.0)
        else:
            setattr(m, f.name, _combine(kind, values))

    def concat(key: str) -> List[Any]:
        return [item for part in shares for item in part[key]]

    m.storage_cost = (m.sync_writes * SYNC_WRITE_COST
                      + m.async_writes * ASYNC_WRITE_COST)
    samples = concat("latency_samples")  # end-to-end commit latencies
    m.output_latency_count = len(samples)
    m.output_latency_p50 = sample_percentile(samples, 50.0)
    m.output_latency_p95 = sample_percentile(samples, 95.0)
    m.output_latency_p99 = sample_percentile(samples, 99.0)
    if m.slo_target > 0 and samples:
        m.slo_attained = (sum(1 for s in samples if s <= m.slo_target)
                          / len(samples))
    final = concat("k_final")
    m.adaptive_k = bool(final)
    m.k_decisions = sum(concat("k_decisions"))
    if final:
        m.k_mean = sample_mean(concat("k_history") or final)
        m.k_final_mean = sample_mean(final)
    rollbacks = concat("rollback_times")
    m.processes_rolled_back = len({pid for _t, pid in rollbacks})
    crashes = concat("crash_times")
    m.crashes = len(crashes)
    # Attribute each rollback to the most recent crash at or before it: a
    # crash's recovery window closes when the next crash opens, otherwise
    # every late rollback would inflate the span of every earlier crash.
    windows = sorted(set(crashes)) + [float("inf")]
    spans = []
    for start, end in zip(windows, windows[1:]):
        window = [t for t, _pid in rollbacks if start <= t < end]
        if window:
            spans.append(max(window) - start)
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
