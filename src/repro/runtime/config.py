"""Simulation configuration.

One :class:`SimConfig` fully determines a run (together with the workload
and failure schedule): the same config + seed always reproduces the same
virtual execution, event for event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# Constants of the simulated deployment that no run varies.

#: Mean one-way latency of an application message (``msg_latency_jitter``
#: spreads it uniformly either side).
MSG_LATENCY_BASE = 1.0
#: Latency of every control message.
CONTROL_LATENCY = 1.0
#: ``RunMetrics.storage_cost`` charged per synchronous and per
#: asynchronous (batched) stable-storage operation.
SYNC_WRITE_COST = 1.0
ASYNC_WRITE_COST = 0.1
#: The retransmission timeout an unreliable network runs with when the
#: config leaves ``retransmit_timeout`` at 0.
RETRANSMIT_TIMEOUT = 4.0


@dataclass
class SimConfig:
    """Knobs for a simulated K-optimistic logging deployment."""

    # -- topology ---------------------------------------------------------
    n: int = 4
    #: Degree of optimism; ``None`` means K = N (classical optimistic).
    k: Optional[int] = None
    seed: int = 0

    # -- timers (virtual time units) ---------------------------------------
    #: Period of the asynchronous volatile-buffer flush.
    flush_interval: float = 40.0
    #: Period of checkpoints (each also flushes the volatile buffer).
    checkpoint_interval: float = 160.0
    #: Period of logging progress notifications.
    notify_interval: float = 20.0
    #: Downtime between a crash and the start of Restart.
    restart_delay: float = 10.0

    # -- network ---------------------------------------------------------
    #: Half-width of the uniform spread around ``MSG_LATENCY_BASE``.
    msg_latency_jitter: float = 0.5
    #: Added transmission latency per piggybacked dependency entry.
    per_entry_latency: float = 0.05
    fifo: bool = False

    # -- unreliable network -------------------------------------------------
    #: Per-transmission probability of a silent drop (message loss).
    drop_rate: float = 0.0
    #: Per-transmission probability of a duplicate delivery.
    duplicate_rate: float = 0.0
    #: Per-transmission probability of extra reordering delay.
    reorder_rate: float = 0.0
    #: Acks and retransmission of released messages and failure
    #: announcements: on exactly when this timeout is positive.  0 leaves
    #: them off on a reliable network; on an unreliable one (fault rates
    #: or schedule network events) the harness sets ``RETRANSMIT_TIMEOUT``.
    #: Each retry doubles the delay.
    retransmit_timeout: float = 0.0
    #: Retries per message or announcement copy before it is given up.
    retransmit_budget: int = 8

    # -- storage backend -----------------------------------------------------
    #: ``"model"`` (in-memory cost model) or ``"filelog"`` (durable
    #: segmented journal with group commit and REDO restart).
    storage_backend: str = "model"
    #: Directory holding per-process journals for the file-log backend.
    #: ``None`` lets the harness create (and clean up) a temporary one.
    storage_dir: Optional[str] = None
    #: ``"group"`` commits once per async batch and once per protocol step
    #: (the write-ahead barrier); ``"strict"`` fsyncs every record
    #: (pessimistic-storage mode, used by tests).
    fsync_policy: str = "group"

    # -- protocol options ---------------------------------------------------
    #: Broadcast full log tables (gossip) vs. own row only.
    gossip_log_tables: bool = True
    #: Logging-progress dissemination.  ``None`` pushes: every notify tick
    #: broadcasts the notification to every process.  An integer f pulls:
    #: at each tick a process asks at most f of the processes it is waiting
    #: on — the owners of the log positions its held sends and pending
    #: outputs watch, plus the non-NULL pids of its own dependency vector —
    #: taking turns in pid order when there are more than f, and each asked
    #: process answers the asker alone with its notification (full table or
    #: own row, per ``gossip_log_tables``) without flushing.  A process
    #: waiting on nobody sends nothing; a busy one costs up to 2f control
    #: messages per tick (f asks + f answers) and has asked m owners after
    #: ceil(m / f) ticks.  Built for wide, mostly idle systems.
    notify_fanout: Optional[int] = None
    #: Drop the own-incarnation dependency entry on every flush (Theorem 2),
    #: not just on checkpoints (Corollary 2).
    nullify_own_on_flush: bool = True
    #: Output-driven logging (Section 2): an enqueued output asks its
    #: dependency processes to flush immediately instead of waiting for
    #: their periodic notifications — the flush-first form of the request
    #: a ``notify_fanout`` tick sends.
    output_driven_logging: bool = False
    #: Reclaim checkpoints/logs made unreachable by stability (Theorem 3).
    gc_on_checkpoint: bool = True
    #: Footnote 3: keep the last W released messages per destination in a
    #: volatile sent-log and retransmit them when the destination restarts
    #: (0 disables; lost in-transit messages then stay lost).
    retransmit_window: int = 0

    # -- adaptive-K control ---------------------------------------------------
    #: Run a per-process :class:`repro.control.AdaptiveKController` that
    #: retunes K at runtime through the per-message K path (Section 4.2).
    adaptive_k: bool = False
    #: The controller's ceiling; ``None`` means the resolved global K (so
    #: the controller never exceeds what the run declares).
    k_max: Optional[int] = None
    #: Period of the controller's observation tick (virtual time units).
    control_interval: float = 25.0
    #: Output-commit latency SLO target (virtual units; 0 disables the
    #: SLO test — the controller then always probes upward while healthy).
    slo_output_latency: float = 0.0

    # -- execution ------------------------------------------------------------
    #: Run on real cores: 0/1 executes in-process (serial), W > 1 spawns
    #: W worker OS processes, each hosting the slice ``pid % W``, driven
    #: by the epoch-barrier runner in :mod:`repro.parallel`.  Requires a
    #: reliable network (the conservative safe window assumes
    #: deterministic cross-worker latencies) and positive lookahead
    #: ``min(MSG_LATENCY_BASE - msg_latency_jitter, CONTROL_LATENCY)``.
    parallel_workers: int = 0

    # -- notification encoding ------------------------------------------------
    #: Delta-encode logging-progress notifications: after the first full
    #: snapshot per peer, send only the entries changed since that peer's
    #: last notification (changelog cursor per destination).  Sound only on
    #: reliable transport — a lost delta would leave the peer permanently
    #: behind — so :meth:`validate` rejects it on unreliable networks.
    delta_notifications: bool = False

    # -- instrumentation ------------------------------------------------------
    trace_enabled: bool = True
    #: Record only categories with this dotted prefix (``None`` records
    #: everything).  Very large runs set ``"dep."`` so the certifier's
    #: events survive without holding millions of msg/timer records.
    trace_prefix: Optional[str] = None
    #: Feed the inline :class:`repro.oracle.certifier.Certifier`.  Off, the
    #: harness builds none — post-hoc certification of the ``dep.*``
    #: records still works, which is how very large n runs (and parallel
    #: workers) are checked.
    oracle_enabled: bool = True
    #: Let that certifier judge releases, commits and the quiescent state
    #: (slower); off, it only tracks the dependency graph.
    check_invariants: bool = True
    #: Additionally record the numeric ``dep.*`` trace events that the
    #: post-hoc certifier (:mod:`repro.oracle.ingest`) consumes.  The
    #: runtime backplane always records them; in simulation they are only
    #: needed for differential sim-vs-serve comparisons.
    dep_trace: bool = False

    def resolved_k(self) -> int:
        """The effective K: ``None`` maps to N (fully optimistic)."""
        return self.n if self.k is None else self.k

    def resolved_k_max(self) -> int:
        """The adaptive controller's ceiling: ``None`` maps to the
        resolved global K."""
        return self.resolved_k() if self.k_max is None else self.k_max

    def validate(self) -> None:
        if self.n <= 0:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.k is not None and self.k < 0:
            raise ValueError(f"K must be >= 0, got {self.k}")
        for name in ("flush_interval", "checkpoint_interval", "notify_interval"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.restart_delay < 0:
            raise ValueError("restart_delay must be non-negative")
        if self.notify_fanout is not None and self.notify_fanout < 1:
            raise ValueError(
                f"notify_fanout must be at least 1, got {self.notify_fanout}")
        for name in ("drop_rate", "duplicate_rate", "reorder_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.retransmit_timeout < 0:
            raise ValueError("retransmit_timeout must be non-negative")
        if self.retransmit_budget < 1:
            raise ValueError(
                "retransmit_budget must be at least 1: announcements must "
                f"arrive on a lossy network, got {self.retransmit_budget}")
        if self.parallel_workers < 0:
            raise ValueError(
                f"parallel_workers must be >= 0, got {self.parallel_workers}"
            )
        if self.parallel_workers > 1:
            if self.unreliable():
                raise ValueError(
                    "parallel_workers > 1 requires a reliable network "
                    "(channel fault rates must be zero)"
                )
            lookahead = min(MSG_LATENCY_BASE - self.msg_latency_jitter,
                            CONTROL_LATENCY)
            if lookahead <= 0:
                raise ValueError(
                    "parallel_workers > 1 needs positive lookahead: "
                    "min(MSG_LATENCY_BASE - msg_latency_jitter, "
                    f"CONTROL_LATENCY) = {lookahead} must be > 0"
                )
        if self.delta_notifications and self.unreliable():
            raise ValueError(
                "delta_notifications requires a reliable network: a lost "
                "delta would leave the peer's table permanently behind"
            )
        if self.check_invariants and not self.oracle_enabled:
            raise ValueError(
                "check_invariants requires oracle_enabled (inline checks "
                "consult the oracle); disable both for post-hoc-only runs"
            )
        if self.storage_backend not in ("model", "filelog"):
            raise ValueError(
                f"storage_backend must be 'model' or 'filelog', "
                f"got {self.storage_backend!r}"
            )
        if self.fsync_policy not in ("group", "strict"):
            raise ValueError(
                f"fsync_policy must be 'group' or 'strict', "
                f"got {self.fsync_policy!r}"
            )
        if self.control_interval <= 0:
            raise ValueError("control_interval must be positive")
        if self.k_max is not None and self.k_max < 0:
            raise ValueError(f"k_max must be >= 0, got {self.k_max}")
        if self.slo_output_latency < 0:
            raise ValueError("slo_output_latency must be non-negative")

    def unreliable(self) -> bool:
        """True when configured channel fault rates can perturb traffic."""
        return (self.drop_rate > 0 or self.duplicate_rate > 0
                or self.reorder_rate > 0)
