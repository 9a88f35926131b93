"""Span tracing from outside the program: wrap the public calls into each
layer, keep the spans in memory, derive per-layer self time afterwards.

Nothing under ``src/`` knows about this module.  ``install`` replaces the
public entry points listed in :data:`TARGETS` with timing wrappers (on the
class that defines them and on every loaded subclass that overrides them)
and returns a handle whose ``uninstall`` puts the originals back.  It
raises when a listed name no longer exists, so a refactor cannot silently
drop a layer from the measurement.

A span's *self time* is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  Spans nest by
call stack (the program is single-threaded per process), so the self times
of all spans under a root add up to the root's duration exactly.

Forked parallel workers and spawned serve workers are separate processes:
they are measured by CPU time and public counters, not spans, and the
runner installs only the parent-side layers for those workloads.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: ``(layer, "module:Class.attr" or "module:function")``.  The span is named
#: ``<layer>.<attr>``.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("sim", "repro.sim.engine:Engine.run"),
    ("sim", "repro.sim.engine:Engine.schedule"),
    ("sim", "repro.sim.engine:Engine.schedule_at"),
    ("sim", "repro.sim.engine:Engine.schedule_at_raw"),
    ("sim.trace", "repro.sim.trace:Tracer.record"),
    ("net", "repro.net.network:Network.send_app"),
    ("net", "repro.net.network:Network.send_control"),
    ("net", "repro.net.network:Network.broadcast_control"),
    ("net", "repro.net.network:Network.register"),
    ("core.protocol", "repro.core.protocol:KOptimisticProcess.initialize"),
    ("core.protocol", "repro.core.protocol:KOptimisticProcess.on_receive"),
    ("core.protocol", "repro.core.protocol:KOptimisticProcess.on_failure_announcement"),
    ("core.protocol", "repro.core.protocol:KOptimisticProcess.on_ack"),
    ("core.protocol", "repro.core.protocol:KOptimisticProcess.on_retransmit_timer"),
    ("core.protocol", "repro.core.protocol:KOptimisticProcess.on_log_notification"),
    ("core.protocol", "repro.core.protocol:KOptimisticProcess.on_log_notifications"),
    ("core.protocol", "repro.core.protocol:KOptimisticProcess.on_logging_request"),
    ("core.protocol", "repro.core.protocol:KOptimisticProcess.make_log_notification"),
    ("core.protocol", "repro.core.protocol:KOptimisticProcess.make_log_notification_for"),
    ("core.protocol", "repro.core.protocol:KOptimisticProcess.flush"),
    ("core.protocol", "repro.core.protocol:KOptimisticProcess.checkpoint"),
    ("core.protocol", "repro.core.protocol:KOptimisticProcess.crash"),
    ("core.protocol", "repro.core.protocol:KOptimisticProcess.restart"),
    ("core.protocol", "repro.core.protocol:KOptimisticProcess.boot_after_crash"),
    ("core.tables", "repro.core.tables:EntrySetTable.merge_snapshot"),
    ("core.tables", "repro.core.tables:EntrySetTable.merge_snapshots"),
    ("core.tables", "repro.core.tables:EntrySetTable.snapshot_columns"),
    ("core.tables", "repro.core.tables:EntrySetTable.delta_since"),
    ("core.output", "repro.core.output:OutputBuffer.update"),
    ("core.output", "repro.core.output:OutputBuffer.discard_orphans"),
    ("storage", "repro.storage.backend:StableBackend.write_checkpoint"),
    ("storage", "repro.storage.backend:StableBackend.restore_checkpoint"),
    ("storage", "repro.storage.backend:StableBackend.discard_checkpoints_after"),
    ("storage", "repro.storage.backend:StableBackend.append_log"),
    ("storage", "repro.storage.backend:StableBackend.pop_logged_after"),
    ("storage", "repro.storage.backend:StableBackend.truncate_before"),
    ("storage", "repro.storage.backend:StableBackend.log_announcement"),
    ("storage", "repro.storage.backend:StableBackend.log_incarnation_start"),
    ("storage", "repro.storage.backend:StableBackend.record_committed_output"),
    ("storage", "repro.storage.backend:StableBackend.crash"),
    ("storage", "repro.storage.backend:StableBackend.recover"),
    ("runtime.host", "repro.runtime.harness:ProcessHost.incoming"),
    ("runtime.host", "repro.runtime.harness:ProcessHost.flush"),
    ("runtime.host", "repro.runtime.harness:ProcessHost.checkpoint"),
    ("runtime.host", "repro.runtime.harness:ProcessHost.notify"),
    ("runtime.host", "repro.runtime.harness:ProcessHost.control_tick"),
    ("runtime.host", "repro.runtime.harness:ProcessHost.crash"),
    ("runtime.host", "repro.runtime.harness:ProcessHost.restart"),
    ("runtime.executor", "repro.runtime.executor:EffectExecutor.execute"),
    ("runtime.harness", "repro.runtime.harness:SimulationHarness.run"),
    ("runtime.harness", "repro.runtime.harness:SimulationHarness.settle"),
    ("runtime.harness", "repro.runtime.harness:SimulationHarness.metrics"),
    ("oracle", "repro.oracle.graph:DependencyOracle.record_delivery"),
    ("oracle", "repro.oracle.graph:DependencyOracle.record_recovery"),
    ("oracle", "repro.oracle.graph:DependencyOracle.mark_stable"),
    ("oracle", "repro.oracle.graph:DependencyOracle.potential_revokers"),
    ("oracle", "repro.oracle.graph:DependencyOracle.is_orphan"),
    ("oracle", "repro.oracle.graph:DependencyOracle.check_consistency"),
    ("control", "repro.control.controller:AdaptiveKController.observe"),
    ("control", "repro.control.controller:AdaptiveKController.recommend"),
    ("app", "repro.app.behavior:AppBehavior.on_message"),
    ("parallel", "repro.parallel.runner:ParallelHarness.run"),
    ("backplane", "repro.backplane.coordinator:Coordinator.run"),
    ("backplane", "repro.backplane.coordinator:read_frame"),
    ("backplane", "repro.backplane.coordinator:write_frame"),
    ("backplane", "repro.backplane.framing:encode_frame"),
    ("oracle", "repro.backplane.coordinator:certify_traces"),
)

#: Targets that are not plain timed spans.
HOW: Dict[str, str] = {
    # register() itself is free; each hook it registers becomes net.receive.
    "repro.net.network:Network.register": "hook",
    # A coroutine: one span that stays open across awaits, the serve root.
    "repro.backplane.coordinator:Coordinator.run": "async_root",
    # A coroutine several reader tasks await at once: counted, not timed.
    "repro.backplane.coordinator:read_frame": "count",
    # Timed, and the encoded bytes are summed.
    "repro.backplane.framing:encode_frame": "sized",
}

#: Layers whose code runs in the benchmark's own process, per workload kind.
SERIAL_SIM_LAYERS = frozenset({
    "sim", "sim.trace", "net", "core.protocol", "core.tables", "core.output",
    "storage", "runtime.host", "runtime.executor", "runtime.harness",
    "oracle", "control", "app",
})
PARALLEL_LAYERS = frozenset({"parallel"})
SERVE_LAYERS = frozenset({"backplane", "oracle"})


class Spans:
    """The in-memory span log: one entry per wrapped call, in call order."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id: List[int] = []
        self.start_ns: List[int] = []
        self.end_ns: List[int] = []
        self.parent: List[int] = []
        self._stack: List[int] = []
        #: Calls of functions that are counted, not timed.
        self.counts: Dict[str, int] = {}
        #: Sum of ``len(result)`` for spans wrapped with ``sized=True``.
        self.sizes: Dict[str, int] = {}

    def _id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    # -- wrappers --------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, sized: bool = False) -> Callable:
        """``fn`` timed as one span per call.  The hot path of a traced run:
        everything it touches is a local of the closure."""
        ident = self._id(name)
        name_id, start_ns, end_ns = self.name_id, self.start_ns, self.end_ns
        parent, stack = self.parent, self._stack
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(start_ns)
            name_id.append(ident)
            parent.append(stack[-1] if stack else -1)
            end_ns.append(0)
            stack.append(index)
            start_ns.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_ns[index] = clock()
                stack.pop()

        if not sized:
            return traced
        sizes = self.sizes
        sizes.setdefault(name, 0)

        def traced_sized(*args: Any, **kwargs: Any) -> Any:
            result = traced(*args, **kwargs)
            sizes[name] += len(result)
            return result

        return traced_sized

    def wrap_async_root(self, name: str, fn: Callable) -> Callable:
        """A coroutine function timed as one span that stays open across
        its awaits.  Only valid for the outermost call: synchronous spans
        recorded while it is suspended become its children."""
        ident = self._id(name)

        async def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(self.start_ns)
            self.name_id.append(ident)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end_ns.append(0)
            self._stack.append(index)
            self.start_ns.append(time.perf_counter_ns())
            try:
                return await fn(*args, **kwargs)
            finally:
                self.end_ns[index] = time.perf_counter_ns()
                self._stack.remove(index)

        return traced

    def count_calls(self, name: str, fn: Callable) -> Callable:
        """``fn`` counted but not timed (coroutine functions that several
        tasks await at once cannot nest on one stack)."""
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- analysis --------------------------------------------------------------

    def by_name(self, under: Optional[str] = None,
                ) -> Dict[str, Dict[str, float]]:
        """``name -> {"calls", "total_s", "self_s"}``; with ``under``, only
        the spans of that name and their descendants are counted."""
        table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                 for name in self.names}
        for name, count in self.counts.items():
            table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            table[name]["calls"] += count
        self_ns = self_times(self.start_ns, self.end_ns, self.parent)
        root = self._name_ids.get(under)
        inside: List[bool] = []  # a parent's index is below its children's
        for i, ident in enumerate(self.name_id):
            inside.append(under is None or ident == root
                          or (self.parent[i] >= 0 and inside[self.parent[i]]))
            if not inside[i]:
                continue
            row = table[self.names[ident]]
            row["calls"] += 1
            row["total_s"] += (self.end_ns[i] - self.start_ns[i]) / 1e9
            row["self_s"] += self_ns[i] / 1e9
        return table

    def durations_s(self, name: str) -> List[float]:
        ident = self._name_ids.get(name)
        return [(self.end_ns[i] - self.start_ns[i]) / 1e9
                for i, other in enumerate(self.name_id) if other == ident]

    def dump_jsonl(self, path: str, limit: int = 200_000) -> int:
        """Write a header and the first ``limit`` spans, one JSON object a
        line; times are nanoseconds since the first span."""
        origin = self.start_ns[0] if self.start_ns else 0
        written = min(limit, len(self.start_ns))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.start_ns),
                                 "written": written,
                                 "counts": self.counts,
                                 "sizes": self.sizes}) + "\n")
            for i in range(written):
                fh.write('{"i":%d,"name":"%s","start_ns":%d,"end_ns":%d,'
                         '"parent":%d}\n' % (
                             i, self.names[self.name_id[i]],
                             self.start_ns[i] - origin,
                             self.end_ns[i] - origin, self.parent[i]))
        return written


def self_times(start: List[int], end: List[int],
               parent: List[int]) -> List[int]:
    """Self time of every span of a tree given as parallel lists."""
    self_time = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            self_time[p] -= end[i] - start[i]
    return self_time


def layer_self_s(by_name: Dict[str, Dict[str, float]],
                 layers: Iterable[str]) -> Dict[str, float]:
    """Sum span self times into layers: a span ``<layer>.<call>`` belongs
    to ``<layer>``."""
    totals = {layer: 0.0 for layer in layers}
    for name, row in by_name.items():
        layer = name.rpartition(".")[0]
        if layer in totals:
            totals[layer] += row["self_s"]
    return totals


def span_name(layer: str, target: str) -> str:
    return f"{layer}.{target.rsplit('.', 1)[-1].rsplit(':', 1)[-1]}"


# -- installation --------------------------------------------------------------


class Installation:
    """The originals replaced by :func:`install`, for putting them back."""

    def __init__(self) -> None:
        self._originals: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, new: Any) -> None:
        self._originals.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _wrap_register(spans: Spans, register: Callable) -> Callable:
    """``Network.register`` with every receive hook timed as ``net.receive``."""

    def traced_register(self: Any, pid: int, hook: Callable) -> None:
        register(self, pid, spans.wrap("net.receive", hook))

    return traced_register


def install(spans: Spans, layers: Iterable[str],
            targets: Optional[Iterable[Tuple[str, str]]] = None) -> Installation:
    """Wrap every target whose layer is in ``layers``.

    Raises ``LookupError`` naming the target when a module, class or
    attribute no longer exists."""
    wanted = set(layers)
    installation = Installation()
    try:
        for layer, target in (TARGETS if targets is None else targets):
            if layer not in wanted:
                continue
            module_name, _, path = target.partition(":")
            try:
                owner: Any = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                if attr not in vars(owner):
                    raise AttributeError(f"{owner!r} does not define {attr}")
            except (ImportError, AttributeError) as exc:
                raise LookupError(
                    f"traced name {target!r} (layer {layer}) no longer "
                    f"exists: {exc}") from exc
            name = span_name(layer, target)
            how = HOW.get(target, "span")
            owners = [owner]
            if isinstance(owner, type):
                owners += [sub for sub in _subclasses(owner)
                           if attr in vars(sub)]
            for cls in owners:
                fn = vars(cls)[attr]
                if how == "hook":
                    wrapped = _wrap_register(spans, fn)
                elif how == "count":
                    wrapped = spans.count_calls(name, fn)
                elif how == "async_root":
                    wrapped = spans.wrap_async_root(name, fn)
                else:
                    wrapped = spans.wrap(name, fn, sized=how == "sized")
                installation.replace(cls, attr, wrapped)
    except BaseException:
        installation.uninstall()
        raise
    return installation
