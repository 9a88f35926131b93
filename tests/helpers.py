"""Shared test helpers: compact constructors for protocol objects,
messages, simulation harnesses, and effect extraction."""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Dict, List, Optional, Type

from repro.app.behavior import AppBehavior, AppContext, EchoBehavior
from repro.core.depvec import DependencyVector
from repro.core.effects import CommitOutput, Effect
from repro.core.entry import Entry
from repro.core.protocol import KOptimisticProcess
from repro.core.tables import LoggingProgressTable
from repro.net.message import AppMessage, FailureAnnouncement, LogProgressNotification
from repro.sim.rng import draw64
from repro.types import MessageId

_counter = itertools.count(1)


def next_draws(network) -> Dict[tuple, int]:
    """The next draw of every channel's stream and every fault stream a
    network holds, by ``("net" | "faults", src, dst, control)``, read
    without advancing any of them."""
    streams = {("net",) + key: channel
               for key, channel in network._channels.items()}
    if network.faults is not None:
        streams.update({("faults",) + key: draws
                        for key, draws in network.faults._draws.items()})
    return {name: draw64(draws.key, draws.index)
            for name, draws in sorted(streams.items())}


def causal_past(oracle, interval) -> set:
    """All intervals u with u -> ``interval`` (itself included), by a
    traversal of the oracle's predecessor edges: the reference the
    oracle's causal vectors and stable frontier are checked against."""
    seen = set()
    stack = [interval]
    while stack:
        iid = stack.pop()
        if iid in seen or not oracle.exists(iid):
            continue
        seen.add(iid)
        stack.extend(oracle.node(iid).preds)
    return seen


def build_sim(
    n: int = 4,
    k: Optional[int] = None,
    seed: int = 0,
    failures: Any = None,
    workload: Any = None,
    rate: float = 0.5,
    until: Optional[float] = 200.0,
    protocol: type = KOptimisticProcess,
    **config_kwargs: Any,
):
    """One-stop scenario builder: config + workload + harness + install.

    This is the single shared constructor for end-to-end harness tests
    (previously duplicated as per-suite ``build()`` helpers).  ``workload``
    defaults to ``RandomPeersWorkload(rate=rate)``; ``until`` is the
    injection horizon (``None`` skips installation entirely, leaving a
    harness with no scheduled traffic).  Extra keyword arguments go to
    :class:`~repro.runtime.config.SimConfig`.
    """
    from repro.runtime.config import SimConfig
    from repro.runtime.harness import SimulationHarness
    from repro.workloads.random_peers import RandomPeersWorkload

    config = SimConfig(n=n, k=k, seed=seed, **config_kwargs)
    if workload is None:
        workload = RandomPeersWorkload(rate=rate)
    harness = SimulationHarness(config, workload.behavior(),
                                failures=failures,
                                protocol=protocol)
    if until is not None:
        workload.install(harness, until=until)
    return harness


class Scripted(AppBehavior):
    """Sends and outputs exactly what the delivered payload says:
    ``{"sends": [(dst, k_limit), ...], "outputs": [tag, ...]}``."""

    def initial_state(self, pid, n):
        return {"delivered": 0}

    def on_message(self, state, payload, ctx):
        state["delivered"] += 1
        for dst, k_limit in payload.get("sends", ()):
            ctx.send(dst, {}, k=k_limit)
        for tag in payload.get("outputs", ()):
            ctx.output(tag)
        return state


def make_proc(
    pid: int = 0,
    n: int = 4,
    k: int = 4,
    behavior: Optional[AppBehavior] = None,
    cls: Type[KOptimisticProcess] = KOptimisticProcess,
    **kwargs: Any,
) -> KOptimisticProcess:
    """An initialized protocol instance."""
    if cls is KOptimisticProcess:
        proc = cls(pid, n, k, behavior or EchoBehavior(), **kwargs)
    else:
        proc = cls(pid, n, k, behavior or EchoBehavior(), **kwargs)
    proc.initialize()
    return proc


def make_vector(n: int, entries: Dict[int, Entry]) -> DependencyVector:
    return DependencyVector(n, entries)


def make_msg(
    src: int,
    dst: int,
    n: int = 4,
    entries: Optional[Dict[int, Entry]] = None,
    payload: Any = None,
    send_interval: Optional[Entry] = None,
    seq: Optional[int] = None,
) -> AppMessage:
    """A hand-built application message.

    ``entries`` become the piggybacked vector; ``send_interval`` defaults
    to the sender's entry in the vector (or (0,1))."""
    entries = dict(entries or {})
    interval = send_interval or entries.get(src) or Entry(0, 1)
    entries.setdefault(src, interval)
    return AppMessage(
        msg_id=MessageId(src, interval.inc, interval.sii,
                         next(_counter) if seq is None else seq),
        src=src,
        dst=dst,
        payload=payload if payload is not None else {},
        tdv=DependencyVector(n, entries),
        send_interval=interval,
    )


def make_announcement(origin: int, inc: int, sii: int) -> FailureAnnouncement:
    return FailureAnnouncement(origin, Entry(inc, sii))


def log_notification(origin: int,
                     rows: List[Dict[int, int]]) -> LogProgressNotification:
    """The notification a sender whose log table holds ``rows`` (one
    ``inc -> max index`` dict per process) would send: its columnar
    snapshot, on the backend a table over ``len(rows)`` processes uses."""
    table = LoggingProgressTable(len(rows))
    for pid, row in enumerate(rows):
        for inc, sii in row.items():
            table.insert(pid, Entry(inc, sii))
    return LogProgressNotification(origin, table.snapshot_columns())


def assert_identical(got: Any, sent: Any) -> None:
    """``got`` equals ``sent`` with the same type at every level: fields of
    dataclasses, items of containers, a vector's entries."""
    assert type(got) is type(sent), (got, sent)
    if dataclasses.is_dataclass(sent):
        for field in dataclasses.fields(sent):
            assert_identical(getattr(got, field.name), getattr(sent, field.name))
    elif isinstance(sent, DependencyVector):
        assert got.n == sent.n and list(got.items()) == list(sent.items())
    elif isinstance(sent, (list, tuple)):
        assert len(got) == len(sent), (got, sent)
        for g, s in zip(got, sent):
            assert_identical(g, s)
    elif isinstance(sent, dict):
        assert list(got) == list(sent), (got, sent)
        for key in sent:
            assert_identical(got[key], sent[key])
    elif isinstance(sent, (set, frozenset)):
        assert {(type(v), v) for v in got} == {(type(v), v) for v in sent}
    assert got == sent, (got, sent)


def lex_max(a: Optional[Entry], b: Optional[Entry]) -> Optional[Entry]:
    """Reference NULL-aware lexicographic maximum (NULL < any entry): what
    a vector merge must compute per process."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a >= b else b


def lex_min(a: Optional[Entry], b: Optional[Entry]) -> Optional[Entry]:
    """Reference NULL-aware lexicographic minimum (NULL < any entry)."""
    if a is None or b is None:
        return None
    return a if a <= b else b


def effects_of(effects: List[Effect], effect_type: type) -> List[Effect]:
    """Filter an effects list by type."""
    return [e for e in effects if isinstance(e, effect_type)]


def deliver_env(proc: KOptimisticProcess, payload: Any = None) -> List[Effect]:
    """Inject an environment message (empty vector) and return effects."""
    msg = AppMessage(
        msg_id=MessageId(-1, 0, 0, next(_counter)),
        src=-1,
        dst=proc.pid,
        payload=payload if payload is not None else {},
        tdv=DependencyVector(proc.n),
    )
    return proc.on_receive(msg)


class SilentCommitProcess(KOptimisticProcess):
    """Journals each output's commit but never shows the output to the
    outside world."""

    def _update_output_buffer(self):
        return [effect for effect in super()._update_output_buffer()
                if not isinstance(effect, CommitOutput)]
