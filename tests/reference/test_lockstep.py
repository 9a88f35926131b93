"""Figures 2–3 in lockstep: the reference process of ``figure23.py`` and
:class:`~repro.core.protocol.KOptimisticProcess`, step by step.

Four processes of each kind (model backend, the constructor's default
switches) run one application side by side.  Each step is one action on
both systems at once — an outside-world injection, the arrival of an
in-flight message or announcement copy (in any order), a flush, a
Receive_log of another process's current table, a Checkpoint, or a crash
followed by Restart.  After every step the two must agree on the step's
effects and, at every process, on ``tdv``, ``log``, ``iet``, ``current``,
the receive, send and output buffers, the received ids, the application
state and ``storage.state_digest()``.  Every difference between the
pseudo-code and the implementation is one the reference states
(``STATED_DIFFERENCES``); the comparison itself allows none.

The mutants of ``repro.check.mutants`` that break a routine must diverge
here; ``deaf_owner`` (fanout pull) and ``global_random_app`` (application
draws) are outside this suite's scope.
"""

from __future__ import annotations

import inspect
import random
import re
from typing import Any, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.behavior import AppBehavior
from repro.check.mutants import MUTANTS
from repro.core.depvec import DependencyVector
from repro.core.effects import (
    BroadcastAnnouncement,
    CommitOutput,
    DuplicateDropped,
    MessageDelivered,
    MessageDiscarded,
    OutputDiscarded,
    ReleaseMessage,
    RestartPerformed,
    RollbackPerformed,
    StableProgress,
)
from repro.core.entry import Entry
from repro.core.protocol import KOptimisticProcess
from repro.net.message import AppMessage
from repro.types import MessageId

from tests.reference import figure23
from tests.reference.figure23 import Figure23Process, message_key, vector_key

N = 4
KINDS = ("deliver", "inject", "flush", "notify", "checkpoint", "crash")
Action = Tuple[str, int, int]


class Relay(AppBehavior):
    """Forwards a token while its ``ttl`` lasts (to two peers at ttl 3),
    and outputs on the way when asked to."""

    def initial_state(self, pid, n):
        return {"seen": 0}

    def on_message(self, state, payload, ctx):
        state["seen"] += 1
        ttl = payload["ttl"]
        hop = 1 + (state["seen"] + payload["tag"]) % (ctx.n - 1)
        for fan in range(2 if ttl == 3 else 1 if ttl else 0):
            dst = (ctx.pid + hop + fan) % ctx.n
            if dst == ctx.pid:
                dst = (dst + 1) % ctx.n
            ctx.send(dst, dict(payload, ttl=ttl - 1), k=payload["k"])
        if payload["out"]:
            ctx.output((payload["tag"], ctx.pid, state["seen"]))
        return state


def canonical_effect(effect: Any) -> Tuple[Any, ...]:
    """An implementation effect as the reference's tuple."""
    if isinstance(effect, ReleaseMessage):
        return ("release", message_key(effect.message))
    if isinstance(effect, BroadcastAnnouncement):
        return ("announce", effect.announcement)
    if isinstance(effect, CommitOutput):
        record = effect.record
        return ("commit", record.output_id, record.payload,
                record.send_interval)
    if isinstance(effect, MessageDelivered):
        return ("deliver", effect.message.msg_id, effect.interval,
                effect.replay, list(effect.sends), list(effect.outputs))
    if isinstance(effect, MessageDiscarded):
        return ("discard", effect.message.msg_id, effect.reason)
    if isinstance(effect, DuplicateDropped):
        return ("duplicate", effect.message.msg_id)
    if isinstance(effect, OutputDiscarded):
        return ("output-discard", effect.record.output_id)
    if isinstance(effect, StableProgress):
        return ("stable", effect.through)
    if isinstance(effect, RollbackPerformed):
        return ("rollback", effect.restored_to, effect.new_current,
                effect.intervals_undone, effect.requeued)
    if isinstance(effect, RestartPerformed):
        return ("restart", effect.announcement, effect.replayed,
                effect.new_current)
    return ("unexpected", repr(effect))


def reference_effect(effect: Tuple[Any, ...]) -> Tuple[Any, ...]:
    if effect[0] == "release":
        return ("release", message_key(effect[1]))
    return effect


def digest(storage) -> Tuple[Any, ...]:
    """``state_digest()`` with messages and vectors in canonical form."""
    checkpoints, log, announcements, ends, committed, marker = \
        storage.state_digest()
    return (
        tuple((entry, state, tdv, received, taken,
               tuple(map(message_key, receive_buffer)),
               tuple(map(message_key, sends)),
               tuple((record, vector_key(tdv)) for record, tdv in outputs))
              for (entry, state, tdv, received, taken, receive_buffer, sends,
                   outputs) in checkpoints),
        tuple((r.position, r.inc, message_key(r.message)) for r in log),
        announcements, ends, committed, marker)


def implementation_state(proc: KOptimisticProcess) -> Tuple[Any, ...]:
    return (
        vector_key(proc.tdv),
        [tuple(proc.log.entries(j)) for j in range(proc.n)],
        [tuple(proc.iet.entries(j)) for j in range(proc.n)],
        proc.current,
        [m.msg_id for m in proc.receive_buffer],
        [message_key(m) for m in proc.send_buffer],
        [(p.record.output_id, vector_key(p.tdv))
         for p in proc.output_buffer.pending],
        proc.received_ids, proc.app_state, digest(proc.storage))


def reference_state(ref: Figure23Process) -> Tuple[Any, ...]:
    def table(rows):
        return [tuple(Entry(inc, sii)
                      for inc, sii in sorted(rows[j].items()))
                for j in range(ref.n)]

    return (
        vector_key(ref.tdv), table(ref.log), table(ref.iet), ref.current,
        [m.msg_id for m in ref.receive_buffer],
        [message_key(m) for m in ref.send_buffer],
        [(record.output_id, vector_key(tdv))
         for record, tdv in ref.output_buffer],
        ref.received_ids, ref.app_state, digest(ref.storage))


STATE_FIELDS = ("tdv", "log", "iet", "current", "receive buffer",
                "send buffer", "output buffer", "received ids",
                "application state", "storage digest")


class Lockstep:
    """Both systems, driven by one action list."""

    def __init__(self, k: int, protocol: type = KOptimisticProcess):
        self.clock = 0.0
        behavior = Relay()
        now = lambda: self.clock  # noqa: E731
        self.impl = [protocol(pid=pid, n=N, k=k, behavior=behavior,
                              now_fn=now) for pid in range(N)]
        self.ref = [Figure23Process(pid, N, k, behavior, now)
                    for pid in range(N)]
        for proc, ref in zip(self.impl, self.ref):
            proc.initialize()
            ref.initialize()
        #: In flight: (destination, implementation copy, reference copy).
        self.flight: List[Tuple[int, Any, Any]] = []
        self.injected = 0

    def step(self, action: Action) -> Optional[str]:
        """Apply ``action`` to both systems; the first divergence, if any."""
        kind, a, b = action
        self.clock += 1.0
        pid = a % N
        impl, ref = self.impl[pid], self.ref[pid]
        if kind == "deliver":
            if not self.flight:
                return None
            pid, mine, theirs = self.flight.pop(a % len(self.flight))
            impl, ref = self.impl[pid], self.ref[pid]
            if isinstance(mine, AppMessage):
                got, want = impl.on_receive(mine), ref.receive(theirs)
            else:
                got = impl.on_failure_announcement(mine)
                want = ref.receive_failure_ann(theirs)
        elif kind == "inject":
            self.injected += 1
            payload = {"tag": self.injected, "ttl": b % 4, "out": b % 3 == 0,
                       "k": 0 if b == 7 else None}
            msg_id = MessageId(-1, 0, 0, self.injected)
            got = impl.on_receive(AppMessage(msg_id, -1, pid, dict(payload),
                                             DependencyVector(N)))
            want = ref.receive(AppMessage(msg_id, -1, pid, dict(payload), {}))
        elif kind == "flush":
            got, want = impl.flush(), ref.flush()
        elif kind == "notify":
            src = (pid + 1 + b % (N - 1)) % N
            got = impl.on_log_notification(
                self.impl[src].make_log_notification())
            want = ref.receive_log(self.ref[src].snapshot())
        elif kind == "checkpoint":
            got, want = impl.checkpoint(), ref.checkpoint()
        else:
            impl.crash()
            ref.crash()
            got, want = impl.restart(), ref.restart()
        got_c = [canonical_effect(e) for e in got]
        want_c = [reference_effect(e) for e in want]
        if got_c != want_c:
            return (f"{action} at P{pid}: effects differ\n"
                    f"  implementation: {got_c}\n  reference:      {want_c}")
        for mine, theirs in zip(got, want):
            if isinstance(mine, ReleaseMessage):
                self.flight.append((mine.message.dst, mine.message,
                                    theirs[1]))
            elif isinstance(mine, BroadcastAnnouncement):
                self.flight += [(dst, mine.announcement, theirs[1])
                                for dst in range(N) if dst != pid]
        for q in range(N):
            mine = implementation_state(self.impl[q])
            theirs = reference_state(self.ref[q])
            for name, x, y in zip(STATE_FIELDS, mine, theirs):
                if x != y:
                    return (f"{action}: P{q} {name} differs\n"
                            f"  implementation: {x}\n  reference:      {y}")
        return None


def run(actions: List[Action], k: int,
        protocol: type = KOptimisticProcess) -> Optional[str]:
    system = Lockstep(k, protocol)
    for i, action in enumerate(actions):
        divergence = system.step(action)
        if divergence is not None:
            return f"step {i}: {divergence}"
    return None


actions = st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 7),
                             st.integers(0, 7)), max_size=60)


@pytest.mark.parametrize("k", [0, 1, 2, 4])
@settings(max_examples=200, deadline=None)
@given(actions=actions)
def test_implementation_runs_figures_2_and_3_in_lockstep(k, actions):
    divergence = run(actions, k)
    assert divergence is None, divergence


WEIGHTS = {"deliver": 10, "inject": 5, "flush": 2, "notify": 3,
           "checkpoint": 2, "crash": 2}


def scripted(seed: int, length: int = 40) -> List[Action]:
    """A random action list, the same for the same seed."""
    rng = random.Random(seed)
    kinds = rng.choices(list(WEIGHTS), list(WEIGHTS.values()), k=length)
    return [(kind, rng.randrange(8), rng.randrange(8)) for kind in kinds]


def first_divergence(protocol: type, k: int, scripts: int = 200) -> str:
    for seed in range(scripts):
        divergence = run(scripted(seed), k, protocol)
        if divergence is not None:
            return divergence
    return ""


@pytest.mark.parametrize("k", [0, 2, 4])
def test_scripted_runs_agree(k):
    assert first_divergence(KOptimisticProcess, k, scripts=50) == ""


@pytest.mark.parametrize("name,k", [
    ("orphan_blind", 4),
    ("unbounded_release", 1),
    ("forgetful_piggyback", 4),
    ("stale_vector", 2),
    ("forgetful_checkpoint", 0),
    ("frozen_incarnation_row", 4),
])
def test_mutant_diverges(name, k):
    assert first_divergence(MUTANTS[name], k), f"{name} survived the lockstep"


def test_every_stated_difference_is_cited_and_every_citation_stated():
    source = inspect.getsource(figure23.Figure23Process)
    cited = set(re.findall(r"\[([a-z0-9]+(?:-[a-z0-9]+)+)\]", source))
    assert cited == set(figure23.STATED_DIFFERENCES)
