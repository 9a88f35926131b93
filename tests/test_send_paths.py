"""A process has one way out: the effect executor.

Every message a process sends is an effect its protocol returns, and
:class:`~repro.runtime.executor.EffectExecutor` turns each into one
transport call after the write-ahead barrier.  This guard parses ``src/``
and fails naming each call of a transport send method made anywhere else
than in the executor or in the transports themselves — a host or driver
that sends on its own bypasses the barrier and the checker's probes.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Optional

SRC = Path(__file__).resolve().parent.parent / "src"

#: The transport's send methods (the :class:`~repro.net.network.Network`
#: signatures every transport implements).
SENDS = frozenset({"send_app", "send_control", "multicast_control",
                   "broadcast_control"})

#: ``(file under src/, class or None for the whole file)`` allowed to call
#: them: the executor, and the transports delegating between their own
#: methods.
ALLOWED = (
    ("repro/runtime/executor.py", None),
    ("repro/net/network.py", None),
    ("repro/backplane/worker.py", "CoordinatorTransport"),
)


def _sends(tree: ast.AST, rel: str) -> List[str]:
    """``file:line name`` for each send call outside the allowed places."""
    found: List[str] = []

    def visit(node: ast.AST, cls: Optional[str]) -> None:
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in SENDS
                and not any(rel == path and owner in (None, cls)
                            for path, owner in ALLOWED)):
            found.append(f"{rel}:{node.lineno} {node.func.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, None)
    return found


def test_only_the_executor_and_the_transports_send():
    stray = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        stray += _sends(ast.parse(path.read_text(encoding="utf-8")), rel)
    assert not stray, (
        "transport sends outside the effect executor:\n  "
        + "\n  ".join(stray))


def test_the_guard_sees_a_stray_send():
    tree = ast.parse("class Host:\n"
                     "    def notify(self):\n"
                     "        self.transport.broadcast_control(0, None)\n")
    assert _sends(tree, "repro/runtime/host.py") == [
        "repro/runtime/host.py:3 broadcast_control"]
    assert _sends(tree, "repro/runtime/executor.py") == []
    assert _sends(tree, "repro/backplane/worker.py") == [
        "repro/backplane/worker.py:3 broadcast_control"]
