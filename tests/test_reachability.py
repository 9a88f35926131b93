"""Every definition in ``src/`` has a caller outside ``tests/``.

A ``def`` or ``class`` that only its own self-test reaches is code the
program does not run: it goes, or it earns a caller.  This guard parses
``src/``, ``bench/`` and ``examples/`` and fails naming each definition
whose name appears nowhere in them except at the definition itself.

A name counts as used where the code reads it — a name, an attribute, or
an identifier inside a string that is not a docstring (``bench/tracing.py``
names its targets in strings).  Import lines and ``__all__`` entries do not
count: re-exporting a name is not using it, though reading the name an
import gave it (``import f as g``) counts as reading ``f``.  The match is by
name, not by binding, so a definition sharing its name with a used one
passes; the guard catches what nothing names at all.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "bench", "examples")

#: Test seams: definitions kept for the tests alone, each with its reason.
ALLOWED = {
    "row_size": "test_columnar_equivalence compares row widths with the reference table",
    "partition_active": "network tests assert a partition is up before and gone after a heal",
    "watched_positions": "stability-index tests count the heap positions a waiter holds",
    "non_stable_intervals": "oracle tests check what the frontier leaves unstable",
    "orphan_intervals": "oracle tests check which intervals a recovery orphaned",
    "inject_now": "protocol-level harness tests inject at the current instant",
    "state_digest": "checker tests compare end states of two runs",
    "render_jsonl": "parallel trace tests compare the canonical JSONL rendering",
    "as_dict": "vector tests compare entries as a plain dict, on either vector type",
    "sent_log": "retransmission tests read the footnote-3 copies a process keeps",
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _docstrings(tree: ast.AST) -> set:
    """ids of the string constants that are docstrings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                found.add(id(body[0].value))
    return found


def _all_entries(tree: ast.AST) -> set:
    """ids of the string constants listed in ``__all__``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                found.update(id(c) for c in ast.walk(node.value)
                             if isinstance(c, ast.Constant))
    return found


@functools.lru_cache(maxsize=None)
def scan() -> Tuple[Dict[str, List[str]], Counter]:
    """``(definitions, uses)``: where each name in ``src/`` is defined,
    and how often each name is read across the scanned trees."""
    definitions: Dict[str, List[str]] = {}
    uses: Counter = Counter()
    renamed: List[Tuple[str, str]] = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            skip = _docstrings(tree) | _all_entries(tree)
            rel = path.relative_to(ROOT).as_posix()
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    if top == "src":
                        definitions.setdefault(node.name, []).append(
                            f"{rel}:{node.lineno}")
                elif isinstance(node, ast.alias) and node.asname:
                    renamed.append((node.name.rpartition(".")[2], node.asname))
                elif isinstance(node, ast.Name):
                    uses[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    uses[node.attr] += 1
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str) and id(node) not in skip):
                    uses.update(_IDENT.findall(node.value))
    for name, asname in renamed:
        uses[name] += uses[asname]
    return definitions, uses


def unreached() -> List[str]:
    definitions, uses = scan()
    return sorted(
        f"{where}  {name}"
        for name, places in definitions.items()
        if not uses[name] and name not in ALLOWED
        and not (name.startswith("__") and name.endswith("__"))
        for where in places)


def test_every_definition_in_src_has_a_caller_outside_tests():
    dead = unreached()
    assert not dead, (
        "defined in src/ but named nowhere in src/, bench/ or examples/:\n  "
        + "\n  ".join(dead))


def test_the_allowlist_stays_small_and_current():
    assert len(ALLOWED) <= 10
    definitions, uses = scan()
    stale = sorted(name for name in ALLOWED
                   if name not in definitions or uses[name])
    assert not stale, f"allowlisted but reached or gone: {stale}"
