"""Every change to a table's rows, runs or tablets moves ``Table.version``.

The NN searcher keeps built candidate blocks only while the versions of the
tables it read are unchanged, so a change that forgets to bump would serve a
stale block.  Each def of ``bigtable/table.py`` that evicts from the block
cache (its rows or runs changed, or a crash lost it) or splits / merges a
tablet must therefore also run ``self.version += 1``.  The fence is a table of
call shapes, read off the AST; each shape has a planted-violation self-test,
so a rename cannot make the fence silently stop matching.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

import pytest

TABLE = Path(__file__).resolve().parents[1] / "src" / "repro" / "bigtable" / "table.py"

#: ``(rule, matches a call's dotted name)``.  A dotted name is the call's
#: attribute chain, receiver first: ``self.cache.clear()`` is
#: ``("self", "cache", "clear")``.
RULES: Tuple[Tuple[str, Callable[[Sequence[str]], bool]], ...] = (
    (
        "self.cache.invalidate_*",
        lambda name: name[:2] == ("self", "cache") and name[-1].startswith("invalidate_"),
    ),
    ("self.cache.clear", lambda name: tuple(name) == ("self", "cache", "clear")),
    (
        "self.cache.install_state",
        lambda name: tuple(name) == ("self", "cache", "install_state"),
    ),
    (
        "locator maybe_split",
        lambda name: tuple(name) == ("self", "_tablets", "maybe_split"),
    ),
    (
        "locator maybe_merge",
        lambda name: tuple(name) == ("self", "_tablets", "maybe_merge"),
    ),
)

#: One planted call per rule, for the self-test.
PLANTED = {
    "self.cache.invalidate_*": "self.cache.invalidate_source(tablet.tablet_id, 'r1')",
    "self.cache.clear": "self.cache.clear()",
    "self.cache.install_state": "self.cache.install_state(state)",
    "locator maybe_split": "self._tablets.maybe_split(tablet)",
    "locator maybe_merge": "self._tablets.maybe_merge(tablet)",
}


def _dotted(node: ast.AST) -> Tuple[str, ...]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return tuple(reversed(parts))


def _bumps(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.AugAssign)
        and isinstance(node.op, ast.Add)
        and _dotted(node.target) == ("self", "version")
    )


def _defs(tree: ast.AST, prefix: str = ""):
    """``(qualname, def)`` of every function, methods and nested defs
    included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _defs(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{node.name}", node
            yield from _defs(node, f"{prefix}{node.name}.")


def matched(source: str) -> List[Tuple[str, str, bool]]:
    """``(qualname, rule, bumps)`` for each def and each rule one of its
    calls falls under (its nested defs' calls excluded)."""
    found = []
    for qualname, function in _defs(ast.parse(source)):
        nested = {
            id(inner)
            for child in ast.iter_child_nodes(function)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(child)
        }
        body = [node for node in ast.walk(function) if id(node) not in nested]
        bumps = any(_bumps(node) for node in body)
        names = [_dotted(node.func) for node in body if isinstance(node, ast.Call)]
        for rule, matches in RULES:
            if any(name and matches(name) for name in names):
                found.append((qualname, rule, bumps))
    return found


def violations(source: str) -> List[str]:
    return [f"{name}: {rule}" for name, rule, bumps in matched(source) if not bumps]


def test_every_eviction_in_table_bumps_the_version():
    assert violations(TABLE.read_text()) == []


def test_the_fence_still_matches_the_mutation_paths():
    # Each def the change set is known to run through, by rule: a rename or
    # refactor that moves one of them must be seen here, not missed.
    seen = {(name, rule) for name, rule, _ in matched(TABLE.read_text())}
    for expected in (
        ("Table._on_tablet_changed", "self.cache.invalidate_*"),
        ("Table.install_state", "self.cache.install_state"),
        ("Table._write_into", "self.cache.invalidate_*"),
        ("Table._delete_cell_from", "self.cache.invalidate_*"),
        ("Table.delete_row", "self.cache.invalidate_*"),
        ("Table._age_row", "self.cache.invalidate_*"),
        ("Table._flush_tablet", "self.cache.invalidate_*"),
        ("Table._compact_tablet", "self.cache.invalidate_*"),
        ("Table.recover", "self.cache.clear"),
        ("Table.recover_tablet", "self.cache.invalidate_*"),
        ("Table._commit", "locator maybe_split"),
        ("Table._flush_group", "locator maybe_merge"),
        ("Table.batch_write", "locator maybe_split"),
        ("Table.batch_delete", "locator maybe_merge"),
    ):
        assert expected in seen, expected


@pytest.mark.parametrize("rule", [rule for rule, _ in RULES])
def test_the_fence_finds_a_planted_violation(rule):
    source = (
        "class Table:\n"
        "    def planted(self, tablet, state):\n"
        f"        {PLANTED[rule]}\n"
    )
    assert violations(source) == [f"Table.planted: {rule}"]
    assert violations(source + "        self.version += 1\n") == []
    # A bump in a nested def does not cover its parent.
    nested = source + "        def later():\n            self.version += 1\n"
    assert violations(nested) == [f"Table.planted: {rule}"]
