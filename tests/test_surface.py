"""Every public name under ``src/repro`` has a caller that is not a test.

A public def or class that nothing in ``src/``, ``moistbench/``,
``benchmarks/`` or ``examples/`` names outside its own definition is code
only its tests keep alive; a module nothing outside ``tests/`` imports is
the same thing one level up.  Both fail here unless allow-listed below,
each entry with the reason it stays.  The scan is a word count, not a call
graph: a name mentioned anywhere outside its definition (a call, an
attribute, a verb string, a docstring) counts as named.  Each name also has
one import path: sub-package ``__init__`` files are docstring-only.  A
registered worker verb is the same case over the wire: one that no file
outside ``server/worker.py`` passes to a send call is sent by nothing.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "moistbench", "benchmarks", "examples")

ALLOWED_NAMES = {
    "MoistIndexer.objects_in_region": "the paper's library facade (Section 3)",
    "MoistIndexer.objects_near": "the paper's library facade (Section 3)",
    "MoistIndexer.predict_location": "the paper's library facade (Section 3)",
    "MoistIndexer.smoothed_trajectory": "the paper's library facade (Section 3)",
    "BigtableEmulator.has_table": "BigTable's table-management API, run by its tests",
    "BigtableEmulator.drop_table": "BigTable's table-management API, run by its tests",
    "ShardService.state_signature":"cross-backend property-suite harness verb",
    "ShardService.nn_signature": "cross-backend property-suite harness verb",
    "ShardService.table_apply": "cross-backend property-suite harness verb",
    "ShardService.table_recover": "cross-backend property-suite harness verb",
    "ShardService.full_row_signature": "cross-backend property-suite harness verb",
    "full_row_signature": "what the cross-backend property suites compare shards by",
    "single_shard_client": "builds one shard behind either backend for the cross-backend suites",
}

ALLOWED_MODULES = {
    "repro.baselines.static_clustering": "paper comparator (Section 2.3.1), run by its tests",
    "repro.baselines.dynamic_clustering": "paper comparator (Section 2.3.2), run by its tests",
}

#: Entry points: run, not imported.
ENTRY_MODULES = {"repro.__main__", "repro.cli"}

WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(PACKAGE.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _package_modules() -> Dict[str, Path]:
    return {_module_name(p): p for p in sorted(PACKAGE.rglob("*.py"))}


def _caller_files() -> List[Path]:
    return [p for d in CALLER_DIRS for p in sorted((ROOT / d).rglob("*.py"))]


def _public_defs() -> List[Tuple[str, str, Path, int, int]]:
    """``(qualname, name, path, first line, last line)`` of every public
    module-level or class-level def and class, decorators included."""
    found = []

    def walk(body, prefix, path):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if not node.name.startswith("_"):
                found.append((prefix + node.name, node.name, path, first, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                walk(node.body, prefix + node.name + ".", path)

    for path in _package_modules().values():
        walk(ast.parse(path.read_text()).body, "", path)
    return found


def unnamed_defs() -> List[str]:
    """Public defs and classes named nowhere outside a def of that name."""
    defs = _public_defs()
    names = {name for _, name, _, _, _ in defs}
    spans: Dict[str, List[Tuple[Path, int, int]]] = defaultdict(list)
    for _, name, path, first, last in defs:
        spans[name].append((path, first, last))
    named: Set[str] = set()
    for path in _caller_files():
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for word in WORD.findall(line):
                if word in names and word not in named and not any(
                    p == path and first <= lineno <= last for p, first, last in spans[word]
                ):
                    named.add(word)
    return sorted(q for q, name, _, _, _ in defs if name not in named and q not in ALLOWED_NAMES)


def unimported_modules() -> List[str]:
    """Modules under ``src/repro`` that no file outside ``tests/`` imports."""
    modules = _package_modules()
    imported: Set[str] = set()
    for path in _caller_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    packages = {_module_name(p) for p in PACKAGE.rglob("__init__.py")}
    return sorted(
        m for m in modules
        if m not in imported and m not in packages
        and m not in ENTRY_MODULES and m not in ALLOWED_MODULES
    )


def test_every_public_def_has_a_caller_outside_tests():
    assert unnamed_defs() == []


def test_every_module_is_imported_outside_tests():
    assert unimported_modules() == []


@pytest.mark.parametrize(
    "init", sorted(PACKAGE.glob("*/__init__.py")), ids=lambda p: p.parent.name
)
def test_sub_package_init_is_its_docstring(init):
    """One import path per name: a sub-package re-exports nothing, so it
    needs no import shim; ``repro/__init__.py`` is the one facade."""
    body = ast.parse(init.read_text()).body
    assert len(body) == 1
    assert isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
    assert isinstance(body[0].value.value, str)


def test_no_module_defines_a_lazy_import_shim():
    shims = [
        _module_name(path)
        for path in PACKAGE.rglob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name in ("__getattr__", "__dir__")
    ]
    assert shims == []


#: Registered verbs that pass without a named send, each with the reason.
UNSENT_VERBS = {
    "update_batch": "sent by the compact data-plane opcode, not by name",
    "query_batch": "sent by the compact data-plane opcode, not by name",
    "accounting_state": "called in-process only (checkpoint writer, state tests)",
}

#: Calls whose first argument names the verb they send.
SEND_CALLS = {"call", "scatter", "encode_call"}


def _callee(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def _verb_constant(node: ast.AST) -> Set[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    return set()


def sent_verbs(tree: ast.AST) -> Set[str]:
    """Verb strings a module sends: the first argument of ``.call`` /
    ``scatter`` / ``rpc.encode_call``, or the head of a ``(verb, args,
    kwargs)`` tuple handed to ``call_round``.  A verb string anywhere else
    (a set of names, an op tag) is not a send."""
    sent: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = _callee(node)
        if callee in SEND_CALLS and node.args:
            sent |= _verb_constant(node.args[0])
        elif callee == "call_round":
            for arg in node.args:
                for item in ast.walk(arg):
                    if isinstance(item, ast.Tuple) and item.elts:
                        sent |= _verb_constant(item.elts[0])
    return sent


def unsent_verbs() -> List[str]:
    """Registered worker verbs that no file but ``server/worker.py`` sends:
    a verb nothing sends is dead."""
    from repro.server.worker import VERBS

    worker = PACKAGE / "server" / "worker.py"
    sent: Set[str] = set()
    for directory in CALLER_DIRS + ("tests",):
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path != worker:
                sent |= sent_verbs(ast.parse(path.read_text()))
    return sorted(set(VERBS) - sent - set(UNSENT_VERBS))


def test_every_registered_verb_has_a_sender():
    assert unsent_verbs() == []


def test_verb_sends_are_read_from_call_sites_only():
    tree = ast.parse(
        "client.call('a', 1)\n"
        "backend.scatter('b')\n"
        "rpc.encode_call('c', (), {})\n"
        "backend.call_round([('d', (), {}) for _ in range(2)])\n"
        "names = {'e', 'f'}\n"
        "client.call(method, 'g')\n"
    )
    assert sent_verbs(tree) == {"a", "b", "c", "d"}


def test_unsent_verb_exemptions_are_registered_verbs():
    from repro.server.worker import VERBS

    assert set(UNSENT_VERBS) <= set(VERBS)


def test_allow_list_entries_still_exist():
    qualnames = {q for q, _, _, _, _ in _public_defs()}
    assert set(ALLOWED_NAMES) <= qualnames
    assert set(ALLOWED_MODULES) <= set(_package_modules())
