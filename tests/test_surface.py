"""Every def under ``src/repro`` is reached from a root that is not a test.

A reachability pass walks a call graph over the AST.  Its roots are the
module-level statements under ``src/`` (``cli`` / ``__main__`` and the
``repro`` facade among them), every line of ``examples/``, ``moistbench/``
and ``benchmarks/``, and every allow-listed name, so a kept facade keeps its
callees.  Its edges:

- an import or a name load reaches the def it names;
- ``self.x`` / ``cls.x`` / ``super().x`` reaches the defs named ``x`` in the
  class hierarchy (bases and subclasses);
- any other ``obj.x``, and a ``self.x`` the hierarchy does not define,
  reaches every def named ``x``;
- a string constant outside a docstring reaches, for each of its
  ``.``-separated parts, every def of that name (``getattr``, verb
  forwarding, moistbench's dotted probe paths);
- a class reaches its bases, decorators, class-body statements and dunder
  methods.

A def no root reaches is code only its tests keep alive; it fails here
unless allow-listed below, each entry with the reason it stays.  A module
nothing outside ``tests/`` imports is the same thing one level up.  Each
name also has one import path: sub-package ``__init__`` files are
docstring-only.  A registered worker verb is the same case over the wire:
one that no file under ``src/``, ``moistbench/``, ``benchmarks/`` or
``examples/`` (``server/worker.py`` aside) passes to a send call is sent by
nothing.  The test-only verbs ``tests/shard_harness.py`` registers are the
mirror case: tests send each of them, and nothing else does.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

import pytest

from shard_harness import HARNESS_VERBS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
#: Directories whose files import and send as non-test callers.
CALLER_DIRS = ("src", "moistbench", "benchmarks", "examples")
#: Directories whose every line is a root of the reachability pass.
ROOT_DIRS = ("moistbench", "benchmarks", "examples")

ALLOWED_NAMES = {
    "MoistIndexer.objects_in_region": "the paper's library facade (Section 3)",
    "MoistIndexer.objects_near": "the paper's library facade (Section 3)",
    "MoistIndexer.predict_location": "the paper's library facade (Section 3)",
    "MoistIndexer.smoothed_trajectory": "the paper's library facade (Section 3)",
    "MoistIndexer.run_clustering": "the forced clustering pass the clustering suites drive",
    "Table.flush_memtables": "the explicit table-wide minor / major compaction the LSM suites force",
    "Table.compact_runs": "the explicit table-wide minor / major compaction the LSM suites force",
    "LevelCacheRecord.covers": "the cover rule FLAG's inlined lookup is compared against",
    "ServerCluster.submit_nn_query": "the one-query path the batched query path is compared against",
    "FrontendServer.handle_nn_query": "the one-query path the batched query path is compared against",
    "BoundingBox.intersects": "the overlap rule the covering tests compare cells against",
    "LoadTestResult.to_report": "the report bytes the determinism suites compare",
    "FaultSchedule.seeded": "draws the seeded schedules the chaos suites run",
}

ALLOWED_MODULES = {
    "repro.baselines.static_clustering": "paper comparator (Section 2.3.1), run by its tests",
    "repro.baselines.dynamic_clustering": "paper comparator (Section 2.3.2), run by its tests",
}

#: Entry points: run, not imported.
ENTRY_MODULES = {"repro.__main__", "repro.cli"}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(PACKAGE.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _package_modules() -> Dict[str, Path]:
    return {_module_name(p): p for p in sorted(PACKAGE.rglob("*.py"))}


def _caller_files() -> List[Path]:
    return [p for d in CALLER_DIRS for p in sorted((ROOT / d).rglob("*.py"))]


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: A raw reference: ``("name", id)``, ``("import", module, name)``,
#: ``("attr", owner class key or None, attr)`` or ``("string", value)``.
Ref = tuple


def _is_docstring(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _is_self(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("self", "cls")
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "super"
    )


def _refs(nodes: Iterable[ast.AST], owner: Optional[str]) -> List[Ref]:
    """The references made anywhere inside ``nodes``; ``owner`` is the key
    of the class whose method holds them (``self.x`` resolves there)."""
    found: List[Ref] = []
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if _is_docstring(node):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append(("name", node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.append(("attr", owner if _is_self(node.value) else None, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.extend(("import", node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.append(("string", node.value))
        stack.extend(ast.iter_child_nodes(node))
    return found


def _head(node: ast.AST) -> List[ast.AST]:
    """What a def evaluates besides its body: decorators and bases, or
    decorators, defaults and annotations."""
    if isinstance(node, ast.ClassDef):
        return node.decorator_list + node.bases + [k.value for k in node.keywords]
    return node.decorator_list + [node.args] + ([node.returns] if node.returns else [])


class CallGraph:
    """Defs and classes at module or class level of a set of modules (a def
    nested in a function is part of that function), keyed
    ``module:qualname``, with the references each one makes."""

    def __init__(self, modules: Dict[str, ast.Module]) -> None:
        self.nodes: Dict[str, ast.AST] = {}
        self.refs: Dict[str, List[Ref]] = {}
        self.top: Dict[str, Dict[str, str]] = defaultdict(dict)
        self.members: Dict[str, Dict[str, str]] = defaultdict(dict)
        self.bound: Dict[str, Dict[str, Tuple[str, str]]] = defaultdict(dict)
        self.module_refs: Dict[str, List[Ref]] = {}
        for module, tree in modules.items():
            self.module_refs[module] = self._collect(tree.body, module, "", None)
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module:
                    for alias in node.names:
                        self.bound[module][alias.asname or alias.name] = (
                            node.module, alias.name,
                        )
        self.by_name: Dict[str, Set[str]] = {}
        for key, node in self.nodes.items():
            self.by_name.setdefault(node.name, set()).add(key)
        self.parents: Dict[str, Set[str]] = defaultdict(set)
        self.children: Dict[str, Set[str]] = defaultdict(set)
        for key, node in self.nodes.items():
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    for parent in self._base(key.split(":")[0], base):
                        self.parents[key].add(parent)
                        self.children[parent].add(key)

    def _collect(self, body, module: str, prefix: str, owner: Optional[str]) -> List[Ref]:
        loose = []
        for node in body:
            if not isinstance(node, DEFS):
                loose.append(node)
                continue
            key = f"{module}:{prefix}{node.name}"
            self.nodes[key] = node
            (self.members[owner] if owner else self.top[module])[node.name] = key
            if isinstance(node, ast.ClassDef):
                self.refs[key] = _refs(_head(node), owner) + self._collect(
                    node.body, module, f"{prefix}{node.name}.", key
                )
            else:
                self.refs[key] = _refs(_head(node) + node.body, owner)
        return _refs(loose, owner)

    def _base(self, module: str, base: ast.AST) -> Set[str]:
        if isinstance(base, ast.Name):
            found = self._name(module, base.id)
        elif isinstance(base, ast.Attribute):
            found = self.by_name.get(base.attr, set())
        else:
            found = set()
        return {key for key in found if isinstance(self.nodes[key], ast.ClassDef)}

    def _name(self, module: str, name: str, depth: int = 0) -> Set[str]:
        """The def ``name`` means in ``module``: its own, or the one it
        imports (followed through re-exports)."""
        if name in self.top[module]:
            return {self.top[module][name]}
        if name in self.bound[module] and depth < 8:
            return self._name(*self.bound[module][name], depth + 1)
        return set()

    def _hierarchy(self, cls: str) -> Set[str]:
        """``cls``, its bases and its subclasses, transitively."""
        family = {cls}
        for edges in (self.parents, self.children):
            stack = [cls]
            while stack:
                for key in edges[stack.pop()] - family:
                    family.add(key)
                    stack.append(key)
        return family

    def resolve(self, module: str, ref: Ref) -> Set[str]:
        """The defs one reference made in ``module`` reaches."""
        kind = ref[0]
        if kind == "name":
            return self._name(module, ref[1])
        if kind == "import":
            return self._name(ref[1], ref[2])
        if kind == "attr":
            _, owner, attr = ref
            if owner is not None:
                found = {
                    self.members[cls][attr]
                    for cls in self._hierarchy(owner)
                    if attr in self.members[cls]
                }
                if found:
                    return found
            return self.by_name.get(attr, set())
        return set().union(*(self.by_name.get(part, ()) for part in ref[1].split(".")))

    def edges(self, key: str) -> Set[str]:
        module = key.split(":")[0]
        found = set().union(*(self.resolve(module, ref) for ref in self.refs[key]))
        if isinstance(self.nodes[key], ast.ClassDef):
            found |= {
                member
                for name, member in self.members[key].items()
                if name.startswith("__") and name.endswith("__")
            }
        return found

    def reach(self, roots: Iterable[str]) -> Set[str]:
        reached: Set[str] = set()
        stack = list(roots)
        while stack:
            key = stack.pop()
            if key not in reached:
                reached.add(key)
                stack.extend(self.edges(key) - reached)
        return reached

    def roots(self, callers: Iterable[ast.Module]) -> Set[str]:
        """Module-level statements of every module plus everything in
        ``callers``."""
        found: Set[str] = set()
        for module, refs in self.module_refs.items():
            for ref in refs:
                found |= self.resolve(module, ref)
        for tree in callers:
            for ref in _refs([tree], None):
                found |= self.resolve("", ref)
        return found

    def named(self, qualnames: Iterable[str]) -> Set[str]:
        wanted = set(qualnames)
        return {key for key in self.nodes if key.split(":")[1] in wanted}

    def in_modules(self, modules: Iterable[str]) -> Set[str]:
        wanted = set(modules)
        return {key for key in self.nodes if key.split(":")[0] in wanted}


def _package_graph() -> Tuple[CallGraph, Set[str]]:
    """The call graph of ``src/repro`` and its roots without the
    allow-listed names (the allow-listed modules count as roots)."""
    graph = CallGraph(
        {name: ast.parse(path.read_text()) for name, path in _package_modules().items()}
    )
    callers = [
        ast.parse(path.read_text())
        for directory in ROOT_DIRS
        for path in sorted((ROOT / directory).rglob("*.py"))
    ]
    return graph, graph.roots(callers) | graph.in_modules(ALLOWED_MODULES)


def unreached_defs() -> List[str]:
    """``module:line qualname`` of every def no root reaches."""
    graph, roots = _package_graph()
    reached = graph.reach(roots | graph.named(ALLOWED_NAMES))
    return sorted(
        f"{key.split(':')[0]}:{graph.nodes[key].lineno} {key.split(':')[1]}"
        for key in set(graph.nodes) - reached
    )


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


def test_every_def_is_reached_from_a_non_test_root():
    assert unreached_defs() == []


def _unreached(sources, callers=(), allowed=()) -> List[str]:
    """Keys the pass leaves unreached in synthetic ``module -> source``
    text, with ``callers`` as root files and ``allowed`` as root names."""
    graph = CallGraph({name: ast.parse(text) for name, text in sources.items()})
    roots = graph.roots(ast.parse(text) for text in callers) | graph.named(allowed)
    return sorted(set(graph.nodes) - graph.reach(roots))


def test_pass_a_docstring_mention_does_not_reach():
    source = (
        "def live():\n"
        "    \"\"\"Unlike dead(), this one runs.\"\"\"\n"
        "    return 1\n"
        "def dead():\n"
        "    return 2\n"
        "live()\n"
    )
    assert _unreached({"m": source}) == ["m:dead"]


def test_pass_a_getattr_string_reaches():
    source = (
        "class Service:\n"
        "    def hidden(self):\n"
        "        return 1\n"
        "def run(service, name):\n"
        "    return getattr(service, {})()\n"
    )
    caller = "from m import Service, run\nrun(Service(), None)\n"
    assert _unreached({"m": source.format("'hidden'")}) == [
        "m:Service", "m:Service.hidden", "m:run",
    ]
    assert _unreached({"m": source.format("'hidden'")}, [caller]) == []
    assert _unreached({"m": source.format("name")}, [caller]) == ["m:Service.hidden"]


def test_pass_self_attributes_stay_in_the_class_hierarchy():
    source = (
        "class Base:\n"
        "    def run(self):\n"
        "        return self.step()\n"
        "    def step(self):\n"
        "        return 0\n"
        "class Child(Base):\n"
        "    def step(self):\n"
        "        return 1\n"
        "class Stranger:\n"
        "    def step(self):\n"
        "        return 2\n"
        "Child().run()\n"
        "Stranger()\n"
    )
    assert _unreached({"m": source}) == ["m:Stranger.step"]
    # Any other receiver reaches every def of the name.
    assert _unreached({"m": source}, ["def f(obj):\n    obj.step()\n"]) == []


def test_pass_a_test_only_caller_does_not_count():
    source = "def helper():\n    return 1\n"
    assert _unreached({"m": source}) == ["m:helper"]
    assert _unreached({"m": source}, ["from m import helper\nhelper()\n"]) == []
    assert "tests" not in ROOT_DIRS + CALLER_DIRS


def test_pass_an_allow_list_entry_is_a_root():
    source = (
        "class Facade:\n"
        "    def query(self):\n"
        "        return self._plan()\n"
        "    def _plan(self):\n"
        "        return 1\n"
        "Facade()\n"
    )
    assert _unreached({"m": source}) == ["m:Facade._plan", "m:Facade.query"]
    assert _unreached({"m": source}, allowed={"Facade.query"}) == []


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


def _sent_from(directories: Iterable[str]) -> Set[str]:
    """Verbs some file under ``directories`` (``server/worker.py`` aside)
    sends."""
    worker = PACKAGE / "server" / "worker.py"
    sent: Set[str] = set()
    for directory in directories:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path != worker:
                sent |= sent_verbs(ast.parse(path.read_text()))
    return sent


def unsent_verbs() -> List[str]:
    """Production worker verbs that no non-test file sends: a verb only
    tests send is dead."""
    from repro.server.worker import VERBS

    production = set(VERBS) - HARNESS_VERBS
    return sorted(production - _sent_from(CALLER_DIRS) - set(UNSENT_VERBS))


def test_every_registered_verb_has_a_sender():
    assert unsent_verbs() == []


def test_harness_verbs_are_sent_by_tests_only():
    assert HARNESS_VERBS
    assert sorted(HARNESS_VERBS - _sent_from(["tests"])) == []
    assert sorted(HARNESS_VERBS & _sent_from(CALLER_DIRS)) == []


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
    """Every entry names a def, and one that a non-test root already reaches
    is stale: the code it kept alive has a caller now."""
    graph, roots = _package_graph()
    qualnames = {key.split(":")[1] for key in graph.nodes}
    assert set(ALLOWED_NAMES) <= qualnames
    assert set(ALLOWED_MODULES) <= set(_package_modules())
    reached = {key.split(":")[1] for key in graph.reach(roots)}
    assert sorted(set(ALLOWED_NAMES) & reached) == []
