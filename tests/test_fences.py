"""The source fences: each invariant the code leans on is one row of a table.

MOIST's design decisions hold only if no path around them comes back: a
shard persists one snapshot plus its request log, each shard keeps one
exactly-once slot, every round takes one dispatch path, ledger arithmetic
lives in one module, and so on.  Each row of ``FENCES`` states one such rule:
the files it reads, the sites it must match (and the only ones it may) and
why.  A *text* row is a regular expression applied to every line; it keeps
retired names retired and modules that must not be named unnamed.  An *AST*
row matches by dotted reference and reports the def each match sits in by
its qualified name (``ShardStore.append``, a nested
``ShardStore.append._sync``, a module-level ``_loop``), so a match is never
credited to the def above it.

Every row checks itself: a row with sites must match each of them (a rename
that makes it match nothing fails here, not silently), and every row reports
a violation planted into the tree (the lines marked ``# planted``).

The rows read the ``.py`` files of the source directories (``SOURCE_DIRS``)
and the top level: never bytecode, and nothing under moistbench's output
directory.  Each file is read and parsed once per session.
"""

from __future__ import annotations

import ast
import fnmatch
import gc
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
#: Directories whose ``.py`` files the rows read, besides the top level's.
SOURCE_DIRS = ("src", "tests", "benchmarks", "examples", "moistbench")
#: Under a source directory but not source: moistbench's results, traces and
#: storage directories.
SKIPPED_DIRS = ("moistbench/out",)

MODULE = "<module>"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: ``(line, qualified name, the function whose own body holds the match)``;
#: a text row's qualified name is empty.
Hit = Tuple[int, str, Optional[ast.AST]]
Finder = Callable[[str], Iterable[Hit]]


def source_files(root: Path) -> Dict[str, str]:
    """Repo-relative path -> text of every file the rows read."""
    paths = sorted(root.glob("*.py"))
    for directory in SOURCE_DIRS:
        paths += sorted((root / directory).rglob("*.py"))
    files = {}
    for path in paths:
        relative = path.relative_to(root).as_posix()
        if not any(relative.startswith(f"{skipped}/") for skipped in SKIPPED_DIRS):
            files[relative] = path.read_text()
    return files


#: Parses, node indexes and each row's hits, keyed by source text, so each
#: file is parsed once however many rows read it, and a planted case re-reads
#: only the file it changed; emptied once the module's tests are done.
_MEMO: Dict[tuple, object] = {}


def _memo(key: tuple, compute: Callable[[], object]):
    if key not in _MEMO:
        _MEMO[key] = compute()
    return _MEMO[key]


@pytest.fixture(scope="module", autouse=True)
def _release_the_memo():
    yield
    _MEMO.clear()


def tree() -> Dict[str, str]:
    """This checkout's files (shared: copy before changing one)."""
    return _memo(("tree",), lambda: source_files(ROOT))


def _parse(source: str) -> ast.Module:
    def build() -> ast.Module:
        # The memo keeps every tree, so a full collection that the parse's
        # fresh nodes trigger re-walks all of them; none of it is garbage.
        # This is test code: the collector-tuning row guards src/ only.
        enabled = gc.isenabled()
        gc.disable()
        try:
            return ast.parse(source)
        finally:
            if enabled:
                gc.enable()

    return _memo(("parse", source), build)


class _Index:
    """A parsed module's nodes by type, and its defs and classes by line
    range, innermost last."""

    def __init__(self, source: str) -> None:
        self.by_type: Dict[type, List[ast.AST]] = {}
        for node in ast.walk(_parse(source)):
            self.by_type.setdefault(type(node), []).append(node)
        scopes = [
            node
            for kind in DEFS + (ast.ClassDef,)
            for node in self.by_type.get(kind, ())
        ]
        #: ``(first line, last line, qualified name, node)``, outer first.
        self.scopes: List[Tuple[int, int, str, ast.AST]] = []
        open_scopes: List[Tuple[int, int, str, ast.AST]] = []
        for node in sorted(scopes, key=lambda node: (node.lineno, -node.end_lineno)):
            while open_scopes and open_scopes[-1][1] < node.lineno:
                open_scopes.pop()
            parent = f"{open_scopes[-1][2]}." if open_scopes else ""
            scope = (node.lineno, node.end_lineno, f"{parent}{node.name}", node)
            self.scopes.append(scope)
            open_scopes.append(scope)

    def site(self, line: int) -> Tuple[str, Optional[ast.AST]]:
        """The qualified name of the innermost def or class holding
        ``line``, and that def when it is a function."""
        for first, last, qualname, node in reversed(self.scopes):
            if first <= line <= last:
                return qualname, node if isinstance(node, DEFS) else None
        return MODULE, None


def _index(source: str) -> _Index:
    return _memo(("index", source), lambda: _Index(source))


def dotted(node: ast.AST) -> Tuple[str, ...]:
    """The attribute chain of a reference, receiver first:
    ``self.cache.clear`` is ``("self", "cache", "clear")``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return tuple(reversed(parts))


def _last_name(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _is_docstring(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


# --------------------------------------------------------------------------
# Finders: source text -> hits
# --------------------------------------------------------------------------


def text(pattern: str) -> Finder:
    """Every line the regular expression matches somewhere in."""
    regex = re.compile(pattern)

    def find(source: str) -> Iterator[Hit]:
        for number, line in enumerate(source.split("\n"), 1):
            if regex.search(line):
                yield number, "", None

    return find


def words(names: Sequence[str]) -> Finder:
    """Every line that names one of ``names`` as a whole word."""
    return text(r"\b(%s)\b" % "|".join(names))


def nodes(matches: Callable[[ast.AST], bool], *types: type) -> Finder:
    """Every AST node of one of ``types`` that ``matches`` accepts."""

    def find(source: str) -> Iterator[Hit]:
        index = _index(source)
        for kind in types:
            for node in index.by_type.get(kind, ()):
                if matches(node):
                    yield (node.lineno, *index.site(node.lineno))

    return find


def references(*names: str) -> Callable[[ast.AST], bool]:
    """A reference to a dotted name such as ``os.fsync``: the attribute, or
    an import of it from its module."""
    wanted = {tuple(name.split(".")) for name in names}

    def matches(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return dotted(node) in wanted
        if isinstance(node, ast.ImportFrom):
            return any((node.module, alias.name) in wanted for alias in node.names)
        return False

    return matches


def _transport_send(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "send"
        and _last_name(node.value).endswith("transport")
    )


#: Names whose ``._private`` attributes ``server/worker.py`` must not read.
LAYERS = (
    "table", "cluster", "routing", "contention", "tablet", "server", "master",
    "emulator", "indexer",
)
_LAYER = re.compile(r"(%s)$" % "|".join(LAYERS))


def _private_reach(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and re.match(r"_[a-z]", node.attr) is not None
        and _LAYER.search(_last_name(node.value)) is not None
    )


_POOLISH = re.compile(r"backend|pool|Backend|Pool")


def _names_in(node: ast.AST) -> Iterator[str]:
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name):
            yield inner.id
        elif isinstance(inner, ast.Attribute):
            yield inner.attr
        elif isinstance(inner, ast.Constant) and isinstance(inner.value, str):
            yield inner.value


def _branches_on_pool(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and any(_POOLISH.search(name) for arg in node.args for name in _names_in(arg))
    )


LEDGERS = ("simulated_seconds", "read_seconds", "write_seconds", "durability_seconds")


def _ledger_arithmetic(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.AugAssign)
        and isinstance(node.target, ast.Attribute)
        and node.target.attr in LEDGERS
    )


def _is_runs(node: ast.AST) -> bool:
    """``x.runs`` or a subscript of it."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "runs"


def _targets(node: ast.AST) -> Iterator[ast.AST]:
    if isinstance(node, (ast.Assign, ast.Delete)):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        stack = [node.target]
    else:
        return
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Starred):
            stack.append(target.value)
        else:
            yield target


def _changes_runs(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        func = node.func
        return (
            isinstance(func, ast.Attribute)
            and func.attr in ("append", "insert", "extend")
            and _is_runs(func.value)
        )
    return any(_is_runs(target) for target in _targets(node))


def _evicts(node: ast.AST) -> bool:
    """A call that evicts from a table's block cache or splits / merges one
    of its tablets."""
    if not isinstance(node, ast.Call):
        return False
    name = dotted(node.func)
    if name[:2] == ("self", "cache") and len(name) > 2:
        return name[-1].startswith("invalidate_") or name[2:] in (("clear",), ("install_state",))
    return name in (("self", "_tablets", "maybe_split"), ("self", "_tablets", "maybe_merge"))


def bumps_version(function: Optional[ast.AST]) -> bool:
    """``self.version += 1`` in the function's own body (a nested def's bump
    does not cover its parent)."""
    stack = list(ast.iter_child_nodes(function)) if function is not None else []
    while stack:
        node = stack.pop()
        if isinstance(node, DEFS + (ast.ClassDef,)):
            continue
        if (
            isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.Add)
            and dotted(node.target) == ("self", "version")
        ):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _beyond_the_docstring(source: str) -> Iterator[Hit]:
    """Each statement besides the module docstring (line 1 when the module
    is empty, since it has no docstring either)."""
    body = _parse(source).body
    if not body:
        yield 1, MODULE, None
    for node in body[1:] if body and _is_docstring(body[0]) else body:
        yield node.lineno, MODULE, None


def _lazy_import_shims(source: str) -> Iterator[Hit]:
    for node in _parse(source).body:
        if isinstance(node, DEFS) and node.name in ("__getattr__", "__dir__"):
            yield node.lineno, node.name, node


_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _unused_imports(source: str) -> Iterator[Hit]:
    """Each name an import binds and the module never loads, reported under
    the name.  ``__future__`` imports and lines marked ``# noqa: F401`` are
    exempt, and a name that appears in any string constant counts as used —
    which covers ``__all__``, quoted annotations and ``getattr`` names."""
    lines = source.split("\n")
    index = _index(source)
    used = {node.id for node in index.by_type.get(ast.Name, ())}
    for node in index.by_type.get(ast.Constant, ()):
        if isinstance(node.value, str):
            used.update(_WORD.findall(node.value))
    imports = index.by_type.get(ast.Import, []) + index.by_type.get(ast.ImportFrom, [])
    for node in sorted(imports, key=lambda node: node.lineno):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if alias.name != "*" and name not in used:
                yield node.lineno, name, None


# --------------------------------------------------------------------------
# The table
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Site:
    """One match of a row."""

    path: str
    line: int
    qualname: str
    source: str
    function: Optional[ast.AST] = None
    problem: str = ""

    @property
    def where(self) -> str:
        """``path`` for a text row, ``path:Class.def`` for an AST row."""
        return f"{self.path}:{self.qualname}" if self.qualname else self.path

    def __str__(self) -> str:
        return f"{self.where} (line {self.line}: {self.source.strip()}) {self.problem}"


@dataclass(frozen=True)
class Fence:
    """One rule: what matches it, where it looks, where it must match."""

    rule: str
    reason: str
    #: ``fnmatch`` patterns of the repo-relative paths the row reads.
    scope: Tuple[str, ...]
    find: Finder
    #: ``path`` or ``path:Class.def`` entries: the row must match each of
    #: them and nothing else.
    sites: Tuple[str, ...] = ()
    #: ``(what, test)``: every site's function must also pass ``test``.
    requires: Optional[Tuple[str, Callable[[Optional[ast.AST]], bool]]] = None
    #: ``(path, lines)`` appended to the file (created if absent); each line
    #: marked ``# planted`` must be reported.
    plant: Tuple[str, str] = ("", "")

    def reads(self, path: str) -> bool:
        return any(fnmatch.fnmatchcase(path, pattern) for pattern in self.scope)

    def matches(self, files: Dict[str, str]) -> List[Site]:
        found = []
        for path, source in files.items():
            if not self.reads(path):
                continue
            hits = _memo(("hits", self.rule, source), lambda: list(self.find(source)))
            lines = source.split("\n") if hits else []
            for line, qualname, function in hits:
                found.append(Site(path, line, qualname, lines[line - 1], function))
        return sorted(found, key=lambda site: (site.path, site.line, site.qualname))

    def violations(self, files: Dict[str, str]) -> List[Site]:
        """Matches outside the sites, and sites that fail ``requires``."""
        found = []
        for site in self.matches(files):
            if not any(_covers(entry, site) for entry in self.sites):
                found.append(replace(site, problem="matches outside the row's sites"))
            elif self.requires and not self.requires[1](site.function):
                found.append(replace(site, problem=f"does not {self.requires[0]}"))
        return found

    def unmatched(self, files: Dict[str, str]) -> List[str]:
        """Sites the row no longer matches."""
        matched = self.matches(files)
        return [e for e in self.sites if not any(_covers(e, site) for site in matched)]


def _covers(entry: str, site: Site) -> bool:
    """A ``path`` entry covers every site in the file."""
    return entry in (site.where, site.path)


SRC = ("src/*",)
EVERYWHERE = ("*",)
STORE = "src/repro/disk/store.py"
PROCESS_BACKEND = "src/repro/bigtable/process_backend.py"
TABLE = "src/repro/bigtable/table.py"

FAULT_CONSTANTS = (
    "KILL_WORKER", "STOP_WORKER", "CORRUPT_BITFLIP", "CORRUPT_TRUNCATE",
    "CRASH_SERVER", "REVIVE_SERVER", "MIGRATION_CRASH", "CRASH_AFTER_FLUSH",
    "CRASH_AFTER_HANDOFF",
)


def retired(rule: str, reason: str, names: Sequence[str], scope=SRC, where="src/repro") -> Fence:
    """A row that keeps ``names`` out of ``scope``, planted once per name."""
    return Fence(
        rule, reason, scope, words(names),
        plant=(f"{where}/planted.py", "".join(f"{name}  # planted\n" for name in names)),
    )


#: One stranded name of each import shape (plain, ``as`` alias, one of
#: several, the first line of a multi-line import) beside every exemption: a
#: ``__future__`` import, ``# noqa: F401``, ``__all__``, a quoted annotation
#: and a dotted import used through its root.
STRANDED_IMPORTS = (
    "from __future__ import annotations\n"
    "import os  # planted\n"
    "import sys\n"
    "import xml.dom as dom  # planted\n"
    "import json.decoder\n"
    "from typing import Dict, List  # planted\n"
    "from m import kept  # noqa: F401\n"
    "from m import (  # planted\n"
    "    exported,\n"
    "    stranded,\n"
    ")\n"
    "__all__ = ['exported']\n"
    "def f() -> 'Dict[str, int]':\n"
    "    return json.decoder, sys.argv\n"
)


def planted(*lines: str, args: str = "x") -> str:
    """A ``planted`` def whose every line is marked."""
    return f"def planted({args}):\n" + "".join(f"    {line}  # planted\n" for line in lines)


FENCES: Tuple[Fence, ...] = (
    Fence(
        "collector-tuning",
        "The heap work (flat chains, rows at rest) wins by retaining fewer "
        "tracked objects; tuning the collector instead would hide the heap "
        "from the budget test and from moistbench's quarter-point collections.",
        SRC,
        text(r"gc\.(freeze|disable|set_threshold|unfreeze)"),
        plant=("src/repro/planted.py", planted(
            "gc.freeze()", "gc.disable()", "gc.set_threshold(0)", "gc.unfreeze()",
        )),
    ),
    Fence(
        "pickle",
        "The tagged value codec is the only self-describing encoding: what "
        "arrives over a socket or out of a run, request-log or snapshot file "
        "is never unpickled, so nothing under src/ names pickle at all.",
        SRC,
        text("pickle"),
        plant=("src/repro/codec/planted.py", "import pickle  # planted\n"),
    ),
    Fence(
        "worker-private-reach",
        "One state protocol: the accounting checkpoint is a walk over owners "
        "that export and install their own state, so server/worker.py never "
        "reads another layer's private attribute.",
        ("src/repro/server/worker.py",),
        nodes(_private_reach, ast.Attribute),
        plant=("src/repro/server/worker.py", planted(
            *(f"x.{layer}._state" for layer in LAYERS), "x.routing_table._rows",
        )),
    ),
    Fence(
        "fsync-module",
        "Durable at the acknowledgement: the shard store is the one module "
        "that syncs a file, so no other module under src/ names a sync call, "
        "not even in a comment.",
        SRC,
        text(r"os\.fsync|os\.fdatasync"),
        sites=(STORE,),
        plant=("src/repro/server/planted.py", "os.fsync(fd)  # planted\nos.fdatasync(fd)  # planted\n"),
    ),
    Fence(
        "fsync-sites",
        "Every real fsync is a request's log append, or a snapshot's — its "
        "run files, then the snapshot itself: three places to wrap for disk "
        "fault injection.",
        SRC,
        nodes(references("os.fsync", "os.fdatasync"), ast.Attribute, ast.ImportFrom),
        sites=(
            f"{STORE}:ShardStore.append",
            f"{STORE}:ShardStore._ensure_run_file",
            f"{STORE}:ShardStore.snapshot",
        ),
        plant=(STORE, "from os import fsync  # planted\n" + planted(
            "os.fsync(fd)", "os.fdatasync(fd)", args="fd",
        )),
    ),
    Fence(
        "replace-module",
        "A file is replaced whole only by the shard store, so no other "
        "module under src/ names a replace or rename call.",
        SRC,
        text(r"os\.(replace|rename)\("),
        sites=(STORE,),
        plant=("src/repro/server/planted.py", "os.replace(a, b)  # planted\nos.rename(a, b)  # planted\n"),
    ),
    Fence(
        "replace-sites",
        "A file is replaced whole (tmp + os.replace) only where a reader must "
        "never see it torn and nothing else guards it: the snapshot.  Run "
        "files are written in place (trusted once a snapshot names them) and "
        "the request log is appended to (each frame carries a crc).",
        SRC,
        nodes(references("os.replace", "os.rename"), ast.Attribute, ast.ImportFrom),
        sites=(f"{STORE}:ShardStore.snapshot",),
        plant=(STORE, planted("os.replace(a, b)", "os.rename(a, b)", args="a, b")),
    ),
    retired(
        "retired-persistence",
        "A shard's durable state is one snapshot plus the requests since: the "
        "journal, its barrier, the acked-watermark restore, the accounting "
        "blob and its opt-in knob are gone, and stay gone.",
        (
            "durability_barrier", "journal_sync", "journal_commit", "acked_seqs",
            "restore_seq_bounds", "StateBlob", "durable_accounting", "_maybe_checkpoint",
        ),
    ),
    retired(
        "retired-neighbor-stream",
        "A neighbour reply is one self-contained frame: no codec state lives "
        "on either end of a connection, so a respawn resets none and a "
        "replay re-encodes to the same bytes.",
        (
            "NeighborStreamEncoder", "NeighborStreamDecoder", "neighbor_encoder",
            "_decoders", "_REC_NEW", "_REC_CHANGED", "_REC_UNCHANGED",
        ),
    ),
    retired(
        "retired-commit-log",
        "The commit log is counted, not stored: recovery keeps the memtable "
        "the emulator never loses and prices the replay by each tablet's "
        "record count, so no log record, opcode or replay path comes back.",
        (
            "CommitLog", "_apply_log_record", "LOG_WRITE", "LOG_DELETE_CELL",
            "LOG_DELETE_ROW", "LOG_AGE_ROW",
        ),
    ),
    retired(
        "retired-dispatch-path",
        "One dispatch path: the in-process federation is a loopback worker "
        "pool behind the same transport, frames and request entry point "
        "(ShardService.serve), so no second transport, entry point or "
        "backend class comes back.",
        ("InProcessTransport", "serve_in_process", "LocalShardedBackend"),
    ),
    Fence(
        "backend-isinstance",
        "The server layer never branches on which backend or pool it drives: "
        "both pools expose one surface.",
        ("src/repro/server/*",),
        nodes(_branches_on_pool, ast.Call),
        plant=("src/repro/server/planted.py", planted(
            "isinstance(backend, object)", "isinstance(x.pool, object)",
            "isinstance(x, LoopbackPool)", "isinstance(x, (int, FederatedShardedBackend))",
            args="x, backend",
        )),
    ),
    Fence(
        "ledger-arithmetic",
        "Ledger arithmetic lives in one module: every simulated-seconds "
        "addition is an OpCounter method, so the bit-identical contracts of "
        "its entry points (and the ledger golden test) cover all of them.",
        ("src/repro/bigtable/*", "src/repro/tables/*", "src/repro/server/*"),
        nodes(_ledger_arithmetic, ast.AugAssign),
        sites=("src/repro/bigtable/cost.py",),
        plant=("src/repro/tables/planted.py", planted(
            *(f"x.{ledger} += 1.0" for ledger in LEDGERS), "x.read_seconds -= 1.0",
        )),
    ),
    Fence(
        "wall-clock",
        "Everything under experiments/ and benchmarks/, and the CLI, runs on "
        "the simulated clock (the paper's metric); wall clock is measured in "
        "moistbench/ only.",
        ("src/repro/experiments/*", "benchmarks/*", "src/repro/cli.py"),
        text(r"perf_counter|time\.time\(|monotonic|process_time"),
        plant=("benchmarks/planted.py", planted(
            "time.perf_counter()", "time.time()", "time.monotonic()", "time.process_time()",
        )),
    ),
    Fence(
        "sub-package-init-is-docstring",
        "One import path per name: every import names the defining module, so "
        "a sub-package __init__ is its docstring and nothing else (a "
        "re-export there is a second path, and the import cycle it closes "
        "needs a shim).  repro/__init__.py is the one re-exporting facade.",
        ("src/repro/*/__init__.py",),
        _beyond_the_docstring,
        plant=("src/repro/core/__init__.py", "from repro.core.config import MoistConfig  # planted\n"),
    ),
    Fence(
        "lazy-import-shim",
        "One import path per name needs no module-level __getattr__ / __dir__.",
        SRC,
        _lazy_import_shims,
        plant=("src/repro/core/moist.py", "def __getattr__(name):  # planted\n    raise AttributeError(name)\n"),
    ),
    Fence(
        "fault-constants",
        "One fault vocabulary: every fault kind and migration crash point is "
        "defined in server/faults.py, next to the one schedule that fires "
        "them, and imported from there everywhere else.",
        EVERYWHERE,
        text(r"^(%s)\s*=" % "|".join(FAULT_CONSTANTS)),
        sites=("src/repro/server/faults.py",),
        plant=("tests/helpers.py", "".join(f"{name} = 0  # planted\n" for name in FAULT_CONSTANTS)),
    ),
    Fence(
        "storage-backend-protocols",
        "One storage backend: BigtableEmulator is called directly, so no "
        "structural protocol stands between it and its callers.  The word "
        "boundaries keep FederatedShardedBackend out.",
        SRC,
        text(r"\b(StorageBackend|ShardedBackend|CacheAwareBackend)\b|runtime_checkable"),
        plant=("src/repro/bigtable/planted.py", "".join(
            f"{name}  # planted\n"
            for name in ("StorageBackend", "ShardedBackend", "CacheAwareBackend", "runtime_checkable")
        ) + "FederatedShardedBackend\n"),
    ),
    retired(
        "update-window",
        "Lockstep rounds only: a scale-out round has settled when its call "
        "returns, so a round carries at most one request per shard.",
        (
            "set_window", "drain_update_window", "enqueue_update_batch",
            "RoundMakespans", "makespan_at_round", "inflight_rounds", "dedup_window",
        ),
    ),
    retired(
        "dedup-window",
        "One exactly-once slot per shard, healed by the round that meets the "
        "failure: no dedup window and no heal-first sweep.",
        ("DEDUP_DEPTH", "_applied_window", "heal_dead_workers", "check_worker"),
    ),
    Fence(
        "send-sites",
        "One send path: every round — data plane and control-plane CALLs — "
        "goes through ScatterGatherEngine.round, which heals and resends; "
        "ShardClient is the supervisor rebuild's single send, which must not "
        "heal recursively.",
        SRC,
        nodes(_transport_send, ast.Attribute),
        sites=(
            f"{PROCESS_BACKEND}:ScatterGatherEngine.round",
            f"{PROCESS_BACKEND}:ShardClient._request",
        ),
        plant=("src/repro/server/planted.py", planted(
            "transport.send(requests)", "x._transport.send(requests)", "send = x.transport.send",
            args="x, transport, requests",
        )),
    ),
    Fence(
        "run-list-owner",
        "One owner of the run list: Tablet.install_runs is the only way a "
        "tablet's runs change, and the one place its run view is dropped.",
        SRC,
        nodes(_changes_runs, ast.Call, ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete),
        sites=(
            "src/repro/bigtable/tablet.py:Tablet.__init__",
            "src/repro/bigtable/tablet.py:Tablet.install_runs",
        ),
        plant=("src/repro/bigtable/planted.py", planted(
            "x.runs = ()", "x.runs[0:1] = [run]", "x.runs += (run,)", "x.runs -= run",
            "x.runs, y = (), 0", "del x.runs[0]", "x.runs.append(run)",
            "x.runs.insert(0, run)", "x.runs.extend([run])",
            args="x, run",
        )),
    ),
    retired(
        "per-run-reads",
        "Tablets read their runs through one run view, not a Bloom filter "
        "probe or heap merge per run.",
        ("heapq", "BloomFilter", "heap_merge"),
        scope=("src/repro/bigtable/*",),
        where="src/repro/bigtable",
    ),
    retired(
        "shard-harness",
        "The worker's verb table holds what production sends: the "
        "cross-backend suites' signatures, bare-table scenario and "
        "single-shard client live in tests/shard_harness.py.",
        (
            "single_shard_client", "full_row_signature", "state_signature",
            "nn_signature", "build_table", "table_apply", "table_recover", "_bare_table",
        ),
    ),
    Fence(
        "unused-import",
        "An import a deletion strands is dead code (pyflakes' F401, which "
        "ruff runs in CI; ruff is not installed on every host).",
        EVERYWHERE,
        _unused_imports,
        plant=("src/repro/planted.py", STRANDED_IMPORTS),
    ),
    Fence(
        "version-bump",
        "The NN searcher keeps built candidate blocks only while the versions "
        "of the tables it read are unchanged, so each def of bigtable/table.py "
        "that evicts from the block cache (its rows or runs changed, or a "
        "crash lost it) or splits / merges a tablet must also run "
        "self.version += 1.",
        (TABLE,),
        nodes(_evicts, ast.Call),
        sites=tuple(
            f"{TABLE}:Table.{name}"
            for name in (
                "_on_tablet_changed", "install_state", "_commit", "_flush_group",
                "_write_into", "_delete_cell_from", "delete_row", "batch_write",
                "batch_delete", "_age_row", "_flush_tablet", "_compact_tablet",
                "recover", "recover_tablet",
            )
        ),
        requires=("bump self.version", bumps_version),
        plant=(TABLE, "class Table:\n" + "".join(
            f"    def planted_{index}(self, tablet, state):\n"
            f"        {call}  # planted\n"
            "        self.version += 1\n"
            for index, call in enumerate((
                "self.cache.invalidate_source(tablet.tablet_id, 'r1')",
                "self.cache.clear()",
                "self.cache.install_state(state)",
                "self._tablets.maybe_split(tablet)",
                "self._tablets.maybe_merge(tablet)",
            ))
        )),
    ),
)

FENCE = {fence.rule: fence for fence in FENCES}
IDS = list(FENCE)


def _with(files: Dict[str, str], path: str, source: str) -> Dict[str, str]:
    return {**files, path: source}


def _append(base: str, lines: str) -> str:
    return base + ("\n" if base and not base.endswith("\n") else "") + lines


def _insert(source: str, line: int, lines: str) -> str:
    """``lines`` inserted before line ``line`` (1-based)."""
    split = source.split("\n")
    return "\n".join(split[: line - 1] + lines.rstrip("\n").split("\n") + split[line - 1 :])


def _find_def(source: str, qualname: str) -> ast.AST:
    return next(node for _, _, name, node in _index(source).scopes if name == qualname)


@pytest.mark.parametrize("fence", FENCES, ids=IDS)
def test_the_fence_holds(fence):
    found = [str(site) for site in fence.violations(tree())]
    assert found == [], f"{fence.rule}: {fence.reason}"


@pytest.mark.parametrize("fence", [f for f in FENCES if f.sites], ids=lambda f: f.rule)
def test_the_fence_still_matches_each_of_its_sites(fence):
    # A rename or refactor that moves a site must be seen here: a row that
    # matches nothing would pass vacuously.
    assert fence.unmatched(tree()) == []


@pytest.mark.parametrize("fence", FENCES, ids=IDS)
def test_the_fence_reports_a_planted_violation(fence):
    path, lines = fence.plant
    source = _append(tree().get(path, ""), lines)
    marked = [n for n, line in enumerate(source.split("\n"), 1) if line.endswith("# planted")]
    assert fence.reads(path) and marked
    reported = fence.violations(_with(tree(), path, source))
    assert [(site.path, site.line) for site in reported] == [(path, n) for n in marked]


def test_a_module_level_send_loop_is_reported_under_its_own_name():
    # Planted between ScatterGatherEngine and ShardClient: a line-oriented
    # site check would credit it to the method above it.
    fence = FENCE["send-sites"]
    source = tree()[PROCESS_BACKEND]
    planted_source = _insert(
        source,
        _find_def(source, "ShardClient").lineno,
        "def _second_send_loop(transport, requests):\n"
        "    return transport.send(requests)\n\n\n",
    )
    files = _with(tree(), PROCESS_BACKEND, planted_source)
    assert [site.where for site in fence.violations(files)] == [
        f"{PROCESS_BACKEND}:_second_send_loop"
    ]
    assert fence.unmatched(files) == []


def test_a_nested_def_is_reported_under_its_own_name():
    fence = FENCE["fsync-sites"]
    source = tree()[STORE]
    body = _find_def(source, "ShardStore.append").body[0]
    indent = " " * body.col_offset
    planted_source = _insert(
        source, body.lineno, f"{indent}def _sync_again(fd):\n{indent}    os.fsync(fd)\n"
    )
    files = _with(tree(), STORE, planted_source)
    assert [site.where for site in fence.violations(files)] == [
        f"{STORE}:ShardStore.append._sync_again"
    ]
    assert fence.unmatched(files) == []


def test_an_unused_import_is_reported_under_the_stranded_name():
    path, source = FENCE["unused-import"].plant
    reported = FENCE["unused-import"].violations(_with(tree(), path, source))
    assert [(site.line, site.qualname) for site in reported] == [
        (2, "os"), (4, "dom"), (6, "List"), (8, "stranded"),
    ]


def test_every_eviction_site_must_bump_the_version():
    fence = FENCE["version-bump"]
    stripped = re.sub(r"self\.version \+= 1", "pass", tree()[TABLE])
    reported = {site.where for site in fence.violations(_with(tree(), TABLE, stripped))}
    assert reported == set(fence.sites)


def test_a_bump_in_a_nested_def_does_not_cover_its_parent():
    outer = ast.parse("def f(self):\n    def later():\n        self.version += 1\n").body[0]
    assert not bumps_version(outer)
    assert bumps_version(outer.body[0])


def test_only_source_files_are_read(tmp_path):
    # Stale bytecode, a non-Python file and a worktree under moistbench's
    # output directory all name a retired class; none of them is source.
    for path in (
        "setup.py",
        "src/repro/m.py",
        "src/repro/__pycache__/m.cpython-39.pyc",
        "src/repro/notes.txt",
        "moistbench/run.py",
        "moistbench/out/worktree/src/repro/m.py",
        "docs/conf.py",
    ):
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text("CommitLog\n")
    files = source_files(tmp_path)
    assert sorted(files) == ["moistbench/run.py", "setup.py", "src/repro/m.py"]
    fence = FENCE["retired-commit-log"]
    assert [site.path for site in fence.violations(files)] == ["src/repro/m.py"]


def test_every_row_is_unique_and_reasoned():
    assert len(FENCE) == len(FENCES)
    assert all(fence.reason and fence.scope and fence.plant[1] for fence in FENCES)
