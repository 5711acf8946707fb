"""The cross-backend property suites' shard harness: test-only worker verbs.

:data:`repro.server.worker.VERBS` holds only what production sends — the
federation's data plane, its one accounting read (``metrics``) and the
metrics reset, the master's rebalance and fault injection.  The property suites also drive one shard behind either
transport: they compare its state and NN answers with an in-process
reference, run a bare :class:`~repro.bigtable.table.Table` program across a
crash (the table snapshotted at the end of each ``table_apply``), and fail,
revive and migrate servers by hand.  This module registers
those verbs (:data:`HARNESS_VERBS`) into the same table through
``worker._register`` (directly, or by :func:`_forward`) when
``tests/conftest.py`` imports it.  Workers are forked (``WorkerPool`` refuses to start without
``fork``), so every pool a test starts inherits them.  Each verb keeps the
read-only flag it had as a production verb, and with it the request-log and
exactly-once-slot treatment: ``nn_signature`` is mutating.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
import weakref
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple

from repro.bigtable.cost import OpCounter
from repro.bigtable.process_backend import (
    POOLS,
    PipeTransport,
    ShardClient,
)
from repro.bigtable.table import ColumnFamily, Table
from repro.bigtable.tablet import TabletOptions
from repro.disk.store import ShardStore
from repro.errors import ConfigurationError
from repro.experiments.recovery import _nn_signature, _state_signature
from repro.server import rpc, worker
from repro.server.worker import ShardRecipe, ShardService

import helpers

_PRODUCTION_VERBS = frozenset(worker.VERBS)

#: The bare table's families: the op vocabulary writes ``mem`` and ages
#: into ``disk``.
FAMILIES = (ColumnFamily("mem", max_versions=3), ColumnFamily("disk", max_versions=5))

#: Each service's bare table and its store, if any (``build_table``); an
#: entry goes with its service.
_bare_tables: "weakref.WeakKeyDictionary[ShardService, Tuple[Table, Optional[ShardStore]]]" = (
    weakref.WeakKeyDictionary()
)


def _indexer(service: ShardService):
    return service._require_cluster().indexer


def call(service: ShardService, method: str, *args, **kwargs) -> Any:
    """Run one verb on a service by name, as a test reads a shard: no
    codec, no request id, nothing logged."""
    return worker.lookup_verb(method)[0](service, *args, **kwargs)


def accounting(service: ShardService) -> Dict[str, Any]:
    """The shard's ``metrics`` record without its wall-clock
    ``worker_phase``: what a restored shard must reproduce exactly."""
    record = call(service, "metrics")
    del record["worker_phase"]
    return record


def _forward(
    target: Callable[[ShardService], object], read_only: bool, *names: str
) -> None:
    """Register verbs that are ``target(service).<same name>(...)``."""

    def forwarder(name: str):
        def verb(service, *args, **kwargs):
            return getattr(target(service), name)(*args, **kwargs)

        return verb

    for name in names:
        worker._register(name, forwarder(name), read_only)


def full_row_signature(indexer) -> tuple:
    """State fingerprint down to full row contents — the strongest
    comparator the losslessness suites use, on either side of the wire."""
    emulator = indexer.emulator
    out = []
    for name in emulator.table_names():
        table = emulator.table(name)
        for key in table.all_keys():
            out.append((name, key, repr(table.read_row(key, _charge=False))))
    return tuple(out)


def bare_table(knobs: Dict[str, Any]) -> Table:
    """The bare-table scenario's table, ``knobs`` its tablet options."""
    return Table("t", list(FAMILIES), options=TabletOptions(**knobs))


def apply_op(table: Table, op) -> None:
    """One step of a mutation program (``test_lsm_recovery_property``'s op
    vocabulary); an unknown op is refused."""
    kind = op[0]
    if kind == "write":
        _, key, value, ts = op
        table.write(key, "mem", "q", value, ts)
    elif kind == "delete_cell":
        table.delete_cell(op[1], "mem", "q")
    elif kind == "delete_row":
        table.delete_row(op[1])
    elif kind == "batch_write":
        table.batch_write([(key, "mem", "q", value, ts) for key, value, ts in op[1]])
    elif kind == "group_commit":
        with table.group_commit():
            for key, value, ts in op[1]:
                table.write(key, "mem", "q", value, ts)
    elif kind == "age_out":
        table.age_out("mem", "disk", op[1])
    elif kind == "flush":
        table.flush_memtables()
    elif kind == "compact":
        table.compact_runs(major=op[1])
    else:
        raise ConfigurationError(f"unknown table op {kind!r}")


def state_of(table: Table):
    """Everything observable about a table's contents and sharding."""
    boundaries = tuple(
        (tablet.tablet_id, tablet.start_key, tablet.row_count)
        for tablet in table.tablets()
    )
    keys = tuple(table.all_keys())
    rows = tuple(repr(table.read_row(key, _charge=False)) for key in keys)
    return boundaries, keys, rows


# --------------------------------------------------------------------------
# Losslessness signatures and ledgers
# --------------------------------------------------------------------------
@worker._verb(read_only=True)
def state_signature(service):
    return _state_signature(_indexer(service))


worker._register(
    "full_row_signature",
    lambda service: full_row_signature(_indexer(service)),
    read_only=True,
)


@worker._verb()
def nn_signature(service, queries):
    return _nn_signature(_indexer(service), queries)


@worker._verb(read_only=True)
def simulated_seconds(service) -> float:
    return _indexer(service).emulator.simulated_seconds


@worker._verb(read_only=True)
def log_record_count(service) -> int:
    emulator = _indexer(service).emulator
    return helpers.log_record_count(*map(emulator.table, emulator.table_names()))


# --------------------------------------------------------------------------
# Bare-table scenario (cross-process crash-recovery property tests)
# --------------------------------------------------------------------------
@worker._verb()
def build_table(
    service, knobs: Dict[str, Any], storage_dir: Optional[str] = None
) -> None:
    if service in _bare_tables:
        raise ConfigurationError("this shard already built its bare table")
    store = None if storage_dir is None else ShardStore(storage_dir)
    snapshot = None if store is None else store.load()
    table = None
    if snapshot is not None:
        table = snapshot.restore_table("t", list(FAMILIES), OpCounter())
    if table is None:
        table = bare_table(knobs)
        if store is not None:
            store.snapshot({"t": table}, None)
    _bare_tables[service] = (table, store)


def _table(service) -> Table:
    entry = _bare_tables.get(service)
    if entry is None:
        raise ConfigurationError("this shard has no bare table (build_table)")
    return entry[0]


@worker._verb()
def table_apply(service, ops: Sequence[tuple]) -> int:
    """Apply a mutation program (the property-test op vocabulary), then
    snapshot the table when it persists."""
    table = _table(service)
    for op in ops:
        apply_op(table, op)
    store = _bare_tables[service][1]
    if store is not None:
        store.snapshot({"t": table}, None)
    return len(ops)


@worker._verb()
def table_recover(service) -> float:
    return _table(service).recover().simulated_seconds


@worker._verb(read_only=True)
def table_state(service):
    return state_of(_table(service))


# --------------------------------------------------------------------------
# Control plane by hand
# --------------------------------------------------------------------------
_forward(ShardService._require_cluster, False, "fail_server", "revive_server")
_forward(
    ShardService._require_cluster, True,
    "server_index_for_tablet", "alive_server_indices",
)
_forward(worker._master, False, "migrate_tablet", "replicate_tablet", "fail_over")

#: Every verb this module registered.
HARNESS_VERBS = frozenset(worker.VERBS) - _PRODUCTION_VERBS


class HarnessClient(ShardClient):
    """A shard client that also sends the data-plane opcodes by hand."""

    def update_batch(self, messages) -> Tuple[int, float]:
        return self._request(rpc.OP_UPDATE_BATCH, messages)

    def query_batch(self, queries) -> Tuple[list, float]:
        return self._request(rpc.OP_QUERY_BATCH, list(queries))


@contextmanager
def single_shard_client(
    backend: str,
    recipe: Optional[ShardRecipe] = None,
    table_knobs: Optional[Dict[str, Any]] = None,
    timeout_s: float = 120.0,
) -> Iterator[HarnessClient]:
    """One shard client for the cross-backend property suites.

    The client sits on a :class:`PipeTransport` over one loopback worker,
    or over a freshly spawned (and reliably shut down) forked one;
    ``backend="disk"`` additionally points the shard at a
    temporary storage directory so it persists real bytes.  When ``recipe``
    is given the shard's indexer is built before yielding; ``table_knobs``
    builds the bare-table scenario instead.
    """
    with ExitStack() as stack:
        if backend not in POOLS:
            raise ConfigurationError(
                f"unknown backend {backend!r} (expected one of {sorted(POOLS)})"
            )
        storage_dir = None
        if backend == "disk":
            storage_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="moist-disk-")
            )
        pool = stack.enter_context(POOLS[backend](1, timeout_s=timeout_s))
        client = HarnessClient(PipeTransport(pool), 0)
        if recipe is not None:
            if storage_dir is not None and recipe.storage_dir is None:
                recipe = dataclasses.replace(recipe, storage_dir=storage_dir)
            client.call("build_indexer", recipe)
        if table_knobs is not None:
            table_dir = (
                None if storage_dir is None
                else os.path.join(storage_dir, "bare-table")
            )
            client.call("build_table", table_knobs, storage_dir=table_dir)
        yield client
