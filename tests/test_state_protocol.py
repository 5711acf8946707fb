"""One state protocol: every owner of soft state exports and installs it.

A snapshot's accounting half is a fixed-order walk over these owners, so two things
must hold for each of them, on states a real run produces (a master that
migrated, replicated and failed a server over, ``record_service_times`` on,
tablets that split and flushed, a warm block cache, an exactly-once slot):

* ``export_state()`` is plain tagged-encodable data — it survives the value
  codec type-exactly (a ``tuple`` stays a tuple, an ``int`` an int);
* ``install_state(export)`` on a twin restored from the same durable files
  but with cold accounting makes the twin export the same state again.
"""

from __future__ import annotations

import shutil

import pytest

from repro.bigtable.tablet import TabletOptions
from repro.codec.values import pack_value, unpack_value
from repro.disk.store import STATE_SECTIONS
from repro.server import rpc
from repro.server.worker import ShardRecipe, ShardService, dispatch_request

from test_persistence_path import (
    RESPAWN_ID,
    _build,
    _messages,
    _queries,
    _write_snapshot,
)

SPATIAL = "spatial_index"

#: Every class with the two methods, and where one lives in a shard's stack.
OWNERS = {
    "OpCounter": lambda service: service.cluster.indexer.emulator.counter,
    "BlockCache": lambda service: service.cluster.indexer.emulator.table(SPATIAL).cache,
    "Table": lambda service: service.cluster.indexer.emulator.table(SPATIAL),
    "BigtableEmulator": lambda service: service.cluster.indexer.emulator,
    "FlagTuner": lambda service: service.cluster.indexer.flag,
    "TabletRoutingTable": lambda service: service.cluster.routing,
    "TabletContentionModel": lambda service: service.cluster.contention,
    "FrontendServer": lambda service: service.cluster.servers[1],
    "ServerCluster": lambda service: service.cluster,
    "TabletMaster": lambda service: service.cluster.master,
    "ShardService": lambda service: service,
}


def _recipe(storage_dir, **overrides) -> ShardRecipe:
    fields = dict(
        num_objects=120,
        seed=5,
        num_servers=3,
        with_master=True,
        record_service_times=True,
        storage_dir=str(storage_dir),
        tablet_options=TabletOptions(
            split_threshold=32, merge_threshold=8, memtable_flush_rows=16,
            compaction_max_runs=2,
        ),
    )
    fields.update(overrides)
    return ShardRecipe(**fields)


def _call(services: dict, request_id: int, method: str, *args):
    return rpc.decode_result(
        dispatch_request(
            services, 0, rpc.OP_CALL, rpc.encode_call(method, args, {}), request_id
        )
    )


@pytest.fixture(scope="module")
def harvested(tmp_path_factory):
    """A shard after a short seeded run that exercised every owner, every
    request through the worker's dispatch (so the blob on disk is current)."""
    storage_dir = tmp_path_factory.mktemp("harvest")
    services = _build(_recipe(storage_dir))

    def data_round(request_id: int, seed: int) -> None:
        updates = rpc.encode_update_batch(_messages(seed, timestamp=1.0 + seed))
        dispatch_request(services, 0, rpc.OP_UPDATE_BATCH, updates, request_id)
        queries = rpc.encode_query_batch(_queries(seed))
        dispatch_request(services, 0, rpc.OP_QUERY_BATCH, queries, request_id + 1)

    for round_index in range(4):
        data_round(10 + 2 * round_index, round_index)
    hot = _call(services, 20, "metrics")["tablets"][0]
    owner = _call(services, 21, "server_index_for_tablet", hot.tablet_id)
    _call(services, 22, "migrate_tablet", hot.table, hot.tablet_id, (owner + 1) % 3)
    _call(services, 23, "replicate_tablet", hot.table, hot.tablet_id, (owner + 2) % 3)
    _call(services, 24, "fail_over", owner)
    data_round(30, 9)
    yield services[0], storage_dir


@pytest.fixture
def twin(harvested, tmp_path, monkeypatch):
    """The harvested shard's tables, snapshotted into a directory of their
    own and restored with cold accounting: the walk's install is skipped."""
    recipe = _recipe(tmp_path / "twin")
    _write_snapshot(recipe, {0: harvested[0]}, harvested[0].accounting_state())
    monkeypatch.setattr(ShardService, "_install_accounting", lambda service, state: None)
    return _build(recipe, RESPAWN_ID)[0]


def _exactly(left, right) -> bool:
    """Equal, and equal in every type on the way down (``repr`` shows a
    ``1`` from a ``1.0`` and a ``True``, a tuple from a list)."""
    return left == right and repr(left) == repr(right)


def test_the_harvest_reaches_every_owner(harvested):
    service, _ = harvested
    master = service.cluster.master
    assert master.migrations and master.replications and master.failovers
    assert service.cluster.routing.export_state()[1]  # a replica survives
    assert not all(server.alive for server in service.cluster.servers)
    assert any(server.service_time_samples for server in service.cluster.servers)
    spatial = service.cluster.indexer.emulator.table(SPATIAL)
    assert spatial.tablet_count() > 1 and spatial.run_count() > 0 and len(spatial.cache)
    assert tuple(service.accounting_state()) == STATE_SECTIONS


@pytest.mark.parametrize("owner", sorted(OWNERS))
def test_export_survives_the_value_codec_and_installs_on_a_twin(
    owner, harvested, twin
):
    exported = OWNERS[owner](harvested[0]).export_state()
    assert _exactly(unpack_value(pack_value(exported)), exported)
    cold = OWNERS[owner](twin)
    assert cold.export_state() != exported  # the run moved this owner
    cold.install_state(unpack_value(pack_value(exported)))
    assert _exactly(cold.export_state(), exported)


def test_a_restored_shard_exports_what_the_dead_one_wrote(harvested, tmp_path):
    """The whole walk, through the snapshot and the requests logged after
    it: build, die, restore, same state."""
    shutil.copytree(harvested[1], tmp_path / "respawn")
    services = _build(_recipe(tmp_path / "respawn"), RESPAWN_ID)
    assert _exactly(services[0].accounting_state(), harvested[0].accounting_state())
