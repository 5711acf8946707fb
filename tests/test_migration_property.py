"""Property test: the control plane is invisible to clients.

The PR 4 recovery-property pattern, lifted to the cluster level: generate a
random batched update/query workload, run it twice against identically
configured clusters, and on one of them interleave random control-plane
activity — live migrations (sometimes crashed mid-flight at a random
phase), read-replica seeding, server crashes with failover, revivals and
master rebalance passes — at random points between batches.  The final
states must be indistinguishable: same tablet boundaries, same keys, same
full row contents, same NN results for a fixed query sample.  Simulated
*costs* are allowed to differ (migrations charge the durability ledger and
chill block caches); *state* is not.
"""

import random

import pytest

from repro.experiments.common import uniform_leader_indexer
from repro.experiments.recovery import _nn_signature, _state_signature
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import UpdateMessage, format_object_id
from repro.server.cluster import ServerCluster
from repro.server.faults import CRASH_AFTER_FLUSH, CRASH_AFTER_HANDOFF
from repro.server.master import MasterOptions, TabletMaster
from repro.workload.queries import NNQueryWorkload

from shard_harness import full_row_signature, single_shard_client


def update_batches(rng, num_objects, num_batches, batch_size):
    """A reproducible batched update stream over known objects."""
    batches = []
    step = 0
    for _ in range(num_batches):
        batch = []
        for _ in range(batch_size):
            batch.append(
                UpdateMessage(
                    object_id=format_object_id(rng.randrange(num_objects)),
                    location=Point(
                        rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)
                    ),
                    velocity=Vector(1.0, 0.5),
                    timestamp=float(step) / 10.0,
                )
            )
            step += 1
        batches.append(batch)
    return batches


def control_actions(rng, master, cluster):
    """One random slice of control-plane activity between two batches."""
    roll = rng.random()
    if roll < 0.35:
        # A live migration of a random tablet, sometimes crashed mid-flight.
        stats = master.backend.tablet_stats()
        if not stats:
            return
        entry = stats[rng.randrange(len(stats))]
        source = cluster.server_index_for_tablet(entry.tablet_id)
        targets = [
            index
            for index in cluster.alive_server_indices()
            if index != source
        ]
        if not targets:
            return
        crash_point = rng.choice(
            [None, None, CRASH_AFTER_FLUSH, CRASH_AFTER_HANDOFF]
        )
        master.migrate_tablet(
            entry.table,
            entry.tablet_id,
            targets[rng.randrange(len(targets))],
            crash_point=crash_point,
        )
    elif roll < 0.5:
        # Replicate a random tablet for query fan-out.
        stats = master.backend.tablet_stats()
        if not stats:
            return
        entry = stats[rng.randrange(len(stats))]
        alive = cluster.alive_server_indices()
        master.replicate_tablet(
            entry.table, entry.tablet_id, alive[rng.randrange(len(alive))]
        )
    elif roll < 0.7:
        # Crash a random server (failover), unless it is the last one.
        victim = rng.randrange(cluster.num_servers)
        if (
            cluster.servers[victim].alive
            and len(cluster.alive_server_indices()) > 1
        ):
            master.fail_over(victim, rebalance=rng.random() < 0.5)
    elif roll < 0.85:
        # Revive whichever server has been down the longest.
        for index, server in enumerate(cluster.servers):
            if not server.alive:
                cluster.revive_server(index)
                break
    else:
        master.rebalance()


@pytest.mark.parametrize("seed", range(8))
def test_migrated_faulted_cluster_equals_unmigrated_reference(seed):
    rng = random.Random(3000 + seed)
    num_objects = rng.choice([400, 800])
    num_servers = rng.choice([3, 4, 5])
    batch_size = rng.choice([64, 128, 256])
    batches = update_batches(rng, num_objects, num_batches=10, batch_size=batch_size)
    queries = NNQueryWorkload(
        uniform_leader_indexer(10, seed=1).config.world, k=8, seed=seed
    ).batch(25)

    reference = uniform_leader_indexer(num_objects, seed=11)
    reference_cluster = ServerCluster(reference, num_servers=num_servers)
    for batch in batches:
        reference_cluster.submit_update_batch(batch)
        reference_cluster.submit_query_batch(queries[:5])

    subject = uniform_leader_indexer(num_objects, seed=11)
    cluster = ServerCluster(subject, num_servers=num_servers)
    master = TabletMaster(cluster, MasterOptions(replicate_read_share=0.10))
    for batch in batches:
        control_actions(rng, master, cluster)
        cluster.submit_update_batch(batch)
        # Query batches exercise replica fan-out mid-fault; results checked
        # wholesale at the end via the NN signature.
        cluster.submit_query_batch(queries[:5])

    assert _state_signature(subject) == _state_signature(reference), (
        f"seed {seed}: boundaries/keys diverged"
    )
    assert full_row_signature(subject) == full_row_signature(reference), (
        f"seed {seed}: row contents diverged"
    )
    assert _nn_signature(subject, queries) == _nn_signature(
        reference, queries
    ), f"seed {seed}: NN results diverged"


def control_actions_via_client(rng, client, num_servers):
    """The :func:`control_actions` slice, spoken through a shard client.

    Consumes ``rng`` draw for draw like the in-process original (including
    draws that happen only behind conditionals), so a remote run can be
    compared against the same reference workload.
    """
    roll = rng.random()
    if roll < 0.35:
        stats = client.call("metrics")["tablets"]
        if not stats:
            return
        entry = stats[rng.randrange(len(stats))]
        source = client.call("server_index_for_tablet", entry.tablet_id)
        targets = [
            index
            for index in client.call("alive_server_indices")
            if index != source
        ]
        if not targets:
            return
        crash_point = rng.choice(
            [None, None, CRASH_AFTER_FLUSH, CRASH_AFTER_HANDOFF]
        )
        client.call(
            "migrate_tablet",
            entry.table,
            entry.tablet_id,
            targets[rng.randrange(len(targets))],
            crash_point=crash_point,
        )
    elif roll < 0.5:
        stats = client.call("metrics")["tablets"]
        if not stats:
            return
        entry = stats[rng.randrange(len(stats))]
        alive = client.call("alive_server_indices")
        client.call(
            "replicate_tablet",
            entry.table,
            entry.tablet_id,
            alive[rng.randrange(len(alive))],
        )
    elif roll < 0.7:
        victim = rng.randrange(num_servers)
        alive = client.call("alive_server_indices")
        if victim in alive and len(alive) > 1:
            client.call("fail_over", victim, rebalance=rng.random() < 0.5)
    elif roll < 0.85:
        alive = set(client.call("alive_server_indices"))
        for index in range(num_servers):
            if index not in alive:
                client.call("revive_server", index)
                break
    else:
        client.call("rebalance")


@pytest.mark.parametrize("backend", ["inprocess", "process", "disk"])
@pytest.mark.parametrize("seed", [1, 4])
def test_control_plane_is_lossless_across_the_rpc_boundary(backend, seed):
    """The headline property, with the faulted cluster living inside a
    shard worker: every control-plane verb crosses the RPC boundary, and
    the final state must still equal the quiet in-process reference.  The
    ``disk`` backend additionally persists the faulted shard's tables to
    real files while the control plane churns."""
    from repro.server.worker import ShardRecipe

    rng = random.Random(3000 + seed)
    num_objects = rng.choice([400, 800])
    num_servers = rng.choice([3, 4, 5])
    batch_size = rng.choice([64, 128, 256])
    batches = update_batches(rng, num_objects, num_batches=8, batch_size=batch_size)
    queries = NNQueryWorkload(
        uniform_leader_indexer(10, seed=1).config.world, k=8, seed=seed
    ).batch(25)

    reference = uniform_leader_indexer(num_objects, seed=11)
    reference_cluster = ServerCluster(reference, num_servers=num_servers)
    for batch in batches:
        reference_cluster.submit_update_batch(batch)
        reference_cluster.submit_query_batch(queries[:5])

    recipe = ShardRecipe(
        num_objects=num_objects,
        seed=11,
        num_servers=num_servers,
        with_master=True,
        master_options=MasterOptions(replicate_read_share=0.10),
    )
    with single_shard_client(backend, recipe=recipe) as client:
        for batch in batches:
            control_actions_via_client(rng, client, num_servers)
            client.update_batch(batch)
            client.query_batch(queries[:5])
        assert client.call("state_signature") == _state_signature(reference), (
            f"seed {seed} ({backend}): boundaries/keys diverged"
        )
        assert client.call("full_row_signature") == full_row_signature(
            reference
        ), f"seed {seed} ({backend}): row contents diverged"
        assert client.call("nn_signature", queries) == _nn_signature(
            reference, queries
        ), f"seed {seed} ({backend}): NN results diverged"


@pytest.mark.parametrize("seed", [1, 4])
def test_control_plane_survives_supervised_worker_death(seed):
    """The RPC-boundary property composed with PR 10's supervised masters:
    the worker hosting the faulted shard is SIGKILLed *twice* mid-workload
    and healed by a ``respawn`` supervisor, and the final state must still
    equal the quiet in-process reference draw for draw.  The accounting
    checkpoint restores the master's decision history and routing
    overrides, so the replayed control actions continue exactly where the
    dead worker's master stopped."""
    from repro.server.scaleout import ScaleOutCluster

    rng = random.Random(3000 + seed)
    num_objects = rng.choice([400, 800])
    num_servers = rng.choice([3, 4, 5])
    batch_size = rng.choice([64, 128, 256])
    batches = update_batches(rng, num_objects, num_batches=8, batch_size=batch_size)
    queries = NNQueryWorkload(
        uniform_leader_indexer(10, seed=1).config.world, k=8, seed=seed
    ).batch(25)

    reference = uniform_leader_indexer(num_objects, seed=11)
    reference_cluster = ServerCluster(reference, num_servers=num_servers)
    for batch in batches:
        reference_cluster.submit_update_batch(batch)
        reference_cluster.submit_query_batch(queries[:5])

    cluster = ScaleOutCluster.build(
        1,
        backend="disk",
        num_workers=1,
        supervision_policy="respawn",
        num_objects=num_objects,
        seed=11,
        num_servers=num_servers,
        with_master=True,
        master_options=MasterOptions(replicate_read_share=0.10),
    )
    try:
        client = cluster.backend.clients[0]
        for round_index, batch in enumerate(batches):
            control_actions_via_client(rng, client, num_servers)
            if round_index in (2, 5):
                cluster.backend.pool.kill_worker(0)  # the update round heals it
            cluster.submit_update_batch(batch)
            cluster.submit_query_batch(queries[:5])
        snapshot = cluster.supervisor.metrics_snapshot()
        assert snapshot["recoveries"] == 2
        assert snapshot["lost_updates"] == 0
        assert client.call("state_signature") == _state_signature(reference), (
            f"seed {seed}: boundaries/keys diverged"
        )
        assert client.call("full_row_signature") == full_row_signature(
            reference
        ), f"seed {seed}: row contents diverged"
        assert client.call("nn_signature", queries) == _nn_signature(
            reference, queries
        ), f"seed {seed}: NN results diverged"
    finally:
        cluster.close()


@pytest.mark.parametrize("seed", range(4))
def test_replicated_query_batches_match_sequential_results(seed):
    """Replica fan-out must return exactly what per-query dispatch returns,
    even while migrations churn underneath."""
    rng = random.Random(7000 + seed)
    indexer = uniform_leader_indexer(600, seed=13)
    cluster = ServerCluster(indexer, num_servers=4)
    master = TabletMaster(cluster, MasterOptions(replicate_read_share=0.05))
    batches = update_batches(rng, 600, num_batches=4, batch_size=128)
    for batch in batches:
        cluster.submit_update_batch(batch)
    master.rebalance()
    queries = NNQueryWorkload(indexer.config.world, k=10, seed=seed).batch(40)
    batched = cluster.submit_query_batch(queries)
    for query, result in zip(queries, batched):
        sequential = indexer.nearest_neighbors(
            query.location, query.k, range_limit=query.range_limit
        )
        assert [(n.object_id, n.distance) for n in result] == [
            (n.object_id, n.distance) for n in sequential
        ]
