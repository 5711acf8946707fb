"""Unit tests for the tablet master: routing, migration, replication,
rebalancing."""

import pytest

from repro.bigtable.cost import OpKind
from repro.errors import ConfigurationError
from repro.experiments.common import uniform_leader_indexer
from repro.server.cluster import ServerCluster, TabletRoutingTable
from repro.server.loadtest import LoadTest
from repro.server.faults import CRASH_AFTER_FLUSH, CRASH_AFTER_HANDOFF
from repro.server.master import MasterOptions, TabletMaster

from helpers import make_update


def build_cluster(num_objects=800, num_servers=4, seed=17, **master_kwargs):
    indexer = uniform_leader_indexer(num_objects, seed=seed)
    cluster = ServerCluster(indexer, num_servers=num_servers)
    master = TabletMaster(cluster, MasterOptions(**master_kwargs))
    return indexer, cluster, master


def drive_updates(cluster, count=1200, num_objects=800, batch_size=256):
    messages = [
        make_update(index % num_objects, 10.0 + (index % 900), 10.0 + (index % 900))
        for index in range(count)
    ]
    load_test = LoadTest(cluster, failure_probability=0.0)
    return load_test.run_update_batches(messages, batch_size=batch_size)


class TestTabletRoutingTable:
    def test_defaults_to_hash_affinity(self):
        routing = TabletRoutingTable(4)
        assert routing.primary_index("t/x") == routing.default_index("t/x")
        assert routing.export_state() == ({}, {})
        assert routing.read_indices("t/x") == (routing.default_index("t/x"),)

    def test_assignment_overrides_default(self):
        routing = TabletRoutingTable(4)
        target = (routing.default_index("t/x") + 1) % 4
        routing.assign("t/x", target)
        assert routing.primary_index("t/x") == target
        assert routing.export_state() == ({"t/x": target}, {})

    def test_replicas_follow_primary(self):
        routing = TabletRoutingTable(4)
        primary = routing.primary_index("t/x")
        replica = (primary + 1) % 4
        assert routing.add_replica("t/x", replica)
        assert not routing.add_replica("t/x", replica)  # already serving
        assert not routing.add_replica("t/x", primary)  # primary serves anyway
        assert routing.read_indices("t/x") == (primary, replica)
        assert routing.replica_counts() == {"t/x": 2}
        # Promoting the replica to primary collapses the replica set.
        routing.assign("t/x", replica)
        assert routing.read_indices("t/x") == (replica,)
        assert routing.replica_counts() == {}

    def test_drop_server_strips_replicas(self):
        routing = TabletRoutingTable(3)
        primary = routing.primary_index("t/x")
        replica = (primary + 1) % 3
        routing.add_replica("t/x", replica)
        routing.drop_server(replica)
        assert routing.read_indices("t/x") == (primary,)

    def test_invalid_servers_rejected(self):
        routing = TabletRoutingTable(2)
        with pytest.raises(ConfigurationError):
            routing.assign("t/x", 5)
        with pytest.raises(ConfigurationError):
            routing.add_replica("t/x", -1)
        with pytest.raises(ConfigurationError):
            TabletRoutingTable(0)


class TestMigration:
    def test_committed_migration_repoints_routing(self):
        indexer, cluster, master = build_cluster()
        drive_updates(cluster)
        stats = max(indexer.tablet_stats(), key=lambda s: s.simulated_seconds)
        source = cluster.server_index_for_tablet(stats.tablet_id)
        target = (source + 1) % cluster.num_servers
        record = master.migrate_tablet(stats.table, stats.tablet_id, target)
        assert record.committed
        assert record.source == source
        assert record.target == target
        assert cluster.server_index_for_tablet(stats.tablet_id) == target
        # The hand-off was priced on the durability ledger, not the
        # paper-facing one.
        counter = indexer.emulator.counter
        assert counter.durability_count(OpKind.MIGRATION) == 1
        assert OpKind.MIGRATION not in counter.counts

    def test_migration_ships_runs_and_log_tail(self):
        indexer, cluster, master = build_cluster()
        drive_updates(cluster)
        stats = max(indexer.tablet_stats(), key=lambda s: s.row_count)
        target = (cluster.server_index_for_tablet(stats.tablet_id) + 1) % 4
        record = master.migrate_tablet(stats.table, stats.tablet_id, target)
        # freeze+flush moved the memtable into a run before the hand-off.
        assert record.rows_shipped >= stats.row_count
        table = indexer.emulator.table(stats.table)
        tablet = table.find_tablet(stats.tablet_id)
        assert len(tablet.runs) >= 1
        assert len(tablet.log) == 0

    @pytest.mark.parametrize("crash_point", [CRASH_AFTER_FLUSH, CRASH_AFTER_HANDOFF])
    def test_mid_flight_crash_aborts_without_moving(self, crash_point):
        indexer, cluster, master = build_cluster()
        drive_updates(cluster)
        stats = max(indexer.tablet_stats(), key=lambda s: s.simulated_seconds)
        source = cluster.server_index_for_tablet(stats.tablet_id)
        target = (source + 1) % cluster.num_servers
        record = master.migrate_tablet(
            stats.table, stats.tablet_id, target, crash_point=crash_point
        )
        assert not record.committed
        assert record.crash_point == crash_point
        assert cluster.server_index_for_tablet(stats.tablet_id) == source
        if crash_point == CRASH_AFTER_FLUSH:
            # Crashed before the hand-off: nothing shipped, nothing charged.
            assert record.rows_shipped == 0

    def test_invalid_migrations_rejected(self):
        indexer, cluster, master = build_cluster()
        drive_updates(cluster)
        stats = indexer.tablet_stats()[0]
        source = cluster.server_index_for_tablet(stats.tablet_id)
        with pytest.raises(ConfigurationError):
            master.migrate_tablet(stats.table, stats.tablet_id, source)
        with pytest.raises(ConfigurationError):
            master.migrate_tablet(stats.table, stats.tablet_id, 99)
        with pytest.raises(ConfigurationError):
            master.migrate_tablet(stats.table, "location/tablet-9999", 0)
        with pytest.raises(ConfigurationError):
            master.migrate_tablet(
                stats.table, stats.tablet_id, source, crash_point="bogus"
            )


class TestReplication:
    def test_replica_serves_identical_results(self):
        indexer, cluster, master = build_cluster()
        drive_updates(cluster)
        spatial = indexer.spatial_table.table
        tablet = max(spatial.tablets(), key=lambda t: t.row_count)
        primary = cluster.server_index_for_tablet(tablet.tablet_id)
        replica = (primary + 1) % cluster.num_servers
        record = master.replicate_tablet(spatial.name, tablet.tablet_id, replica)
        assert record is not None
        assert cluster.routing.replica_counts() == {tablet.tablet_id: 2}
        # Registering the same replica twice is a no-op.
        assert master.replicate_tablet(spatial.name, tablet.tablet_id, replica) is None

    def test_replica_counts_feed_contention(self):
        indexer, cluster, master = build_cluster()
        drive_updates(cluster)
        assert cluster.contention is not None
        assert cluster.contention.replica_counts is not None
        assert cluster.contention.replica_counts() == master.replica_counts()
        skew = indexer.emulator.tablet_skew()
        assert skew.hot_read_tablet is not None
        before = skew.blended_share
        adjusted = skew.replica_adjusted_share({skew.hot_read_tablet: 2})
        assert adjusted < before

    def test_replica_on_dead_server_rejected(self):
        indexer, cluster, master = build_cluster()
        drive_updates(cluster)
        cluster.fail_server(2)
        spatial = indexer.spatial_table.table
        tablet = spatial.tablets()[0]
        with pytest.raises(ConfigurationError):
            master.replicate_tablet(spatial.name, tablet.tablet_id, 2)


class TestRebalance:
    def test_rebalance_reduces_imbalance(self):
        # Pin every tablet onto one server to fabricate the worst case.
        indexer, cluster, master = build_cluster(num_servers=4)
        drive_updates(cluster)
        for stats in indexer.tablet_stats():
            cluster.routing.assign(stats.tablet_id, 0)
        before = master._imbalance(master._server_loads(indexer.tablet_stats()))
        report = master.rebalance()
        assert report.migrations  # it acted
        assert report.imbalance_after < report.imbalance_before
        assert master._imbalance(master._server_loads(indexer.tablet_stats())) < before

    def test_rebalance_is_idempotent_when_balanced(self):
        indexer, cluster, master = build_cluster()
        drive_updates(cluster)
        master.rebalance()
        settled = master.rebalance()
        assert not settled.migrations and not settled.replications
        assert settled.imbalance_before == settled.imbalance_after

    def test_rebalance_replicates_read_hot_tablet(self):
        indexer, cluster, master = build_cluster(
            num_servers=4, replicate_read_share=0.05, max_replicas=3
        )
        drive_updates(cluster)
        # Concentrate reads on one spatial tablet.
        from repro.workload.queries import NNQuery
        from repro.geometry.point import Point

        queries = [NNQuery(location=Point(15.0, 15.0), k=5) for _ in range(60)]
        cluster.submit_query_batch(queries)
        report = master.rebalance()
        assert report.replications
        counts = master.replica_counts()
        assert counts and max(counts.values()) <= 3

    def test_master_requires_sharded_backend(self):
        class Flat:
            pass

        indexer = uniform_leader_indexer(50, seed=3)
        cluster = ServerCluster(indexer, num_servers=2)
        cluster.indexer = type(
            "Facade", (), {"emulator": Flat(), "indexer": None}
        )()
        with pytest.raises(ConfigurationError):
            TabletMaster(cluster)

    def test_master_options_validation(self):
        with pytest.raises(ConfigurationError):
            MasterOptions(imbalance_threshold=0.5)
        with pytest.raises(ConfigurationError):
            MasterOptions(replicate_read_share=0.0)
        with pytest.raises(ConfigurationError):
            MasterOptions(max_replicas=0)
        with pytest.raises(ConfigurationError):
            MasterOptions(max_migrations_per_round=-1)
