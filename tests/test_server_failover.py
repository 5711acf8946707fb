"""Per-server failover: crashes lose no acknowledged writes, replicas serve
newest-wins reads identical to the primary, dead servers take no traffic."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import uniform_leader_indexer
from repro.experiments.recovery import _nn_signature, _state_signature
from repro.geometry.point import Point
from repro.server.cluster import ServerCluster
from repro.server.master import TabletMaster
from repro.workload.queries import NNQuery, NNQueryWorkload

from helpers import make_update
from shard_harness import single_shard_client


def build(num_objects=600, num_servers=4, seed=23):
    indexer = uniform_leader_indexer(num_objects, seed=seed)
    return indexer, ServerCluster(indexer, num_servers=num_servers)


def update_batches(num_objects, num_batches=6, batch_size=200):
    return [
        [
            make_update(
                (batch * batch_size + i) % num_objects,
                5.0 + ((batch * batch_size + i) % 950),
                5.0 + ((batch * 37 + i) % 950),
                t=float(batch),
            )
            for i in range(batch_size)
        ]
        for batch in range(num_batches)
    ]


class TestSingleServerFailover:
    @pytest.mark.parametrize("crash_after_batch", [0, 2, 5])
    def test_crash_mid_stream_loses_no_acknowledged_writes(self, crash_after_batch):
        batches = update_batches(600)
        queries = NNQueryWorkload(build()[0].config.world, k=8, seed=3).batch(20)

        ref_indexer, ref_cluster = build()
        for batch in batches:
            ref_cluster.submit_update_batch(batch)

        indexer, cluster = build()
        master = TabletMaster(cluster)
        for index, batch in enumerate(batches):
            cluster.submit_update_batch(batch)
            if index == crash_after_batch:
                master.fail_over(1)

        assert _state_signature(indexer) == _state_signature(ref_indexer)
        assert _nn_signature(indexer, queries) == _nn_signature(ref_indexer, queries)

    def test_failover_report_accounts_owned_tablets(self):
        indexer, cluster = build()
        for batch in update_batches(600, num_batches=3):
            cluster.submit_update_batch(batch)
        victim = 2
        owned = [
            stats.tablet_id
            for stats in indexer.emulator.tablet_stats()
            if cluster.server_index_for_tablet(stats.tablet_id) == victim
        ]
        report = cluster.fail_server(victim)
        assert report.server_id == victim
        assert report.tablets_recovered == len(owned)
        assert {tablet_id for tablet_id, _ in report.reassigned} == set(owned)
        # Every reassignment landed on an alive server.
        for tablet_id, target in report.reassigned:
            assert cluster.servers[target].alive
            assert cluster.server_index_for_tablet(tablet_id) == target

    def test_dead_server_receives_no_traffic(self):
        indexer, cluster = build()
        batches = update_batches(600, num_batches=2)
        cluster.submit_update_batch(batches[0])
        cluster.fail_server(0)
        handled_before = cluster.servers[0].requests_handled
        cluster.submit_update_batch(batches[1])
        queries = NNQueryWorkload(indexer.config.world, k=5, seed=7).batch(30)
        cluster.submit_query_batch(queries)
        for _ in range(10):
            cluster.submit_nn_query(Point(500.0, 500.0), 3)
        assert cluster.servers[0].requests_handled == handled_before

    def test_crash_guards(self):
        indexer, cluster = build(num_servers=2)
        cluster.fail_server(0)
        with pytest.raises(ConfigurationError):
            cluster.fail_server(0)  # already down
        with pytest.raises(ConfigurationError):
            cluster.fail_server(1)  # last alive server
        with pytest.raises(ConfigurationError):
            cluster.fail_server(9)  # no such server
        cluster.revive_server(0)
        assert cluster.servers[0].alive

    def test_failover_then_revival_keeps_state(self):
        batches = update_batches(500)
        ref_indexer, ref_cluster = build(num_objects=500)
        for batch in batches:
            ref_cluster.submit_update_batch(batch)

        indexer, cluster = build(num_objects=500)
        master = TabletMaster(cluster)
        for index, batch in enumerate(batches):
            cluster.submit_update_batch(batch)
            if index == 1:
                master.fail_over(3)
            if index == 3:
                cluster.revive_server(3)
        assert _state_signature(indexer) == _state_signature(ref_indexer)


class TestFailoverAcrossRpcBoundary:
    """The failover losslessness properties, spoken through a shard client
    (both in-process and over a worker's RPC connection)."""

    def _recipe(self, num_objects=600, num_servers=4, with_master=True):
        from repro.server.worker import ShardRecipe

        return ShardRecipe(
            num_objects=num_objects,
            seed=23,
            num_servers=num_servers,
            with_master=with_master,
        )

    @pytest.mark.parametrize("backend", ["inprocess", "process"])
    @pytest.mark.parametrize("crash_after_batch", [0, 3])
    def test_crash_mid_stream_is_lossless(self, backend, crash_after_batch):
        batches = update_batches(600)
        ref_indexer, ref_cluster = build()
        queries = NNQueryWorkload(ref_indexer.config.world, k=8, seed=3).batch(20)
        for batch in batches:
            ref_cluster.submit_update_batch(batch)

        with single_shard_client(backend, recipe=self._recipe()) as client:
            for index, batch in enumerate(batches):
                client.update_batch(batch)
                if index == crash_after_batch:
                    client.call("fail_over", 1)
            assert client.call("state_signature") == _state_signature(ref_indexer)
            assert client.call("nn_signature", queries) == _nn_signature(
                ref_indexer, queries
            )

    @pytest.mark.parametrize("backend", ["inprocess", "process"])
    def test_crash_guards_raise_through_the_wire(self, backend):
        """Guard exceptions survive the RPC boundary with their original
        type, so callers keep their ``except ConfigurationError`` paths."""
        recipe = self._recipe(num_objects=150, num_servers=2, with_master=False)
        with single_shard_client(backend, recipe=recipe) as client:
            client.call("fail_server", 0)
            with pytest.raises(ConfigurationError):
                client.call("fail_server", 0)  # already down
            with pytest.raises(ConfigurationError):
                client.call("fail_server", 1)  # last alive server
            with pytest.raises(ConfigurationError):
                client.call("fail_server", 9)  # no such server
            client.call("revive_server", 0)
            assert client.call("alive_server_indices") == [0, 1]


class TestReplicatedReads:
    def _replicate_everything(self, indexer, cluster, master):
        """Replicate every spatial-index tablet onto every server."""
        spatial = indexer.spatial_table.table
        for tablet in spatial.tablets():
            for index in cluster.alive_server_indices():
                master.replicate_tablet(spatial.name, tablet.tablet_id, index)

    def test_replicated_reads_match_primary_only_cluster(self):
        batches = update_batches(600)
        queries = NNQueryWorkload(build()[0].config.world, k=10, seed=5).batch(40)

        ref_indexer, ref_cluster = build()
        for batch in batches:
            ref_cluster.submit_update_batch(batch)
        expected = ref_cluster.submit_query_batch(queries)

        indexer, cluster = build()
        master = TabletMaster(cluster)
        for batch in batches:
            cluster.submit_update_batch(batch)
        self._replicate_everything(indexer, cluster, master)
        observed = cluster.submit_query_batch(queries)

        assert len(observed) == len(expected)
        for left, right in zip(observed, expected):
            assert [(n.object_id, n.distance) for n in left] == [
                (n.object_id, n.distance) for n in right
            ]

    def test_replicated_reads_see_newest_write(self):
        indexer, cluster = build()
        master = TabletMaster(cluster)
        for batch in update_batches(600, num_batches=2):
            cluster.submit_update_batch(batch)
        self._replicate_everything(indexer, cluster, master)
        # A fresh write lands on the primary; every replica must serve it
        # (newest-wins over the shared durable store).
        cluster.submit_update_batch([make_update(1, 333.0, 333.0, t=99.0)])
        query = NNQuery(location=Point(333.0, 333.0), k=1)
        for _ in range(cluster.num_servers):
            results = cluster.submit_query_batch([query])[0]
            assert results
            top = results[0]
            assert top.location.x == pytest.approx(333.0)
            assert top.location.y == pytest.approx(333.0)

    def test_replica_fanout_spreads_query_load(self):
        indexer, cluster = build()
        master = TabletMaster(cluster)
        for batch in update_batches(600, num_batches=2):
            cluster.submit_update_batch(batch)
        cluster.reset_metrics()
        # All queries hit one spot -> one spatial tablet; replicate it
        # everywhere and check the fan-out touched several servers.
        hot = Point(15.0, 15.0)
        tablet = indexer.spatial_table.tablet_for_location(hot)
        spatial = indexer.spatial_table.table
        for index in cluster.alive_server_indices():
            master.replicate_tablet(spatial.name, tablet.tablet_id, index)
        queries = [NNQuery(location=hot, k=5) for _ in range(64)]
        cluster.submit_query_batch(queries)
        serving = [s for s in cluster.servers if s.queries_handled > 0]
        assert len(serving) == cluster.num_servers
