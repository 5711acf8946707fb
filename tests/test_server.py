"""Tests for the front-end server, cluster, client simulators and load test."""

import pytest

from repro.core.config import MoistConfig
from repro.core.moist import MoistIndexer
from repro.errors import ConfigurationError, WorkloadError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.server.client import ClientSimulator, build_client_fleet
from repro.server.cluster import ServerCluster
from repro.server.contention import TabletContentionModel
from repro.server.frontend import FrontendServer
from repro.server.loadtest import LoadTest

from helpers import make_update

CONFIG = MoistConfig(
    world=BoundingBox(0.0, 0.0, 100.0, 100.0),
    storage_level=8,
    clustering_cell_level=2,
)


@pytest.fixture
def shared_indexer():
    return MoistIndexer(CONFIG)


def frontend(indexer, **kwargs):
    """A lone front-end: one server, so no contention inflation."""
    return FrontendServer(0, indexer, TabletContentionModel(indexer.emulator, 1), **kwargs)


class TestFrontendServer:
    def test_invalid_parameters(self, shared_indexer):
        with pytest.raises(ConfigurationError):
            frontend(shared_indexer, request_overhead_s=-1.0)

    def test_update_accumulates_busy_time(self, shared_indexer):
        server = frontend(shared_indexer)
        server.handle_update(make_update(1, 10.0, 10.0))
        assert server.updates_handled == 1
        assert server.busy_seconds > 0

    def test_query_accumulates_busy_time(self, shared_indexer):
        server = frontend(shared_indexer)
        server.handle_update(make_update(1, 10.0, 10.0))
        results = server.handle_nn_query(Point(10.0, 10.0), 1)
        assert len(results) == 1
        assert server.queries_handled == 1

    def test_reset_metrics(self, shared_indexer):
        server = frontend(shared_indexer)
        server.handle_update(make_update(1, 10.0, 10.0))
        server.reset_metrics()
        assert server.busy_seconds == 0.0
        assert server.requests_handled == 0


class TestServerCluster:
    def test_needs_at_least_one_server(self, shared_indexer):
        with pytest.raises(ConfigurationError):
            ServerCluster(shared_indexer, num_servers=0)

    def test_round_robin_balances_requests(self, shared_indexer):
        cluster = ServerCluster(shared_indexer, num_servers=3)
        for index in range(9):
            cluster.submit_update(make_update(index, 10.0 + index, 10.0))
        assert [server.requests_handled for server in cluster.servers] == [3, 3, 3]

    def test_makespan(self, shared_indexer):
        cluster = ServerCluster(shared_indexer, num_servers=2)
        for index in range(10):
            cluster.submit_update(make_update(index, 10.0 + index, 10.0))
        assert [server.requests_handled for server in cluster.servers] == [5, 5]
        assert cluster.makespan_seconds() > 0

    def test_more_servers_give_higher_throughput(self):
        # Two separate deployments processing the same stream.
        single_indexer = MoistIndexer(CONFIG)
        multi_indexer = MoistIndexer(CONFIG)
        single = ServerCluster(single_indexer, num_servers=1)
        multi = ServerCluster(multi_indexer, num_servers=5)
        for index in range(50):
            update = make_update(index, 10.0 + (index % 80), 10.0)
            single.submit_update(update)
            multi.submit_update(update)
        # Same request count on both, so throughput is 1 / makespan.
        assert single.makespan_seconds() > 2 * multi.makespan_seconds()

    def test_contention_makes_speedup_sublinear(self):
        single = ServerCluster(MoistIndexer(CONFIG), num_servers=1)
        ten = ServerCluster(MoistIndexer(CONFIG), num_servers=10, contention_alpha=0.05)
        for index in range(100):
            update = make_update(index, 10.0 + (index % 80), 10.0)
            single.submit_update(update)
            ten.submit_update(update)
        speedup = single.makespan_seconds() / ten.makespan_seconds()
        assert 1.0 < speedup < 10.0

    def test_nn_query_dispatch(self, shared_indexer):
        cluster = ServerCluster(shared_indexer, num_servers=2)
        cluster.submit_update(make_update(1, 10.0, 10.0))
        results = cluster.submit_nn_query(Point(10.0, 10.0), 1)
        assert len(results) == 1


class TestClientSimulator:
    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            ClientSimulator(0, 0, 0, CONFIG.world)
        with pytest.raises(WorkloadError):
            ClientSimulator(0, 0, 10, CONFIG.world, threads=0)

    def test_random_update_targets_own_slice(self):
        client = ClientSimulator(0, object_id_offset=100, num_objects=10, region=CONFIG.world)
        for _ in range(20):
            update = client.random_update(timestamp=0.0)
            number = int(update.object_id.replace("obj", ""))
            assert 100 <= number < 110
            assert CONFIG.world.contains_point(update.location)

    def test_burst_size(self):
        client = ClientSimulator(0, 0, 10, CONFIG.world)
        assert len(client.burst(0.0, 25)) == 25
        with pytest.raises(WorkloadError):
            client.burst(0.0, 0)

    def test_fleet_partitions_objects(self):
        fleet = build_client_fleet(num_clients=4, total_objects=103, region=CONFIG.world)
        assert len(fleet) == 4
        assert sum(client.num_objects for client in fleet) == 103
        with pytest.raises(WorkloadError):
            build_client_fleet(num_clients=10, total_objects=5, region=CONFIG.world)


class TestLoadTest:
    def test_invalid_failure_probability(self, shared_indexer):
        cluster = ServerCluster(shared_indexer, num_servers=1)
        with pytest.raises(ConfigurationError):
            LoadTest(cluster, failure_probability=1.5)

    def test_run_updates_produces_result(self, shared_indexer):
        cluster = ServerCluster(shared_indexer, num_servers=2)
        messages = [make_update(index, 10.0 + (index % 50), 10.0) for index in range(200)]
        result = LoadTest(cluster, failure_probability=0.0).run_updates(
            messages, bucket_requests=50
        )
        assert result.total_requests == 200
        assert result.failed_requests == 0
        assert result.qps > 0
        assert result.mean_latency_s > 0
        assert len(result.timeline) == 4
        assert len(result.per_server_qps) == 2

    def test_failures_excluded_from_qps_numerator(self, shared_indexer):
        cluster = ServerCluster(shared_indexer, num_servers=1)
        messages = [make_update(index, 10.0 + (index % 50), 10.0) for index in range(300)]
        result = LoadTest(cluster, failure_probability=0.2, seed=7).run_updates(messages)
        assert result.failed_requests > 0
        assert result.total_requests + result.failed_requests == 300

    def test_invalid_bucket_requests(self, shared_indexer):
        cluster = ServerCluster(shared_indexer, num_servers=1)
        with pytest.raises(ConfigurationError):
            LoadTest(cluster).run_updates([], bucket_requests=0)
