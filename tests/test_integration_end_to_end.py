"""Cross-system integration tests.

These replay the *same* recorded update stream into MOIST (with and without schools)
and into the baselines, then check the comparative claims that motivate the
paper, plus a full-lifecycle test that exercises updates, clustering, all
query kinds, archiving and the server layer together.
"""

import pytest

from repro.baselines.bxtree import BxTree, BxTreeConfig
from repro.baselines.dynamic_clustering import DynamicClusteringIndex
from repro.baselines.no_school import build_no_school_indexer
from repro.baselines.static_clustering import StaticClusteringIndex
from repro.core.config import MoistConfig
from repro.core.moist import MoistIndexer
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.server.cluster import ServerCluster
from repro.server.loadtest import LoadTest
from repro.workload.generator import RoadNetworkWorkload, WorkloadConfig

MAP_SIZE = 200.0
CONFIG = MoistConfig(
    world=BoundingBox(0.0, 0.0, MAP_SIZE, MAP_SIZE),
    storage_level=10,
    clustering_cell_level=1,
    deviation_threshold=15.0,
    velocity_threshold=1.0,
)


@pytest.fixture(scope="module")
def trace():
    workload = RoadNetworkWorkload(
        WorkloadConfig(
            num_objects=80,
            map_size=MAP_SIZE,
            block_size=25.0,
            min_update_interval_s=1.0,
            max_update_interval_s=1.0,
            seed=17,
        )
    )
    messages = [message for batch in workload.run(40.0, 1.0) for message in batch]
    return sorted(messages, key=lambda message: (message.timestamp, message.object_id))


def replay_into_moist(trace, config, with_clustering):
    indexer = MoistIndexer(config) if config.enable_schools else build_no_school_indexer(config)
    last_cluster = 0.0
    for message in trace:
        indexer.update(message)
        if with_clustering and message.timestamp - last_cluster >= config.clustering_interval_s:
            indexer.run_due_clustering(message.timestamp)
            last_cluster = message.timestamp
    return indexer


class TestTraceReplayComparisons:
    def test_schools_reduce_storage_work(self, trace):
        with_schools = replay_into_moist(trace, CONFIG, with_clustering=True)
        without = replay_into_moist(trace, CONFIG, with_clustering=False)
        assert with_schools.update_stats.shed > 0
        assert without.update_stats.shed == 0
        assert with_schools.simulated_seconds < without.simulated_seconds
        # Both still know every object.
        assert with_schools.object_count == without.object_count == 80

    def test_moist_faster_than_bxtree_on_same_trace(self, trace):
        moist = build_no_school_indexer(CONFIG)
        bx = BxTree(BxTreeConfig(region=CONFIG.world))
        for message in trace:
            moist.update(message)
            bx.update(message)
        moist_per_update = moist.simulated_seconds / moist.update_stats.total
        bx_per_update = bx.stats.simulated_seconds / bx.stats.updates
        assert moist_per_update < bx_per_update

    def test_clustering_baselines_write_every_update(self, trace):
        static = StaticClusteringIndex(CONFIG)
        dynamic = DynamicClusteringIndex(CONFIG, cluster_radius=20.0)
        sample = list(trace)[:400]
        for message in sample:
            static.update(message)
            dynamic.update(message)
        # Both baselines keep one Location Table record per update: nothing
        # is shed, which is exactly what object schools avoid.
        assert static.stats.updates == len(sample)
        assert dynamic.stats.updates == len(sample)
        moist = replay_into_moist(trace, CONFIG, with_clustering=True)
        assert moist.update_stats.shed > 0

    def test_query_results_unaffected_by_shedding_within_epsilon(self, trace):
        """Schools trade a bounded location error (<= ε) for fewer writes:
        every object's reported position stays within ε + noise of the
        position MOIST serves."""
        with_schools = replay_into_moist(trace, CONFIG, with_clustering=True)
        last_seen = {}
        for message in trace:
            last_seen[message.object_id] = message
        worst = 0.0
        for object_id, message in last_seen.items():
            served = with_schools.location_of(object_id, at_time=message.timestamp)
            worst = max(worst, served.distance_to(message.location))
        assert worst <= CONFIG.deviation_threshold * 2.0


class TestFullLifecycle:
    def test_everything_together(self, trace):
        indexer = MoistIndexer(CONFIG)
        cluster = ServerCluster(indexer, num_servers=3)
        load_test = LoadTest(cluster, failure_probability=0.0)
        result = load_test.run_updates(list(trace), bucket_requests=500)
        assert result.total_requests == len(trace)
        assert result.qps > 0

        indexer.run_clustering(now=45.0)
        assert indexer.school_count <= indexer.object_count

        center = Point(MAP_SIZE / 2, MAP_SIZE / 2)
        nn = indexer.nearest_neighbors(center, k=5)
        assert 0 < len(nn) <= 5
        region_hits = indexer.objects_near(center, radius=MAP_SIZE / 2)
        assert len(region_hits) >= len(nn)

        # Age everything out and make sure history is still served.
        indexer.archive_aged(now=45.0 + CONFIG.aging_interval_s + 1.0)
        indexer.archive_aged(now=45.0 + 2 * CONFIG.aging_interval_s + 2.0)
        indexer.archiver.flush_all(now=1000.0)
        some_object = nn[0].object_id
        assert len(indexer.object_history(some_object)) > 0
