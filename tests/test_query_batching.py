"""Tests for the batched query path: equivalence with sequential execution,
RPC savings, cache warm-up, predictive queries and the split metrics."""

import random

import pytest

from repro.core.config import MoistConfig
from repro.core.moist import MoistIndexer
from repro.core.nn_search import NNQueryStats, QueryBatchContext
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.server.cluster import ServerCluster
from repro.workload.queries import NNQuery, NNQueryWorkload

from helpers import make_update

CONFIG = MoistConfig(
    world=BoundingBox(0.0, 0.0, 100.0, 100.0),
    storage_level=8,
    clustering_cell_level=2,
)


def seeded_indexer(num_objects=120, seed=5):
    indexer = MoistIndexer(CONFIG)
    rng = random.Random(seed)
    for index in range(num_objects):
        indexer.update(
            make_update(index, rng.uniform(1.0, 99.0), rng.uniform(1.0, 99.0))
        )
    return indexer


def overlapping_queries(count=30, k=5, seed=9):
    """Queries concentrated in one quadrant so cells overlap across them."""
    rng = random.Random(seed)
    return [
        NNQuery(location=Point(rng.uniform(20.0, 40.0), rng.uniform(20.0, 40.0)), k=k)
        for _ in range(count)
    ]


def flatten(results):
    return [
        (r.object_id, r.distance, r.is_leader, r.leader_id)
        for batch in results
        for r in batch
    ]


class TestBatchEquivalence:
    def test_batch_matches_sequential_results_and_order(self):
        sequential = ServerCluster(seeded_indexer(), num_servers=3)
        batched = ServerCluster(seeded_indexer(), num_servers=3)
        queries = overlapping_queries()
        expected = [
            sequential.submit_nn_query(q.location, q.k, range_limit=q.range_limit)
            for q in queries
        ]
        actual = batched.submit_query_batch(queries)
        assert flatten(actual) == flatten(expected)

    def test_batch_issues_strictly_fewer_storage_rpcs(self):
        sequential = ServerCluster(seeded_indexer(), num_servers=3)
        batched = ServerCluster(seeded_indexer(), num_servers=3)
        queries = overlapping_queries()
        # Warm both systems identically, then measure the second (cache-warm)
        # pass of the same mixed workload.
        for q in queries:
            sequential.submit_nn_query(q.location, q.k)
        batched.submit_query_batch(queries)
        seq_before = sequential.indexer.emulator.counter.storage_rpc_count()
        for q in queries:
            sequential.submit_nn_query(q.location, q.k)
        seq_rpcs = (
            sequential.indexer.emulator.counter.storage_rpc_count() - seq_before
        )
        batch_before = batched.indexer.emulator.counter.storage_rpc_count()
        batched.submit_query_batch(queries)
        batch_rpcs = (
            batched.indexer.emulator.counter.storage_rpc_count() - batch_before
        )
        assert batch_rpcs < seq_rpcs

    def test_predictive_queries_through_batch(self):
        sequential = seeded_indexer()
        batched = seeded_indexer()
        queries = overlapping_queries(count=10, k=3)
        at_time = 5.0
        expected = [
            sequential.nearest_neighbors(q.location, q.k, at_time=at_time)
            for q in queries
        ]
        cluster = ServerCluster(batched, num_servers=2)
        actual = cluster.submit_query_batch(queries, at_time=at_time)
        assert flatten(actual) == flatten(expected)
        # Predictive positions are extrapolated: results must exist.
        assert any(batch for batch in actual)

    def test_predictive_follower_batch_shares_candidate_blocks(self):
        indexer = MoistIndexer(CONFIG)
        # Schools of three co-moving objects around the queried quadrant.
        for school in range(10):
            for member in range(3):
                indexer.update(
                    make_update(
                        school * 3 + member,
                        22.0 + 1.7 * school + 0.4 * member,
                        24.0 + 1.3 * school,
                        vx=0.5,
                        vy=0.25,
                    )
                )
        indexer.run_clustering(now=0.5)
        assert indexer.school_count < 30
        queries = overlapping_queries(count=40, k=4)
        stats = [NNQueryStats() for _ in queries]
        context = QueryBatchContext()
        at_time = 4.0
        results = indexer.searcher.query_many(
            queries, at_time=at_time, stats_list=stats, context=context
        )
        # The memo is hit: fewer blocks were built than queries ran, let
        # alone cells visited.
        builds = len(context.cell_blocks)
        assert builds < len(queries) < sum(s.cells_visited for s in stats)
        assert all(key[1:] == (True, at_time) for key in context.cell_blocks)
        followers = 0
        for query, batch in zip(queries, results):
            for result in batch:
                if result.is_leader:
                    assert result.location == indexer.location_table.latest(
                        result.object_id
                    ).extrapolated(at_time)
                    continue
                followers += 1
                leader_position = indexer.location_table.latest(
                    result.leader_id
                ).extrapolated(at_time)
                displacement = indexer.affiliation_table.followers_of(
                    result.leader_id
                )[result.object_id]
                # Bit for bit: no tolerance.
                assert result.location == leader_position.displaced(displacement)
                assert result.distance == result.location.distance_to(query.location)
        assert followers > 0

    def test_empty_batch(self):
        cluster = ServerCluster(seeded_indexer(num_objects=5), num_servers=2)
        assert cluster.submit_query_batch([]) == []
        assert cluster.servers[0].handle_query_batch([]) == []

    def test_context_reports_shared_reads(self):
        indexer = seeded_indexer()
        queries = [NNQuery(location=Point(30.0, 30.0), k=5) for _ in range(4)]
        context = QueryBatchContext()
        indexer.nearest_neighbors_batch(queries, context=context)
        assert context.scans_shared > 0


class TestCacheWarmup:
    def test_hit_rate_monotonic_over_repeated_batches(self):
        cluster = ServerCluster(seeded_indexer(), num_servers=2)
        queries = overlapping_queries(count=20)
        rates = []
        for _ in range(4):
            cluster.submit_query_batch(queries)
            rates.append(cluster.indexer.emulator.cache_hit_rate())
        assert rates == sorted(rates)
        assert rates[-1] > 0.0

    def test_cache_stats_exposed_per_tablet(self):
        cluster = ServerCluster(seeded_indexer(), num_servers=2)
        cluster.submit_query_batch(overlapping_queries(count=10))
        stats = cluster.indexer.emulator.block_cache_stats()
        assert stats
        assert all(entry.lookups == entry.hits + entry.misses for entry in stats)


class TestQueryContention:
    def test_read_skew_feeds_contention_factor(self):
        cluster = ServerCluster(seeded_indexer(), num_servers=5)
        assert cluster.contention is not None
        # Hammer one spot: the hottest spatial-index tablet absorbs most of
        # the read time, so the blended skew must inflate the factor.
        hot = [NNQuery(location=Point(30.0, 30.0), k=5) for _ in range(64)]
        cluster.submit_query_batch(hot)
        cluster.contention.invalidate()
        assert cluster.contention.factor() > 1.0

    def test_batch_queries_accumulate_busy_time(self):
        cluster = ServerCluster(seeded_indexer(), num_servers=2)
        queries = overlapping_queries(count=12)
        cluster.submit_query_batch(queries)
        assert sum(s.queries_handled for s in cluster.servers) == 12
        assert sum(s.query_busy_seconds for s in cluster.servers) > 0


class TestSplitMetrics:
    def test_update_and_query_service_times_separate(self):
        cluster = ServerCluster(seeded_indexer(num_objects=40), num_servers=1)
        server = cluster.servers[0]
        server.reset_metrics()
        server.handle_update(make_update(1000, 50.0, 50.0))
        server.handle_nn_query(Point(50.0, 50.0), 3)
        assert (server.updates_handled, server.queries_handled) == (1, 1)
        assert server.update_busy_seconds > 0
        assert server.query_busy_seconds > 0
        assert server.busy_seconds == pytest.approx(
            server.update_busy_seconds + server.query_busy_seconds
        )

    def test_reset_metrics_zeroes_both_classes(self):
        cluster = ServerCluster(seeded_indexer(num_objects=10), num_servers=1)
        server = cluster.servers[0]
        server.handle_nn_query(Point(10.0, 10.0), 1)
        server.reset_metrics()
        assert server.busy_seconds == 0.0
        assert server.requests_handled == 0


class TestMixedLoadTest:
    def test_run_mixed_batches_counts_both_classes(self):
        from repro.server.loadtest import LoadTest

        indexer = seeded_indexer()
        cluster = ServerCluster(indexer, num_servers=2)
        messages = [make_update(2000 + i, 10.0 + (i % 80), 20.0) for i in range(100)]
        queries = NNQueryWorkload(CONFIG.world, k=5, seed=3).batch(100)
        result = LoadTest(cluster, failure_probability=0.0).run_mixed_batches(
            messages, queries, batch_size=25
        )
        assert result.total_requests == 200
        assert result.qps > 0
        assert 0.0 <= result.cache_hit_rate <= 1.0
