"""Tests for the nearest-neighbour search (Algorithm 2)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MoistConfig
from repro.core.moist import MoistIndexer
from repro.core.nn_search import NNQueryStats, QueryBatchContext
from repro.geometry.bbox import BoundingBox
from repro.errors import QueryError
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import UpdateMessage, format_object_id
from repro.workload.queries import NNQuery

from helpers import make_update


def load_uniform(indexer, count, seed=7):
    rng = random.Random(seed)
    positions = {}
    for index in range(count):
        point = Point(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))
        positions[format_object_id(index)] = point
        indexer.update(
            UpdateMessage(format_object_id(index), point, Vector(0.0, 0.0), 0.0)
        )
    return positions


def brute_force_knn(positions, query, k):
    ranked = sorted(positions.items(), key=lambda item: item[1].distance_to(query))
    return [object_id for object_id, _ in ranked[:k]]


class TestValidation:
    def test_k_must_be_positive(self, indexer):
        with pytest.raises(QueryError):
            indexer.nearest_neighbors(Point(1.0, 1.0), 0)

    def test_negative_range_rejected(self, indexer):
        with pytest.raises(QueryError):
            indexer.nearest_neighbors(Point(1.0, 1.0), 1, range_limit=-5.0)

    def test_invalid_fixed_level_rejected(self, indexer):
        with pytest.raises(QueryError):
            indexer.nearest_neighbors(Point(1.0, 1.0), 1, nn_level=99)


class TestCorrectness:
    def test_empty_index_returns_nothing(self, indexer):
        assert indexer.nearest_neighbors(Point(50.0, 50.0), 5) == []

    def test_single_object_found(self, indexer):
        indexer.update(make_update(1, 10.0, 10.0))
        results = indexer.nearest_neighbors(Point(12.0, 10.0), 1)
        assert len(results) == 1
        assert results[0].object_id == "obj0000000001"
        assert results[0].distance == pytest.approx(2.0)

    def test_matches_brute_force(self, indexer):
        positions = load_uniform(indexer, 60)
        query = Point(42.0, 58.0)
        results = indexer.nearest_neighbors(query, 5)
        expected = brute_force_knn(positions, query, 5)
        assert [r.object_id for r in results] == expected

    def test_results_sorted_by_distance(self, indexer):
        load_uniform(indexer, 40)
        results = indexer.nearest_neighbors(Point(30.0, 30.0), 8)
        distances = [r.distance for r in results]
        assert distances == sorted(distances)

    def test_k_larger_than_population(self, indexer):
        load_uniform(indexer, 5)
        results = indexer.nearest_neighbors(Point(50.0, 50.0), 20)
        assert len(results) == 5

    def test_range_limit_filters_results(self, indexer):
        indexer.update(make_update(1, 10.0, 10.0))
        indexer.update(make_update(2, 90.0, 90.0))
        results = indexer.nearest_neighbors(Point(12.0, 10.0), 5, range_limit=10.0)
        assert [r.object_id for r in results] == ["obj0000000001"]

    def test_fixed_level_queries_agree_with_flag(self, indexer):
        positions = load_uniform(indexer, 60)
        query = Point(70.0, 20.0)
        expected = brute_force_knn(positions, query, 4)
        for level in (4, 5, 6):
            results = indexer.nearest_neighbors(query, 4, nn_level=level)
            assert [r.object_id for r in results] == expected

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=5.0, max_value=95.0), st.floats(min_value=5.0, max_value=95.0))
    def test_property_matches_brute_force(self, qx, qy):
        from repro.core.config import MoistConfig
        from repro.geometry.bbox import BoundingBox

        config = MoistConfig(
            world=BoundingBox(0.0, 0.0, 100.0, 100.0),
            storage_level=8,
            clustering_cell_level=2,
            sigma=4,
        )
        indexer = MoistIndexer(config)
        positions = load_uniform(indexer, 30, seed=11)
        query = Point(qx, qy)
        results = indexer.nearest_neighbors(query, 3)
        assert [r.object_id for r in results] == brute_force_knn(positions, query, 3)


class TestTies:
    """The candidate heap keeps the *newer* of two equidistant entries, so a
    candidate may only be skipped when it is strictly farther than the
    current k-th."""

    def test_equidistant_candidate_displaces_the_older_one(self, indexer):
        # Same storage cell, so candidate order is insertion order.
        indexer.update(make_update(1, 9.875, 10.0))
        indexer.update(make_update(2, 10.125, 10.0))
        results = indexer.nearest_neighbors(Point(10.0, 10.0), 1)
        assert [(r.object_id, r.distance) for r in results] == [("obj0000000002", 0.125)]

    def test_candidate_exactly_at_the_range_limit_is_kept(self, indexer):
        indexer.update(make_update(1, 9.875, 10.0))
        results = indexer.nearest_neighbors(Point(10.0, 10.0), 3, range_limit=0.125)
        assert [r.object_id for r in results] == ["obj0000000001"]


class TestSchoolsInResults:
    def test_followers_are_returned(self, indexer):
        indexer.update(make_update(1, 10.0, 10.0, vx=1.0, vy=0.0))
        indexer.update(make_update(2, 12.0, 10.0, vx=1.0, vy=0.0))
        indexer.run_clustering(now=0.5)
        assert indexer.school_count == 1
        results = indexer.nearest_neighbors(Point(11.0, 10.0), 2)
        assert {r.object_id for r in results} == {"obj0000000001", "obj0000000002"}
        assert sum(1 for r in results if r.is_leader) == 1
        follower = next(r for r in results if not r.is_leader)
        assert follower.leader_id is not None

    def test_followers_excluded_when_requested(self, indexer):
        indexer.update(make_update(1, 10.0, 10.0, vx=1.0, vy=0.0))
        indexer.update(make_update(2, 12.0, 10.0, vx=1.0, vy=0.0))
        indexer.run_clustering(now=0.5)
        results = indexer.nearest_neighbors(Point(11.0, 10.0), 2, include_followers=False)
        assert len(results) == 1
        assert results[0].is_leader

    def test_predictive_query_extrapolates_leaders(self, indexer):
        indexer.update(make_update(1, 10.0, 10.0, vx=2.0, vy=0.0, t=0.0))
        results = indexer.nearest_neighbors(Point(20.0, 10.0), 1, at_time=5.0)
        assert results[0].location.x == pytest.approx(20.0)
        assert results[0].distance == pytest.approx(0.0, abs=1e-9)


class TestStats:
    def test_stats_populated(self, indexer):
        load_uniform(indexer, 30)
        stats = NNQueryStats()
        indexer.nearest_neighbors(Point(50.0, 50.0), 5, stats=stats)
        assert stats.cells_visited >= 1
        assert stats.leaders_scanned >= 5
        assert stats.nn_level >= 1

    def test_coarser_level_visits_fewer_cells(self, indexer):
        load_uniform(indexer, 50)
        coarse_stats = NNQueryStats()
        fine_stats = NNQueryStats()
        indexer.nearest_neighbors(Point(50.0, 50.0), 5, nn_level=3, stats=coarse_stats)
        indexer.nearest_neighbors(Point(50.0, 50.0), 5, nn_level=7, stats=fine_stats)
        assert coarse_stats.cells_visited <= fine_stats.cells_visited


# ----------------------------------------------------------------------
# The per-batch candidate-block memo (predictive variant, followers on)
# ----------------------------------------------------------------------
SCHOOL_CONFIG = MoistConfig(
    world=BoundingBox(0.0, 0.0, 100.0, 100.0),
    storage_level=8,
    clustering_cell_level=2,
    sigma=4,
)


def school_indexer():
    """Twelve co-moving schools of four plus scattered loners, clustered:
    leaders carry Follower Info, everything moves (so ``at_time`` matters)."""
    indexer = MoistIndexer(SCHOOL_CONFIG)
    rng = random.Random(23)
    number = 0
    for _ in range(12):
        cx, cy = rng.uniform(10.0, 90.0), rng.uniform(10.0, 90.0)
        vx, vy = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
        for _ in range(4):
            indexer.update(
                make_update(
                    number, cx + rng.uniform(-2.0, 2.0), cy + rng.uniform(-2.0, 2.0),
                    vx=vx, vy=vy,
                )
            )
            number += 1
    for _ in range(30):
        indexer.update(
            make_update(
                number, rng.uniform(1.0, 99.0), rng.uniform(1.0, 99.0),
                vx=rng.uniform(-2.0, 2.0), vy=rng.uniform(-2.0, 2.0),
            )
        )
        number += 1
    indexer.run_clustering(now=0.5)
    assert 0 < indexer.school_count < number
    return indexer


def as_tuples(batches):
    return [
        [(r.object_id, r.location, r.distance, r.is_leader, r.leader_id) for r in batch]
        for batch in batches
    ]


_COORDS = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
_QUERIES = st.lists(
    st.builds(
        NNQuery,
        location=st.builds(Point, _COORDS, _COORDS),
        k=st.integers(1, 12),
        range_limit=st.one_of(st.none(), st.floats(min_value=0.0, max_value=60.0)),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(queries=_QUERIES, at_time=st.sampled_from([0.5, 3.0, 7.25]))
def test_predictive_batch_through_the_block_memo_equals_per_query_search(
    queries, at_time
):
    # Three identically built indexers: FLAG caches its levels as it goes,
    # so each pass gets a tuner in the same starting state.
    alone, batched, unmemoised = school_indexer(), school_indexer(), school_indexer()
    expected = [
        alone.searcher.query(
            q.location, q.k, range_limit=q.range_limit, at_time=at_time
        )
        for q in queries
    ]
    context = QueryBatchContext()
    actual = batched.searcher.query_many(queries, at_time=at_time, context=context)
    assert as_tuples(actual) == as_tuples(expected)

    # The same batch with the block memo emptied between queries: every
    # probe goes to the scan / latest-record / follower memos underneath,
    # whose tallies the block memo must reproduce on a hit.
    reference = QueryBatchContext()
    for q in queries:
        unmemoised.searcher.query(
            q.location, q.k, range_limit=q.range_limit, at_time=at_time,
            context=reference,
        )
        reference.cell_blocks.clear()
    assert context.scans_shared == reference.scans_shared
    assert context.rows_shared == reference.rows_shared
    assert (
        batched.emulator.counter.counts == unmemoised.emulator.counter.counts
        and batched.emulator.counter.rows == unmemoised.emulator.counter.rows
    )
