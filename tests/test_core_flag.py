"""Tests for FLAG (Algorithms 3 and 4)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MoistConfig
from repro.core.flag import FlagTuner, LevelCacheRecord
from repro.core.moist import MoistIndexer
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import UpdateMessage, format_object_id
from repro.spatial.cell import CellId


def load_cluster(indexer, count, center, spread, seed=3, id_offset=0):
    rng = random.Random(seed)
    for index in range(count):
        point = Point(
            min(max(center[0] + rng.uniform(-spread, spread), 0.0), 100.0),
            min(max(center[1] + rng.uniform(-spread, spread), 0.0), 100.0),
        )
        indexer.update(
            UpdateMessage(format_object_id(id_offset + index), point, Vector(0.0, 0.0), 0.0)
        )


class TestLevelComputation:
    def test_dense_area_gets_finer_level_than_sparse(self, indexer):
        load_cluster(indexer, 200, center=(20.0, 20.0), spread=5.0)
        load_cluster(indexer, 5, center=(80.0, 80.0), spread=5.0, id_offset=1000)
        tuner = indexer.flag
        dense_level = tuner.compute_level(Point(20.0, 20.0))
        sparse_level = tuner.compute_level(Point(80.0, 80.0))
        assert dense_level > sparse_level

    def test_level_clamped_to_valid_range(self, indexer):
        load_cluster(indexer, 3, center=(50.0, 50.0), spread=40.0)
        level = indexer.flag.compute_level(Point(50.0, 50.0))
        assert 1 <= level <= indexer.config.storage_level

    def test_empty_index_returns_valid_level(self, indexer):
        level = indexer.flag.compute_level(Point(50.0, 50.0))
        assert 1 <= level <= indexer.config.storage_level

    def test_total_objects_hint_tracks_updates(self, indexer):
        load_cluster(indexer, 10, center=(50.0, 50.0), spread=10.0)
        assert indexer.flag.total_objects_hint == 10

    def test_probe_reads_counted(self, indexer):
        load_cluster(indexer, 50, center=(50.0, 50.0), spread=20.0)
        before = indexer.flag.stats.probe_reads
        indexer.flag.compute_level(Point(50.0, 50.0))
        assert indexer.flag.stats.probe_reads > before


class TestLevelCache:
    def test_cache_record_covers(self):
        record = LevelCacheRecord(level=5, left_key="aaa", right_key="ccc", created_time=0.0)
        assert record.covers("bbb")
        assert record.covers("aaa")
        assert not record.covers("ddd")

    def test_repeated_lookup_hits_cache(self, indexer):
        load_cluster(indexer, 50, center=(50.0, 50.0), spread=20.0)
        location = Point(50.0, 50.0)
        first = indexer.flag.best_level(location, now=0.0)
        second = indexer.flag.best_level(location, now=1.0)
        assert first == second
        assert indexer.flag.stats.cache_hits == 1
        assert indexer.flag.stats.recomputations == 1

    def test_nearby_location_reuses_cached_range(self, indexer):
        load_cluster(indexer, 50, center=(50.0, 50.0), spread=20.0)
        indexer.flag.best_level(Point(50.0, 50.0), now=0.0)
        # A location in the same chosen cell should hit the cached range.
        indexer.flag.best_level(Point(50.5, 50.5), now=1.0)
        assert indexer.flag.stats.cache_hits >= 1

    def test_stale_entries_recomputed(self, indexer):
        load_cluster(indexer, 50, center=(50.0, 50.0), spread=20.0)
        location = Point(50.0, 50.0)
        indexer.flag.best_level(location, now=0.0)
        ttl = indexer.config.flag_cache_ttl_s
        indexer.flag.best_level(location, now=ttl + 1.0)
        assert indexer.flag.stats.recomputations == 2

    def test_invalidate_clears_cache(self, indexer):
        load_cluster(indexer, 50, center=(50.0, 50.0), spread=20.0)
        indexer.flag.best_level(Point(50.0, 50.0), now=0.0)
        assert len(indexer.flag._cache) == 1
        indexer.flag.invalidate()
        assert len(indexer.flag._cache) == 0

    def test_clustering_invalidates_cache(self, indexer):
        # Two co-moving leaders that will merge.
        indexer.update(UpdateMessage("a", Point(10.0, 10.0), Vector(1.0, 0.0), 0.0))
        indexer.update(UpdateMessage("b", Point(12.0, 10.0), Vector(1.0, 0.0), 0.0))
        indexer.flag.best_level(Point(10.0, 10.0), now=0.0)
        assert len(indexer.flag._cache) == 1
        indexer.run_clustering(now=1.0)
        assert len(indexer.flag._cache) == 0

    def test_hit_ratio(self, indexer):
        load_cluster(indexer, 30, center=(50.0, 50.0), spread=10.0)
        for query in range(4):
            indexer.flag.best_level(Point(50.0, 50.0), now=float(query))
        assert indexer.flag.stats.hit_ratio == pytest.approx(0.75)


class TestStandaloneTuner:
    def test_explicit_hint_used(self, indexer):
        tuner = FlagTuner(indexer.config, indexer.spatial_table, total_objects_hint=4096)
        # With n=4096 and sigma=4 the uniform guess is 1/2*log2(1024) = 5.
        assert tuner._initial_level(4096, 4) == 5

    def test_initial_level_small_population(self, indexer):
        tuner = FlagTuner(indexer.config, indexer.spatial_table)
        assert tuner._initial_level(3, 8) == 1

    def test_level_delta_signs(self):
        assert FlagTuner._level_delta(1000, 8) > 0
        assert FlagTuner._level_delta(1, 64) < 0
        assert FlagTuner._level_delta(8, 8) == 0
        assert FlagTuner._level_delta(0, 8) == -1


def cached_record(level, pos, created_time=0.0):
    """The record ``best_level`` would cache for the level-``level`` cell at
    curve position ``pos``, as an ``export_state`` tuple."""
    left, right = CellId(level, pos).key_range()
    return (level, left, right, created_time)


def seeded_tuner(indexer, records):
    tuner = FlagTuner(indexer.config, indexer.spatial_table, total_objects_hint=64)
    tuner.install_state(
        {"stats": (0, 0, 0, 0), "cache": list(records), "total_objects_hint": 64}
    )
    return tuner


def storage_cell_center(config, pos):
    return CellId(config.storage_level, pos).center(config.world)


class TestCacheCoverInvariants:
    """The two quirks of Algorithm 4's cache that decide which lookups
    recompute — and with them the probe reads charged and every simulated
    number downstream.  Pinned as they are; see ``LevelCacheRecord.covers``.
    """

    def test_covers_includes_the_exclusive_range_end(self):
        level, left, right, _ = cached_record(3, 5)
        record = LevelCacheRecord(level, left, right, 0.0)
        assert right == CellId(3, 6).key_range()[0]
        assert record.covers(right)

    def test_lookup_hits_on_first_storage_cell_of_next_same_level_cell(self, indexer):
        config = indexer.config
        shift = 2 * (config.storage_level - 3)
        tuner = seeded_tuner(indexer, [cached_record(3, 5)])
        # The first storage cell of level-3 cell 6 has cell 5's right_key.
        tuner.best_level(storage_cell_center(config, 6 << shift), now=1.0)
        assert (tuner.stats.cache_hits, tuner.stats.recomputations) == (1, 0)
        # The second one is past the bound: recomputed and cached.
        tuner.best_level(storage_cell_center(config, (6 << shift) + 1), now=1.0)
        assert (tuner.stats.cache_hits, tuner.stats.recomputations) == (1, 1)
        assert len(tuner._cache) == 2

    def test_inclusive_bound_holds_at_the_storage_level_itself(self, indexer):
        level = indexer.config.storage_level
        tuner = seeded_tuner(indexer, [cached_record(level, 40)])
        assert tuner.best_level(storage_cell_center(indexer.config, 41), 0.0) == level
        assert tuner.stats.cache_hits == 1

    def test_first_inserted_record_wins_among_nested_ranges(self, indexer):
        config = indexer.config
        fine = cached_record(6, 4 * 4 * 7 + 3)  # inside level-4 cell 7
        coarse = cached_record(4, 7)
        inside_both = storage_cell_center(
            config, (4 * 4 * 7 + 3) << 2 * (config.storage_level - 6)
        )
        assert seeded_tuner(indexer, [fine, coarse]).best_level(inside_both, 0.0) == 6
        assert seeded_tuner(indexer, [coarse, fine]).best_level(inside_both, 0.0) == 4

    def test_first_inserted_wins_between_bound_neighbour_and_own_cell(self, indexer):
        config = indexer.config
        shift = 2 * (config.storage_level - 3)
        boundary = storage_cell_center(config, 6 << shift)
        previous, own = cached_record(3, 5), cached_record(5, 6 * 16)
        assert seeded_tuner(indexer, [previous, own]).best_level(boundary, 0.0) == 3
        assert seeded_tuner(indexer, [own, previous]).best_level(boundary, 0.0) == 5

    def test_stale_records_are_purged_by_the_lookup_that_observes_them(self, indexer):
        ttl = indexer.config.flag_cache_ttl_s
        old, young = cached_record(3, 5, 0.0), cached_record(3, 9, ttl)
        tuner = seeded_tuner(indexer, [old, young])
        shift = 2 * (indexer.config.storage_level - 3)
        inside_old = storage_cell_center(indexer.config, 5 << shift)
        inside_young = storage_cell_center(indexer.config, 9 << shift)
        tuner.best_level(inside_old, now=1.0)
        assert tuner.stats.cache_hits == 1
        # A lookup elsewhere, at a time the old record has aged out, drops it.
        tuner.best_level(inside_young, now=ttl + 1.0)
        assert tuner.stats.cache_hits == 2
        assert tuner.export_state()["cache"] == [young]
        # ``now`` is not monotone (predictive queries move it): the record
        # would be fresh again at now=1.0, but it is gone.
        tuner.best_level(inside_old, now=1.0)
        assert tuner.stats.recomputations == 1

    def test_index_survives_export_install_and_invalidate(self, indexer):
        tuner = seeded_tuner(indexer, [cached_record(4, 7), cached_record(6, 200)])
        clone = FlagTuner(indexer.config, indexer.spatial_table)
        clone.install_state(tuner.export_state())
        assert clone.export_state() == tuner.export_state()
        inside = storage_cell_center(
            indexer.config, 7 << 2 * (indexer.config.storage_level - 4)
        )
        assert clone.best_level(inside, 0.0) == 4
        assert clone.stats.cache_hits == 1
        clone.invalidate()
        assert len(clone._cache) == 0
        clone.best_level(inside, 0.0)
        assert clone.stats.recomputations == 1


class LinearFlagTuner(FlagTuner):
    """The cache as it was before the index: one list, walked on every
    lookup.  Kept as the reference the indexed cache must agree with."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._records = []

    def best_level(self, location, now):
        self.stats.lookups += 1
        key = CellId.from_point(
            location, self.config.storage_level, self.config.world
        ).key_range()[0]
        ttl = self.config.flag_cache_ttl_s
        found = None
        for record in self._records:
            if now - record.created_time <= ttl and found is None and record.covers(key):
                found = record
        self._records = [r for r in self._records if now - r.created_time <= ttl]
        if found is not None:
            self.stats.cache_hits += 1
            return found.level
        level = self.compute_level(location)
        left, right = CellId.from_point(location, level, self.config.world).key_range()
        self._records.append(LevelCacheRecord(level, left, right, now))
        return level

    def invalidate(self):
        self._records.clear()

    def export_state(self):
        state = super().export_state()
        state["cache"] = [
            (r.level, r.left_key, r.right_key, r.created_time) for r in self._records
        ]
        return state

    def install_state(self, state):
        super().install_state(dict(state, cache=[]))
        self._records = [LevelCacheRecord(*fields) for fields in state["cache"]]


PROPERTY_CONFIG = MoistConfig(
    world=BoundingBox(0.0, 0.0, 64.0, 64.0),
    storage_level=5,
    nn_level_delta=2,
    clustering_cell_level=2,
    sigma=4,
    flag_cache_ttl_s=10.0,
    enable_schools=False,
)
_TIMES = st.sampled_from([0.0, 1.0, 5.0, 10.0, 10.5, 11.0, 15.0, 20.5, 21.0, 40.0])
_RECORDS = st.integers(1, PROPERTY_CONFIG.storage_level).flatmap(
    lambda level: st.tuples(
        st.just(level), st.integers(0, 4 ** level - 1), _TIMES
    )
)
_OPS = st.one_of(
    st.tuples(st.just("lookup"), st.integers(0, 4 ** 5 - 1), _TIMES),
    st.tuples(st.just("invalidate")),
    st.tuples(st.just("roundtrip")),
)


def _property_indexer():
    indexer = MoistIndexer(PROPERTY_CONFIG)
    rng = random.Random(11)
    for index in range(150):
        # Dense in one corner, sparse elsewhere: FLAG picks several levels.
        spread = 8.0 if index < 110 else 64.0
        indexer.update(
            UpdateMessage(
                format_object_id(index),
                Point(rng.uniform(0.0, spread), rng.uniform(0.0, spread)),
                Vector(0.0, 0.0),
                0.0,
            )
        )
    return indexer


_INDEXER = _property_indexer()


@settings(max_examples=120, deadline=None)
@given(seed=st.lists(_RECORDS, max_size=8), ops=st.lists(_OPS, max_size=40))
def test_indexed_cache_matches_linear_reference(seed, ops):
    config = _INDEXER.config
    state = {
        "stats": (0, 0, 0, 0),
        "cache": [cached_record(*fields) for fields in seed],
        "total_objects_hint": 150,
    }
    indexed = FlagTuner(config, _INDEXER.spatial_table)
    linear = LinearFlagTuner(config, _INDEXER.spatial_table)
    indexed.install_state(state)
    linear.install_state(state)
    for op in ops:
        if op[0] == "lookup":
            location = storage_cell_center(config, op[1])
            assert indexed.best_level(location, op[2]) == linear.best_level(
                location, op[2]
            )
        elif op[0] == "invalidate":
            indexed.invalidate()
            linear.invalidate()
        else:
            restored = FlagTuner(config, _INDEXER.spatial_table)
            restored.install_state(indexed.export_state())
            indexed = restored
        assert indexed.stats == linear.stats
        assert len(indexed._cache) == len(linear._records)
        assert indexed.export_state() == linear.export_state()
