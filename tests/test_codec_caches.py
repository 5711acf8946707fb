"""Tests for the memoized spatial key codecs and covering caches.

The caches must be pure accelerators: clearing them can never change a
result, and cached values must be safe against caller mutation.
"""

import random

import pytest

from repro import MoistConfig, MoistIndexer, UpdateMessage, Vector
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.spatial import cell as cell_module
from repro.spatial import covering as covering_module
from repro.spatial.cell import CellId
from repro.spatial.covering import cover_box, cover_circle
from repro.spatial.hilbert import hilbert_index, hilbert_point
from repro.errors import SpatialError

from repro.bigtable.emulator import BigtableEmulator
from repro.tables.spatial_index_table import SpatialIndexTable

from helpers import cell_for


def hilbert_cache_clear():
    hilbert_index.cache_clear()
    hilbert_point.cache_clear()


def cell_codec_cache_clear():
    for codec in (
        cell_module._key_codec,
        cell_module.cell_box_lookup,
        cell_module.edge_neighbor_positions,
        cell_module._all_neighbors_codec,
    ):
        codec.cache_clear()


def covering_cache_clear():
    covering_module._cover_box_codec.cache_clear()
    covering_module._cover_circle_codec.cache_clear()


class TestHilbertMemo:
    def test_results_stable_across_cache_clear(self):
        samples = [(4, x, y) for x in range(8) for y in range(8)]
        before = [hilbert_index(order, x, y) for order, x, y in samples]
        hilbert_cache_clear()
        after = [hilbert_index(order, x, y) for order, x, y in samples]
        assert before == after
        points = [hilbert_point(4, d) for d in range(64)]
        hilbert_cache_clear()
        assert points == [hilbert_point(4, d) for d in range(64)]

    def test_repeat_calls_hit_the_cache(self):
        # Behaviour, not hit counters: a repeat returns the same answer
        # whether or not a memo served it, and clearing (twice) is safe.
        hilbert_cache_clear()
        first = hilbert_index(6, 11, 17)
        assert hilbert_index(6, 11, 17) == first
        hilbert_cache_clear()
        hilbert_cache_clear()
        assert hilbert_index(6, 11, 17) == first
        assert hilbert_point(6, first) == (11, 17)

    def test_invalid_arguments_raise_every_call(self):
        for _ in range(2):  # errors must never be cached
            with pytest.raises(SpatialError):
                hilbert_index(2, 99, 0)
            with pytest.raises(SpatialError):
                hilbert_point(2, 999)


class TestCellCodecMemo:
    def test_key_codecs_stable_across_cache_clear(self):
        cells = [CellId(5, pos) for pos in range(0, 1024, 37)]
        keys = [cell.key_range()[0] for cell in cells]
        ranges = [cell.key_range() for cell in cells]
        boxes = [cell.to_box() for cell in cells]
        cell_codec_cache_clear()
        assert keys == [cell.key_range()[0] for cell in cells]
        assert ranges == [cell.key_range() for cell in cells]
        assert boxes == [cell.to_box() for cell in cells]

    def test_neighbor_lists_are_fresh_copies(self):
        cell = CellId(3, 21)
        # The memoized edge neighbours are a tuple: no caller can mutate them.
        assert isinstance(cell_module.edge_neighbor_positions(3, 21), tuple)
        everyone = cell.all_neighbors()
        everyone.clear()
        assert cell.all_neighbors() != []

    def test_distance_matches_box_distance(self):
        world = BoundingBox(0.0, 0.0, 100.0, 100.0)
        cell = CellId(4, 123)
        for point in (Point(3.0, 97.0), Point(50.0, 50.0), Point(-5.0, 12.0)):
            assert cell.distance_to_point(point, world) == pytest.approx(
                cell.to_box(world).distance_to_point(point), abs=0.0
            )


class TestCoveringCache:
    def test_cover_box_stable_across_cache_clear(self):
        region = BoundingBox(0.1, 0.2, 0.4, 0.5)
        first = cover_box(region, 5)
        covering_cache_clear()
        assert cover_box(region, 5) == first

    def test_repeated_shape_hits_the_cache(self):
        covering_cache_clear()
        region = BoundingBox(0.25, 0.25, 0.75, 0.75)
        cover_box(region, 4)
        cover_box(region, 4)
        box_info = covering_module._cover_box_codec.cache_info()
        assert box_info.hits >= 1
        assert box_info.misses >= 1

    def test_cached_results_are_fresh_lists(self):
        region = BoundingBox(0.0, 0.0, 0.3, 0.3)
        first = cover_box(region, 4)
        first.clear()
        assert cover_box(region, 4) != []

    def test_cover_circle_stable_across_cache_clear(self):
        first = cover_circle(Point(0.5, 0.5), 0.2, 5)
        covering_cache_clear()
        assert cover_circle(Point(0.5, 0.5), 0.2, 5) == first

    def test_invalid_arguments_raise_every_call(self):
        for _ in range(2):
            with pytest.raises(SpatialError):
                cover_box(BoundingBox(0.0, 0.0, 1.0, 1.0), 99)
            with pytest.raises(SpatialError):
                cover_circle(Point(0.0, 0.0), -1.0, 4)


class TestSpatialIndexRowKey:
    def test_row_key_is_the_cell_key_token(self):
        # The write path derives its key without building a cell; it must
        # still be the very string object the query side's codec interns.
        table = SpatialIndexTable(BigtableEmulator(), storage_level=8)
        for point in [Point(0.31, 0.64)] + [Point(i / 16.0, i / 16.0) for i in range(17)]:
            cell = cell_for(table, point)
            assert cell == CellId.from_point(point, 8)
            assert cell.key_range()[0] is table.row_key_for(point)

    def test_update_path_leaves_the_codec_caches_alone(self):
        # The 65 536-entry key codec and the Hilbert LRU belong to the query
        # side; a write-heavy run must not fill them with keys nobody reads.
        cell_codec_cache_clear()
        hilbert_cache_clear()
        indexer = MoistIndexer(
            MoistConfig(
                world=BoundingBox(0.0, 0.0, 1000.0, 1000.0),
                storage_level=12,
                enable_schools=False,
                deviation_threshold=0.0,
            )
        )
        rng = random.Random(21)

        def report(timestamp):
            indexer.update_many(
                [
                    UpdateMessage(
                        f"obj{number}",
                        Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)),
                        Vector(1.0, 0.0),
                        timestamp,
                    )
                    for number in range(2000)
                ]
            )

        report(0.0)
        before = (
            cell_module._key_codec.cache_info().currsize,
            hilbert_index.cache_info().currsize,
        )
        report(1.0)  # 2 000 moves: a delete at the old key, a write at the new
        assert indexer.update_stats.total == 4000
        assert (
            cell_module._key_codec.cache_info().currsize,
            hilbert_index.cache_info().currsize,
        ) == before
