"""Tests for the Spatial Index Table wrapper."""

import pytest

from repro.bigtable.emulator import BigtableEmulator
from repro.errors import SchemaError, SpatialError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.spatial.cell import MAX_LEVEL, CellId
from repro.tables.spatial_index_table import SpatialIndexTable

from helpers import cell_for

WORLD = BoundingBox(0.0, 0.0, 100.0, 100.0)


@pytest.fixture
def table():
    return SpatialIndexTable(BigtableEmulator(), storage_level=8, world=WORLD)


class TestConfiguration:
    def test_invalid_storage_level(self):
        with pytest.raises(SchemaError):
            SpatialIndexTable(BigtableEmulator(), storage_level=0)

    def test_level_beyond_the_curve_fails_at_construction(self):
        emulator = BigtableEmulator()
        with pytest.raises(SpatialError):
            SpatialIndexTable(emulator, storage_level=MAX_LEVEL + 1)
        # Nothing half-built is left behind: the name is still free.
        SpatialIndexTable(emulator, storage_level=MAX_LEVEL)

    def test_world_without_extent_fails_at_construction(self):
        for world in (
            BoundingBox(5.0, 0.0, 5.0, 10.0),
            BoundingBox(0.0, 5.0, 10.0, 5.0),
        ):
            with pytest.raises(SpatialError):
                SpatialIndexTable(BigtableEmulator(), storage_level=8, world=world)

    @pytest.mark.parametrize("bad", [float("nan"), -float("nan")])
    def test_coordinate_that_is_not_a_number_is_a_typed_error(self, table, bad):
        home = Point(10.0, 20.0)
        table.add("obj1", home, timestamp=1.0)
        for location in (Point(bad, 1.0), Point(1.0, bad)):
            with pytest.raises(SpatialError):
                table.add("obj2", location, timestamp=2.0)
            with pytest.raises(SpatialError):
                table.move("obj1", home, location, timestamp=2.0)
            with pytest.raises(SpatialError):
                table.move("obj1", location, home, timestamp=2.0)
            with pytest.raises(SpatialError):
                table.remove("obj1", location)
        # The failed mutations wrote nothing.
        assert table.objects_in_cell(cell_for(table, home)) == {"obj1": (10.0, 20.0)}
        assert table.total_objects() == 1

    def test_infinite_coordinates_clamp_onto_the_border(self, table):
        inf = float("inf")
        assert table.row_key_for(Point(inf, -inf)) is table.row_key_for(
            Point(100.0, 0.0)
        )

    def test_cell_and_row_key(self, table):
        point = Point(10.0, 20.0)
        cell = cell_for(table, point)
        assert cell.level == 8
        assert table.row_key_for(point) is cell.key_range()[0]


class TestMutations:
    def test_add_and_lookup(self, table):
        point = Point(10.0, 20.0)
        assert table.add("obj1", point, timestamp=1.0) is table.row_key_for(point)
        objects = table.objects_in_cell(cell_for(table, point))
        assert objects == {"obj1": (10.0, 20.0)}

    def test_remove(self, table):
        point = Point(10.0, 20.0)
        table.add("obj1", point, timestamp=1.0)
        assert table.remove("obj1", point)
        assert table.objects_in_cell(cell_for(table, point)) == {}

    def test_move_across_cells(self, table):
        old = Point(1.0, 1.0)
        new = Point(90.0, 90.0)
        table.add("obj1", old, timestamp=1.0)
        keys = table.move("obj1", old, new, timestamp=2.0)
        assert keys == (table.row_key_for(old), table.row_key_for(new))
        assert keys[0] != keys[1]
        assert table.objects_in_cell(cell_for(table, old)) == {}
        assert table.objects_in_cell(cell_for(table, new)) == {"obj1": (90.0, 90.0)}

    def test_move_takes_a_stored_pair_as_old_location(self, table):
        table.add("obj1", Point(1.0, 1.0), timestamp=1.0)
        keys = table.move("obj1", (1.0, 1.0), Point(90.0, 90.0), timestamp=2.0)
        assert keys[0] is table.row_key_for(Point(1.0, 1.0))
        assert table.total_objects() == 1

    def test_move_within_same_cell_overwrites(self, table):
        old = Point(10.0, 10.0)
        new = Point(10.01, 10.01)
        table.add("obj1", old, timestamp=1.0)
        old_key, new_key = table.move("obj1", old, new, timestamp=2.0)
        assert old_key is new_key
        assert table.objects_in_cell(cell_for(table, new))["obj1"] == (10.01, 10.01)

    def test_move_without_previous_location(self, table):
        new = Point(5.0, 5.0)
        old_key, new_key = table.move("obj1", None, new, timestamp=1.0)
        assert old_key is None
        assert new_key is table.row_key_for(new)
        assert table.objects_in_cell(cell_for(table, new)) == {"obj1": (5.0, 5.0)}

    def test_batch_remove(self, table):
        a = Point(10.0, 10.0)
        b = Point(20.0, 20.0)
        table.add("a", a, timestamp=1.0)
        table.add("b", b, timestamp=1.0)
        table.batch_remove([("a", a), ("b", b)])
        assert table.total_objects() == 0


class TestQueries:
    def test_objects_in_coarse_cell_aggregates_storage_rows(self, table):
        # Two nearby points that land in different storage cells but share a
        # coarse ancestor.
        a = Point(10.0, 10.0)
        b = Point(12.0, 11.0)
        table.add("a", a, timestamp=1.0)
        table.add("b", b, timestamp=1.0)
        coarse = cell_for(table, a).parent(4)
        objects = table.objects_in_cell(coarse)
        assert set(objects) == {"a", "b"}

    def test_objects_outside_cell_not_returned(self, table):
        table.add("far", Point(90.0, 90.0), timestamp=1.0)
        near_cell = cell_for(table, Point(5.0, 5.0)).parent(4)
        assert "far" not in table.objects_in_cell(near_cell)

    def test_count_in_cell(self, table):
        table.add("a", Point(10.0, 10.0), timestamp=1.0)
        table.add("b", Point(11.0, 11.0), timestamp=1.0)
        coarse = cell_for(table, Point(10.0, 10.0)).parent(3)
        assert table.count_in_cell(coarse) == 2

    def test_approximate_count_counts_rows(self, table):
        table.add("a", Point(10.0, 10.0), timestamp=1.0)
        table.add("b", Point(50.0, 50.0), timestamp=1.0)
        root = CellId(1, cell_for(table, Point(10.0, 10.0)).parent(1).pos)
        assert table.approximate_count_in_cell(root) >= 1

    def test_total_objects_and_row_count(self, table):
        table.add("a", Point(10.0, 10.0), timestamp=1.0)
        table.add("b", Point(90.0, 90.0), timestamp=1.0)
        assert table.total_objects() == 2
        assert table.table.row_count() == 2
