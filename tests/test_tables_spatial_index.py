"""Tests for the Spatial Index Table wrapper."""

import pytest

from repro.bigtable.emulator import BigtableEmulator
from repro.errors import SchemaError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.spatial.cell import CellId
from repro.tables.spatial_index_table import SpatialIndexTable

WORLD = BoundingBox(0.0, 0.0, 100.0, 100.0)


@pytest.fixture
def table():
    return SpatialIndexTable(BigtableEmulator(), storage_level=8, world=WORLD)


class TestConfiguration:
    def test_invalid_storage_level(self):
        with pytest.raises(SchemaError):
            SpatialIndexTable(BigtableEmulator(), storage_level=0)

    def test_cell_and_row_key(self, table):
        point = Point(10.0, 20.0)
        cell = table.cell_for(point)
        assert cell.level == 8
        assert table.row_key_for(point) == cell.key()


class TestMutations:
    def test_add_and_lookup(self, table):
        point = Point(10.0, 20.0)
        cell = table.add("obj1", point, timestamp=1.0)
        objects = table.objects_in_cell(cell)
        assert objects == {"obj1": (10.0, 20.0)}

    def test_remove(self, table):
        point = Point(10.0, 20.0)
        table.add("obj1", point, timestamp=1.0)
        assert table.remove("obj1", point)
        assert table.objects_in_cell(table.cell_for(point)) == {}

    def test_remove_from_cell(self, table):
        point = Point(10.0, 20.0)
        cell = table.add("obj1", point, timestamp=1.0)
        assert table.remove_from_cell("obj1", cell)
        assert not table.remove_from_cell("obj1", cell)

    def test_move_across_cells(self, table):
        old = Point(1.0, 1.0)
        new = Point(90.0, 90.0)
        table.add("obj1", old, timestamp=1.0)
        old_cell, new_cell = table.move("obj1", old, new, timestamp=2.0)
        assert old_cell != new_cell
        assert table.objects_in_cell(old_cell) == {}
        assert table.objects_in_cell(new_cell) == {"obj1": (90.0, 90.0)}

    def test_move_within_same_cell_overwrites(self, table):
        old = Point(10.0, 10.0)
        new = Point(10.01, 10.01)
        table.add("obj1", old, timestamp=1.0)
        old_cell, new_cell = table.move("obj1", old, new, timestamp=2.0)
        assert old_cell == new_cell
        assert table.objects_in_cell(new_cell)["obj1"] == (10.01, 10.01)

    def test_move_without_previous_location(self, table):
        old_cell, new_cell = table.move("obj1", None, Point(5.0, 5.0), timestamp=1.0)
        assert old_cell is None
        assert table.objects_in_cell(new_cell) == {"obj1": (5.0, 5.0)}

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
        coarse = table.cell_for(a).parent(4)
        objects = table.objects_in_cell(coarse)
        assert set(objects) == {"a", "b"}

    def test_objects_outside_cell_not_returned(self, table):
        table.add("far", Point(90.0, 90.0), timestamp=1.0)
        near_cell = table.cell_for(Point(5.0, 5.0)).parent(4)
        assert "far" not in table.objects_in_cell(near_cell)

    def test_count_in_cell(self, table):
        table.add("a", Point(10.0, 10.0), timestamp=1.0)
        table.add("b", Point(11.0, 11.0), timestamp=1.0)
        coarse = table.cell_for(Point(10.0, 10.0)).parent(3)
        assert table.count_in_cell(coarse) == 2

    def test_approximate_count_counts_rows(self, table):
        table.add("a", Point(10.0, 10.0), timestamp=1.0)
        table.add("b", Point(50.0, 50.0), timestamp=1.0)
        root = CellId(1, table.cell_for(Point(10.0, 10.0)).parent(1).pos)
        assert table.approximate_count_in_cell(root) >= 1

    def test_total_objects_and_row_count(self, table):
        table.add("a", Point(10.0, 10.0), timestamp=1.0)
        table.add("b", Point(90.0, 90.0), timestamp=1.0)
        assert table.total_objects() == 2
        assert table.row_count() == 2

    def test_categories_via_extra_families(self):
        table = SpatialIndexTable(
            BigtableEmulator(), storage_level=8, world=WORLD, extra_families=("bus",)
        )
        point = Point(10.0, 10.0)
        table.add("bus1", point, timestamp=1.0, family="bus")
        table.add("user1", point, timestamp=1.0)
        cell = table.cell_for(point)
        assert table.objects_in_cell(cell, family="bus") == {"bus1": (10.0, 10.0)}
        assert table.objects_in_cell(cell) == {"user1": (10.0, 10.0)}
