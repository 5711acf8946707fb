"""Tests for repro.spatial.covering."""

import pytest

from repro.errors import SpatialError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.spatial.cell import CellId
from repro.spatial.covering import cover_box, cover_circle

WORLD = BoundingBox(0.0, 0.0, 100.0, 100.0)


class TestCoverBox:
    def test_whole_world_cover_at_level_one(self):
        cells = cover_box(WORLD, 1, WORLD)
        assert len(cells) == 4

    def test_small_region_covered_by_one_cell(self):
        region = BoundingBox(10.0, 10.0, 11.0, 11.0)
        cells = cover_box(region, 3, WORLD)
        assert len(cells) == 1
        box = cells[0].to_box(WORLD)
        assert box.contains_point(Point(region.min_x, region.min_y))
        assert box.contains_point(Point(region.max_x, region.max_y))

    def test_cover_contains_every_region_corner(self):
        region = BoundingBox(20.0, 30.0, 55.0, 70.0)
        cells = cover_box(region, 4, WORLD)
        for corner in (
            Point(region.min_x, region.min_y),
            Point(region.max_x, region.min_y),
            Point(region.max_x, region.max_y),
            Point(region.min_x, region.max_y),
        ):
            assert any(cell.to_box(WORLD).contains_point(corner) for cell in cells)

    def test_cover_cells_all_intersect_region(self):
        region = BoundingBox(20.0, 30.0, 55.0, 70.0)
        for cell in cover_box(region, 4, WORLD):
            assert cell.to_box(WORLD).intersects(region)

    def test_cells_sorted_by_position(self):
        region = BoundingBox(0.0, 0.0, 60.0, 60.0)
        cells = cover_box(region, 3, WORLD)
        positions = [cell.pos for cell in cells]
        assert positions == sorted(positions)

    def test_invalid_level_rejected(self):
        with pytest.raises(SpatialError):
            cover_box(WORLD, -1, WORLD)

    @pytest.mark.parametrize("level", range(0, 5))
    def test_whole_world_cover_is_every_cell_in_curve_order(self, level):
        assert cover_box(WORLD, level, WORLD) == [
            CellId(level, pos) for pos in range(4**level)
        ]

    @pytest.mark.parametrize(
        "region",
        [
            BoundingBox(3.3, 4.4, 5.5, 6.6),
            BoundingBox(13.1, 7.9, 61.7, 19.3),
            BoundingBox(0.0, 0.0, 99.9, 41.2),
            BoundingBox(48.3, 48.3, 52.9, 97.1),
        ],
    )
    def test_box_cover_is_exactly_the_intersecting_cells(self, region):
        """Off-grid edges, so no cell merely touches the region: the cover is
        the brute-force set of level-3 cells whose box meets it."""
        expected = [
            CellId(3, pos)
            for pos in range(4**3)
            if CellId(3, pos).to_box(WORLD).intersects(region)
        ]
        assert cover_box(region, 3, WORLD) == expected

    def test_region_beyond_the_world_is_clamped_to_the_border(self):
        beyond = BoundingBox(120.0, -30.0, 140.0, 10.0)
        inside = BoundingBox(99.0, 0.0, 99.0, 10.0)
        assert cover_box(beyond, 3, WORLD) == cover_box(inside, 3, WORLD)

    def test_each_caller_gets_a_fresh_list(self):
        region = BoundingBox(20.0, 30.0, 55.0, 70.0)
        first = cover_box(region, 4, WORLD)
        expected = list(first)
        first.clear()
        assert cover_box(region, 4, WORLD) == expected


class TestCoverCircle:
    def test_negative_radius_rejected(self):
        with pytest.raises(SpatialError):
            cover_circle(Point(50.0, 50.0), -1.0, 3, WORLD)

    def test_circle_cover_subset_of_box_cover(self):
        center = Point(50.0, 50.0)
        radius = 20.0
        circle_cells = set(cover_circle(center, radius, 4, WORLD))
        box_cells = set(
            cover_box(BoundingBox.from_center(center, radius, radius), 4, WORLD)
        )
        assert circle_cells <= box_cells

    def test_circle_cover_contains_center_cell(self):
        center = Point(42.0, 17.0)
        cells = cover_circle(center, 5.0, 5, WORLD)
        assert CellId.from_point(center, 5, WORLD) in cells

    def test_all_cells_within_radius(self):
        center = Point(50.0, 50.0)
        radius = 15.0
        for cell in cover_circle(center, radius, 5, WORLD):
            assert cell.distance_to_point(center, WORLD) <= radius

    def test_invalid_level_rejected(self):
        with pytest.raises(SpatialError):
            cover_circle(Point(50.0, 50.0), 1.0, -1, WORLD)

    def test_zero_radius_covers_the_center_cell(self):
        center = Point(42.7, 17.3)
        assert cover_circle(center, 0.0, 5, WORLD) == [
            CellId.from_point(center, 5, WORLD)
        ]

    @pytest.mark.parametrize(
        "center, radius",
        [
            (Point(50.3, 50.7), 14.1),
            (Point(3.1, 96.2), 22.9),
            (Point(71.4, 8.8), 5.3),
            (Point(120.0, 50.0), 30.0),
        ],
    )
    def test_circle_cover_is_exactly_the_cells_within_reach(self, center, radius):
        """Every level-4 cell whose nearest point lies within the radius, and
        no other — a centre off the world included."""
        expected = [
            CellId(4, pos)
            for pos in range(4**4)
            if CellId(4, pos).distance_to_point(center, WORLD) <= radius
        ]
        assert cover_circle(center, radius, 4, WORLD) == expected

    def test_each_caller_gets_a_fresh_list(self):
        center = Point(50.0, 50.0)
        first = cover_circle(center, 20.0, 4, WORLD)
        expected = list(first)
        first.append(CellId(0, 0))
        assert cover_circle(center, 20.0, 4, WORLD) == expected

