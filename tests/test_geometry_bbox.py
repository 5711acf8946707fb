"""Tests for repro.geometry.bbox."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SpatialError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point

coordinate = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw):
    x1 = draw(coordinate)
    x2 = draw(coordinate)
    y1 = draw(coordinate)
    y2 = draw(coordinate)
    return BoundingBox(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


class TestConstruction:
    def test_invalid_box_raises(self):
        with pytest.raises(SpatialError):
            BoundingBox(1.0, 0.0, 0.0, 1.0)

    def test_zero_area_box_is_allowed(self):
        box = BoundingBox(1.0, 2.0, 1.0, 2.0)
        assert box.width == box.height == 0.0

    def test_from_center(self):
        box = BoundingBox.from_center(Point(5.0, 5.0), 2.0, 3.0)
        assert box == BoundingBox(3.0, 2.0, 7.0, 8.0)

    def test_dimensions(self):
        box = BoundingBox(0.0, 0.0, 4.0, 2.0)
        assert box.width == 4.0
        assert box.height == 2.0
        assert box.center() == Point(2.0, 1.0)


class TestContainment:
    def test_contains_point_inside_and_on_border(self):
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        assert box.contains_point(Point(5.0, 5.0))
        assert box.contains_point(Point(0.0, 10.0))
        assert not box.contains_point(Point(10.1, 5.0))

    @given(boxes())
    def test_box_contains_its_center(self, box):
        assert box.contains_point(box.center())


class TestIntersection:
    def test_intersects_overlapping(self):
        a = BoundingBox(0.0, 0.0, 5.0, 5.0)
        b = BoundingBox(4.0, 4.0, 10.0, 10.0)
        assert a.intersects(b)

    def test_disjoint_boxes_do_not_intersect(self):
        a = BoundingBox(0.0, 0.0, 1.0, 1.0)
        b = BoundingBox(2.0, 2.0, 3.0, 3.0)
        assert not a.intersects(b)

    def test_boxes_sharing_only_an_edge_intersect(self):
        a = BoundingBox(0.0, 0.0, 1.0, 1.0)
        b = BoundingBox(1.0, 0.5, 2.0, 3.0)
        assert a.intersects(b) and b.intersects(a)

    @given(boxes(), boxes())
    def test_intersects_is_symmetric_and_means_a_common_point(self, a, b):
        common = Point(max(a.min_x, b.min_x), max(a.min_y, b.min_y))
        shared = a.contains_point(common) and b.contains_point(common)
        assert a.intersects(b) == b.intersects(a) == shared


class TestClamp:
    @pytest.mark.parametrize(
        "point, clamped",
        [
            (Point(5.0, 5.0), Point(5.0, 5.0)),
            (Point(-3.0, -4.0), Point(0.0, 0.0)),
            (Point(5.0, -4.0), Point(5.0, 0.0)),
            (Point(13.0, -4.0), Point(10.0, 0.0)),
            (Point(13.0, 5.0), Point(10.0, 5.0)),
            (Point(13.0, 14.0), Point(10.0, 10.0)),
            (Point(5.0, 14.0), Point(5.0, 10.0)),
            (Point(-3.0, 14.0), Point(0.0, 10.0)),
            (Point(-3.0, 5.0), Point(0.0, 5.0)),
        ],
    )
    def test_clamp_and_distance_in_each_of_the_nine_regions(self, point, clamped):
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        assert box.clamp_point(point) == clamped
        assert box.distance_to_point(point) == pytest.approx(point.distance_to(clamped))


class TestDistance:
    def test_distance_zero_inside(self):
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        assert box.distance_to_point(Point(5.0, 5.0)) == 0.0

    def test_distance_to_side(self):
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        assert box.distance_to_point(Point(15.0, 5.0)) == pytest.approx(5.0)

    def test_distance_to_corner(self):
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        assert box.distance_to_point(Point(13.0, 14.0)) == pytest.approx(5.0)

    @given(boxes(), coordinate, coordinate)
    def test_distance_lower_bounds_contained_points(self, box, x, y):
        """The box-to-point distance never exceeds the distance to any point
        inside the box — the invariant the NN search pruning relies on."""
        point = Point(x, y)
        inner = box.clamp_point(Point((box.min_x + box.max_x) / 2, (box.min_y + box.max_y) / 2))
        assert box.distance_to_point(point) <= inner.distance_to(point) + 1e-9
