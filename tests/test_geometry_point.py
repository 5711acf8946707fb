"""Tests for repro.geometry.point."""


import pytest
from hypothesis import given, strategies as st

from repro.geometry.point import Point
from repro.geometry.vector import Vector

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestPointBasics:
    def test_as_tuple_round_trip(self):
        assert Point(1.5, -2.0).as_tuple() == (1.5, -2.0)

    def test_iteration_yields_coordinates(self):
        assert list(Point(3.0, 4.0)) == [3.0, 4.0]

    def test_points_are_hashable_and_comparable(self):
        assert len({Point(1.0, 2.0), Point(1.0, 2.0), Point(2.0, 1.0)}) == 2
        assert Point(1.0, 2.0) < Point(2.0, 0.0)

    def test_is_finite_rejects_nan(self):
        assert Point(1.0, 2.0).is_finite()
        assert not Point(float("nan"), 0.0).is_finite()
        assert not Point(0.0, float("inf")).is_finite()


class TestPointDistances:
    def test_345_triangle(self):
        assert Point(0.0, 0.0).distance_to(Point(3.0, 4.0)) == pytest.approx(5.0)

    def test_distance_is_symmetric(self):
        a = Point(1.0, 7.0)
        b = Point(-3.0, 2.0)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    @given(finite, finite, finite, finite)
    def test_distance_non_negative(self, x1, y1, x2, y2):
        assert Point(x1, y1).distance_to(Point(x2, y2)) >= 0.0

    @given(finite, finite)
    def test_distance_to_self_is_zero(self, x, y):
        assert Point(x, y).distance_to(Point(x, y)) == 0.0


class TestPointDisplacement:
    def test_displacement_round_trip(self):
        a = Point(1.0, 2.0)
        b = Point(5.0, -3.0)
        assert a.displaced(a.displacement_to(b)) == b

    def test_displaced_adds_vector(self):
        assert Point(1.0, 1.0).displaced(Vector(2.0, 3.0)) == Point(3.0, 4.0)

    def test_translated(self):
        assert Point(1.0, 1.0).translated(-1.0, 2.0) == Point(0.0, 3.0)

    @given(finite, finite, finite, finite)
    def test_displacement_magnitude_equals_distance(self, x1, y1, x2, y2):
        a = Point(x1, y1)
        b = Point(x2, y2)
        assert a.displacement_to(b).magnitude() == pytest.approx(
            a.distance_to(b), abs=1e-6, rel=1e-6
        )


class TestPointClamp:
    def test_clamp_inside_is_identity(self):
        assert Point(5.0, 5.0).clamped(0.0, 0.0, 10.0, 10.0) == Point(5.0, 5.0)

    def test_clamp_outside_moves_to_border(self):
        assert Point(-5.0, 20.0).clamped(0.0, 0.0, 10.0, 10.0) == Point(0.0, 10.0)

    def test_clamp_on_border_stays(self):
        assert Point(0.0, 10.0).clamped(0.0, 0.0, 10.0, 10.0) == Point(0.0, 10.0)
