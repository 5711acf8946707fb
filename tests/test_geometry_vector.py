"""Tests for repro.geometry.vector."""

import pytest
from hypothesis import given, strategies as st

from repro.geometry.vector import Vector

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestVectorAlgebra:
    def test_addition_and_subtraction(self):
        assert Vector(1.0, 2.0) + Vector(3.0, -1.0) == Vector(4.0, 1.0)
        assert Vector(1.0, 2.0) - Vector(3.0, -1.0) == Vector(-2.0, 3.0)

    def test_negation(self):
        assert -Vector(1.0, -2.0) == Vector(-1.0, 2.0)

    def test_scalar_multiplication_both_sides(self):
        assert Vector(1.0, 2.0) * 2.0 == Vector(2.0, 4.0)
        assert 3.0 * Vector(1.0, 2.0) == Vector(3.0, 6.0)

    def test_zero_vector(self):
        assert Vector.zero().magnitude() == 0.0

    @given(finite, finite, finite, finite)
    def test_addition_commutes(self, ax, ay, bx, by):
        assert Vector(ax, ay) + Vector(bx, by) == Vector(bx, by) + Vector(ax, ay)


class TestVectorMetrics:
    def test_magnitude(self):
        assert Vector(3.0, 4.0).magnitude() == pytest.approx(5.0)

    def test_distance_to_is_difference_magnitude(self):
        a = Vector(1.0, 1.0)
        b = Vector(4.0, 5.0)
        assert a.distance_to(b) == pytest.approx((a - b).magnitude())

    @given(finite, finite)
    def test_distance_to_self_is_zero(self, dx, dy):
        assert Vector(dx, dy).distance_to(Vector(dx, dy)) == 0.0


class TestVectorDirections:
    def test_normalised_has_unit_length(self):
        assert Vector(3.0, 4.0).normalised().magnitude() == pytest.approx(1.0)

    def test_normalised_zero_stays_zero(self):
        assert Vector.zero().normalised() == Vector(0.0, 0.0)

    def test_scaled(self):
        assert Vector(1.0, -2.0).scaled(0.5) == Vector(0.5, -1.0)

    def test_is_finite(self):
        assert Vector(1.0, 1.0).is_finite()
        assert not Vector(float("nan"), 1.0).is_finite()
