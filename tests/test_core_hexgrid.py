"""Tests for the hexagonal velocity partition."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.hexgrid import HexGrid
from repro.errors import ClusteringError
from repro.geometry.vector import Vector

velocities = st.builds(
    Vector,
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)


class TestConstruction:
    def test_positive_deviation_required(self):
        with pytest.raises(ClusteringError):
            HexGrid(max_deviation=0.0)
        with pytest.raises(ClusteringError):
            HexGrid(max_deviation=-1.0)

    def test_circumradius_is_half_deviation(self):
        assert HexGrid(max_deviation=1.0).circumradius == pytest.approx(0.5)


class TestBinning:
    def test_identical_velocities_share_a_bin(self):
        grid = HexGrid(max_deviation=1.0)
        assert grid.bin_of(Vector(1.0, 1.0)) == grid.bin_of(Vector(1.0, 1.0))

    def test_very_different_velocities_are_separated(self):
        grid = HexGrid(max_deviation=1.0)
        assert grid.bin_of(Vector(0.0, 0.0)) != grid.bin_of(Vector(3.0, 3.0))

    def test_opposite_directions_never_share_a_bin(self):
        grid = HexGrid(max_deviation=1.0)
        assert grid.bin_of(Vector(1.5, 0.0)) != grid.bin_of(Vector(-1.5, 0.0))

    @given(velocities, velocities)
    def test_same_bin_implies_deviation_below_threshold(self, a, b):
        """The property the hexagon size guarantees: two velocities in one
        bin differ by at most Δm (the intra-school velocity bound)."""
        grid = HexGrid(max_deviation=1.0)
        if grid.bin_of(a) == grid.bin_of(b):
            assert a.distance_to(b) <= 1.0 + 1e-9

    @given(velocities)
    def test_binning_is_deterministic(self, velocity):
        grid = HexGrid(max_deviation=1.0)
        assert grid.bin_of(velocity) == grid.bin_of(velocity)

    @pytest.mark.parametrize(
        "q, r",
        [(0, 0), (1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1), (3, -5), (-4, 2), (7, 7)],
    )
    def test_hexagon_center_falls_in_its_own_bin(self, q, r):
        """The centre of the pointy-top hexagon at axial ``(q, r)`` — and
        every point a little less than the inradius from it — bins to
        ``(q, r)``."""
        grid = HexGrid(max_deviation=0.8)
        size = grid.circumradius
        cx = size * math.sqrt(3.0) * (q + r / 2.0)
        cy = size * 1.5 * r
        inradius = size * math.sqrt(3.0) / 2.0
        assert grid.bin_of(Vector(cx, cy)) == (q, r)
        for step in range(12):
            angle = step * math.pi / 6.0
            nudge = 0.99 * inradius
            moved = Vector(cx + nudge * math.cos(angle), cy + nudge * math.sin(angle))
            assert grid.bin_of(moved) == (q, r)

    def test_smaller_deviation_gives_finer_bins(self):
        coarse = HexGrid(max_deviation=2.0)
        fine = HexGrid(max_deviation=0.2)
        a = Vector(0.0, 0.0)
        b = Vector(0.5, 0.0)
        assert coarse.bin_of(a) == coarse.bin_of(b)
        assert fine.bin_of(a) != fine.bin_of(b)
