"""Tests for the Hilbert and Z-order curve encodings."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SpatialError
from repro.spatial.cell import MAX_LEVEL
from repro.spatial.hilbert import hilbert_index, hilbert_point
from repro.spatial.zcurve import z_index


class TestHilbertSmall:
    def test_order_one_enumerates_four_cells(self):
        positions = {hilbert_index(1, x, y) for x in range(2) for y in range(2)}
        assert positions == {0, 1, 2, 3}

    def test_order_zero_is_single_cell(self):
        assert hilbert_index(0, 0, 0) == 0

    def test_known_order_one_layout(self):
        # The classic order-1 Hilbert curve visits (0,0), (0,1), (1,1), (1,0).
        assert hilbert_index(1, 0, 0) == 0
        assert hilbert_index(1, 0, 1) == 1
        assert hilbert_index(1, 1, 1) == 2
        assert hilbert_index(1, 1, 0) == 3

    def test_out_of_range_coordinates_rejected(self):
        with pytest.raises(SpatialError):
            hilbert_index(2, 4, 0)
        with pytest.raises(SpatialError):
            hilbert_index(2, 0, -1)

    def test_negative_order_rejected(self):
        with pytest.raises(SpatialError):
            hilbert_index(-1, 0, 0)
        with pytest.raises(SpatialError):
            hilbert_point(-1, 0)

    def test_decode_out_of_range_rejected(self):
        with pytest.raises(SpatialError):
            hilbert_point(2, 16)


def loop_hilbert_index(order, x, y):
    """The classical per-level loop (rotate the low bits after every digit)
    that ``hilbert_index`` was before it became table-driven: the reference
    the tables must reproduce bit for bit."""
    d = 0
    s = 1 << (order - 1) if order > 0 else 0
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        x, y = _rotate(s, x, y, rx, ry)
        s //= 2
    return d


def loop_hilbert_point(order, d):
    x = y = 0
    t = d
    s = 1
    while s < 1 << order:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        x, y = _rotate(s, x, y, rx, ry)
        x += s * rx
        y += s * ry
        t //= 4
        s *= 2
    return x, y


def _rotate(s, x, y, rx, ry):
    if ry == 0:
        if rx == 1:
            x = s - 1 - x
            y = s - 1 - y
        x, y = y, x
    return x, y


class TestTableDrivenMatchesTheLoop:
    @pytest.mark.parametrize("order", range(0, 7))
    def test_every_cell_of_the_small_orders(self, order):
        side = 1 << order
        for x in range(side):
            for y in range(side):
                d = loop_hilbert_index(order, x, y)
                assert hilbert_index(order, x, y) == d
                assert hilbert_point(order, d) == loop_hilbert_point(order, d) == (x, y)

    def test_seeded_draws_of_the_large_orders(self):
        rng = random.Random(20120827)
        for _ in range(10_000):
            order = rng.randrange(7, MAX_LEVEL + 1)
            x = rng.randrange(1 << order)
            y = rng.randrange(1 << order)
            d = loop_hilbert_index(order, x, y)
            assert hilbert_index(order, x, y) == d
            assert hilbert_point(order, d) == (x, y)

    def test_corners_of_every_order(self):
        # All-zero and all-one coordinates drive the padded leading levels
        # and every state of the automaton.
        for order in range(MAX_LEVEL + 1):
            top = (1 << order) - 1
            for x, y in ((0, 0), (0, top), (top, 0), (top, top)):
                d = loop_hilbert_index(order, x, y)
                assert hilbert_index(order, x, y) == d
                assert hilbert_point(order, d) == (x, y)

    def test_out_of_range_arguments_raise_on_every_call(self):
        for _ in range(3):  # an error must never be memoized
            for order, x, y in ((3, 8, 0), (3, 0, 8), (3, -1, 0), (0, 1, 0), (-1, 0, 0)):
                with pytest.raises(SpatialError):
                    hilbert_index(order, x, y)
            for order, d in ((3, 64), (3, -1), (0, 1), (-2, 0)):
                with pytest.raises(SpatialError):
                    hilbert_point(order, d)


class TestHilbertProperties:
    @given(st.integers(min_value=1, max_value=8), st.data())
    def test_round_trip(self, order, data):
        side = 1 << order
        x = data.draw(st.integers(min_value=0, max_value=side - 1))
        y = data.draw(st.integers(min_value=0, max_value=side - 1))
        assert hilbert_point(order, hilbert_index(order, x, y)) == (x, y)

    @settings(max_examples=25)
    @given(st.integers(min_value=1, max_value=6))
    def test_bijection_over_whole_grid(self, order):
        side = 1 << order
        indexes = {
            hilbert_index(order, x, y) for x in range(side) for y in range(side)
        }
        assert indexes == set(range(side * side))

    @settings(max_examples=25)
    @given(st.integers(min_value=1, max_value=6))
    def test_curve_is_continuous(self, order):
        """Consecutive curve positions are always grid neighbours — the
        locality property that keeps nearby cells in nearby rows."""
        side = 1 << order
        for d in range(side * side - 1):
            x1, y1 = hilbert_point(order, d)
            x2, y2 = hilbert_point(order, d + 1)
            assert abs(x1 - x2) + abs(y1 - y2) == 1

    @pytest.mark.parametrize("order", range(1, 9))
    def test_curve_runs_from_the_origin_to_the_far_x_corner(self, order):
        last = (1 << (2 * order)) - 1
        assert hilbert_point(order, 0) == (0, 0)
        assert hilbert_point(order, last) == ((1 << order) - 1, 0)
        assert hilbert_index(order, (1 << order) - 1, 0) == last

    @pytest.mark.parametrize("order", range(1, 9))
    def test_position_prefix_is_the_parent_cell(self, order):
        """Dropping the last base-4 digit of a position names the cell one
        order up that contains it — why ``CellId.parent`` is a shift and a
        cell's descendants form one contiguous key range."""
        rng = random.Random(order)
        side = 1 << order
        for _ in range(200):
            x = rng.randrange(side)
            y = rng.randrange(side)
            d = hilbert_index(order, x, y)
            assert hilbert_index(order - 1, x >> 1, y >> 1) == d >> 2
            assert hilbert_point(order - 1, d >> 2) == (x >> 1, y >> 1)


def interleaved(order, x, y):
    """Morton code spelled out bit by bit: y and x alternate from the top."""
    bits = "".join(
        f"{(y >> bit) & 1}{(x >> bit) & 1}" for bit in reversed(range(order))
    )
    return int(bits or "0", 2)


class TestZCurve:
    def test_order_one_layout(self):
        assert z_index(1, 0, 0) == 0
        assert z_index(1, 1, 0) == 1
        assert z_index(1, 0, 1) == 2
        assert z_index(1, 1, 1) == 3

    def test_bijection_small_grid(self):
        codes = {z_index(3, x, y) for x in range(8) for y in range(8)}
        assert codes == set(range(64))

    @pytest.mark.parametrize("order", range(0, 7))
    def test_every_cell_is_the_bit_interleaving(self, order):
        side = 1 << order
        codes = set()
        for x in range(side):
            for y in range(side):
                code = z_index(order, x, y)
                assert code == interleaved(order, x, y)
                codes.add(code)
        assert codes == set(range(side * side))

    def test_out_of_range_rejected(self):
        with pytest.raises(SpatialError):
            z_index(2, 4, 0)

    def test_negative_order_rejected(self):
        with pytest.raises(SpatialError):
            z_index(-1, 0, 0)

    def test_hilbert_needs_fewer_scan_runs_than_z(self):
        """Covering a small square block of cells needs fewer contiguous key
        runs (i.e. fewer range scans) under the Hilbert curve than under the
        Z-curve — the paper's reason for choosing Hilbert."""
        order = 5
        side = 1 << order
        block = 4

        def mean_runs(encoder):
            total = 0
            count = 0
            for x0 in range(0, side - block, 3):
                for y0 in range(0, side - block, 3):
                    keys = sorted(
                        encoder(order, x, y)
                        for x in range(x0, x0 + block)
                        for y in range(y0, y0 + block)
                    )
                    runs = 1 + sum(
                        1 for a, b in zip(keys, keys[1:]) if b != a + 1
                    )
                    total += runs
                    count += 1
            return total / count

        assert mean_runs(hilbert_index) < mean_runs(z_index)
