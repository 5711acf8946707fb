"""Tests for repro.spatial.cell."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import SpatialError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.spatial.cell import (
    CellId,
    MAX_LEVEL,
    edge_neighbor_positions,
    row_key_encoder,
)
from repro.spatial.hilbert import hilbert_index, hilbert_point

WORLD = BoundingBox(0.0, 0.0, 100.0, 100.0)

levels = st.integers(min_value=1, max_value=10)
unit_coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestConstruction:
    def test_invalid_level_rejected(self):
        with pytest.raises(SpatialError):
            CellId(MAX_LEVEL + 1, 0)
        with pytest.raises(SpatialError):
            CellId(-1, 0)

    def test_invalid_position_rejected(self):
        with pytest.raises(SpatialError):
            CellId(1, 4)
        with pytest.raises(SpatialError):
            CellId(2, -1)

    def test_from_point_level_zero_is_root(self):
        assert CellId.from_point(Point(0.3, 0.7), 0) == CellId(0, 0)

    def test_from_point_clamps_outside_points(self):
        outside = CellId.from_point(Point(150.0, -10.0), 4, WORLD)
        inside = CellId.from_point(Point(100.0, 0.0), 4, WORLD)
        assert outside == inside

    def test_level_and_world_are_validated_where_the_encoder_is_built(self):
        for level in (-1, MAX_LEVEL + 1):
            with pytest.raises(SpatialError):
                CellId.from_xy(0.5, 0.5, level)
            with pytest.raises(SpatialError):
                row_key_encoder(level)
        flat = BoundingBox(0.0, 0.0, 10.0, 0.0)
        unbounded = BoundingBox(0.0, 0.0, float("inf"), 1.0)
        for world in (flat, unbounded):
            with pytest.raises(SpatialError):
                CellId.from_xy(0.0, 0.0, 4, world)
            with pytest.raises(SpatialError):
                row_key_encoder(4, world)

    def test_coordinate_that_is_not_a_number_is_a_typed_error(self):
        nan = float("nan")
        encode = row_key_encoder(6, WORLD)
        for x, y in ((nan, 1.0), (1.0, nan), (nan, nan)):
            for _ in range(2):  # the error is raised on every call
                with pytest.raises(SpatialError):
                    CellId.from_xy(x, y, 6, WORLD)
                with pytest.raises(SpatialError):
                    encode(x, y)

    def test_from_token_round_trip(self):
        cell = CellId.from_point(Point(42.0, 17.0), 6, WORLD)
        assert CellId.from_token(cell.key_range()[0], 6) == cell

    def test_from_token_misaligned_rejected(self):
        cell = CellId.from_point(Point(42.0, 17.0), 6, WORLD)
        child = cell.children()[1]
        with pytest.raises(SpatialError):
            CellId.from_token(child.key_range()[0], 5)


def _reference_grid(value, low, high, side):
    """Clamp and grid step of the derivation every stored key was made with
    (``CellId.from_xy`` before the fused encoder): clamp, divide, scale."""
    if value < low:
        value = low
    elif value > high:
        value = high
    index = int((value - low) / (high - low) * side)
    return max(0, min(index, side - 1))


@st.composite
def worlds_and_locations(draw):
    origin = st.floats(min_value=-1e9, max_value=1e9)
    extent = st.floats(min_value=1e-6, max_value=1e9)
    min_x, min_y = draw(origin), draw(origin)
    world = BoundingBox(min_x, min_y, min_x + draw(extent), min_y + draw(extent))
    assume(world.max_x > world.min_x and world.max_y > world.min_y)

    def coordinate(low, high):
        return draw(
            st.one_of(
                st.floats(min_value=low, max_value=high),  # inside
                st.sampled_from([low, high]),  # on a border
                st.floats(allow_nan=False, allow_infinity=False),  # anywhere
                st.sampled_from([0.0, -0.0, float("inf"), -float("inf")]),
            )
        )

    return (
        world,
        coordinate(world.min_x, world.max_x),
        coordinate(world.min_y, world.max_y),
    )


class TestEncoder:
    """The fused clamp -> grid -> Hilbert walk is the old three-step route."""

    @settings(max_examples=400)
    @given(st.integers(min_value=1, max_value=MAX_LEVEL), worlds_and_locations())
    def test_encoder_is_the_old_derivation(self, level, case):
        world, x, y = case
        side = 1 << level
        gx = _reference_grid(x, world.min_x, world.max_x, side)
        gy = _reference_grid(y, world.min_y, world.max_y, side)
        cell = CellId.from_xy(x, y, level, world)
        assert cell == CellId(level, hilbert_index(level, gx, gy))
        encode = row_key_encoder(level, world)
        key = encode(x, y)
        assert key == cell.key_range()[0]
        # Interned: the same string object from either route, every time.
        assert key is cell.key_range()[0]
        assert encode(x, y) is key
        assert row_key_encoder(level, world)(x, y) is key


class TestHierarchy:
    def test_parent_contains_child(self):
        cell = CellId.from_point(Point(10.0, 20.0), 6, WORLD)
        assert cell in cell.parent().children()
        assert cell.parent(2).to_box(WORLD).contains_point(cell.center(WORLD))

    def test_children_are_contained_and_distinct(self):
        cell = CellId.from_point(Point(10.0, 20.0), 4, WORLD)
        children = cell.children()
        assert len(set(children)) == 4
        for child in children:
            assert child.parent() == cell

    def test_parent_invalid_level(self):
        with pytest.raises(SpatialError):
            CellId(3, 5).parent(4)

    def test_children_at_max_level_rejected(self):
        with pytest.raises(SpatialError):
            CellId(MAX_LEVEL, 0).children()

    @given(levels, unit_coords, unit_coords)
    def test_from_point_consistent_across_levels(self, level, x, y):
        """The cell at level l containing a point is the parent of the cell
        at level l+1 containing the same point."""
        point = Point(x, y)
        coarse = CellId.from_point(point, level)
        fine = CellId.from_point(point, level + 1)
        assert fine.parent() == coarse


class TestKeys:
    def test_key_is_fixed_width_hex(self):
        key = CellId(4, 7).key_range()[0]
        assert len(key) == 12
        int(key, 16)  # must parse as hexadecimal

    def test_key_range_covers_descendants(self):
        cell = CellId.from_point(Point(50.0, 50.0), 4, WORLD)
        start, end = cell.key_range()
        for child in cell.children():
            assert start <= child.key_range()[0] < end

    def test_key_range_excludes_siblings(self):
        cell = CellId(4, 7)
        sibling = CellId(4, 8)
        start, end = cell.key_range()
        assert not (start <= sibling.key_range()[0] < end)

    def test_last_cell_key_range_uses_sentinel(self):
        last = CellId(1, 3)
        start, end = last.key_range()
        assert start < end
        # Every key of its descendants still sorts below the end bound.
        deepest = CellId(3, 4**3 - 1)
        assert deepest.key_range()[0] < end

    def test_same_level_keys_are_ordered_by_position(self):
        keys = [CellId(5, pos).key_range()[0] for pos in range(32)]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("level", range(0, 6))
    def test_children_key_ranges_tile_the_parent_range(self, level):
        """The four children's ranges abut in curve order and span exactly
        the parent's range — the last cell of the curve included."""
        last = (1 << (2 * level)) - 1
        for pos in sorted({0, last // 2, last}):
            cell = CellId(level, pos)
            ranges = [child.key_range() for child in cell.children()]
            assert ranges[0][0] == cell.key_range()[0]
            assert ranges[-1][1] == cell.key_range()[1]
            for (_, end), (start, _) in zip(ranges, ranges[1:]):
                assert end == start

    @pytest.mark.parametrize("level", [0, 1, 7, 12, MAX_LEVEL - 1, MAX_LEVEL])
    def test_from_token_round_trip_at_every_level(self, level):
        for point in (Point(0.0, 0.0), Point(37.5, 81.25), Point(100.0, 100.0)):
            cell = CellId.from_point(point, level, WORLD)
            assert CellId.from_token(cell.key_range()[0], level) == cell


class TestGeometry:
    def test_to_box_tiles_the_world(self):
        level = 3
        boxes = [CellId(level, pos).to_box(WORLD) for pos in range(4**level)]
        total_area = sum(box.width * box.height for box in boxes)
        assert total_area == pytest.approx(WORLD.width * WORLD.height)

    def test_center_is_inside_cell_box(self):
        cell = CellId.from_point(Point(33.0, 66.0), 5, WORLD)
        assert cell.to_box(WORLD).contains_point(cell.center(WORLD))

    def test_from_point_box_contains_point(self):
        point = Point(12.3, 45.6)
        cell = CellId.from_point(point, 7, WORLD)
        assert cell.to_box(WORLD).contains_point(point)

    def test_distance_to_contained_point_is_zero(self):
        point = Point(12.3, 45.6)
        cell = CellId.from_point(point, 7, WORLD)
        assert cell.distance_to_point(point, WORLD) == 0.0

    def test_distance_to_far_point_positive(self):
        cell = CellId.from_point(Point(10.0, 10.0), 5, WORLD)
        assert cell.distance_to_point(Point(90.0, 90.0), WORLD) > 0.0

    @pytest.mark.parametrize("level", range(0, 5))
    def test_box_extent_follows_a_non_square_world(self, level):
        world = BoundingBox(-40.0, 10.0, 60.0, 35.0)
        side = 1 << level
        for pos in range(4**level):
            box = CellId(level, pos).to_box(world)
            assert box.width == pytest.approx(world.width / side)
            assert box.height == pytest.approx(world.height / side)
            assert world.contains_point(box.center())

    @given(
        st.integers(min_value=0, max_value=10),
        st.data(),
        st.floats(min_value=-50.0, max_value=150.0),
        st.floats(min_value=-50.0, max_value=150.0),
    )
    def test_distance_is_the_box_distance(self, level, data, x, y):
        """The allocation-free clamp-and-measure equals the distance to the
        cell's box, the NN pruning bound."""
        cell = CellId(level, data.draw(st.integers(0, 4**level - 1)))
        point = Point(x, y)
        assert cell.distance_to_point(point, WORLD) == pytest.approx(
            cell.to_box(WORLD).distance_to_point(point), abs=1e-9
        )


def edge_neighbors(cell):
    """The cells :func:`edge_neighbor_positions` names around ``cell``."""
    return [CellId(cell.level, pos) for pos in edge_neighbor_positions(cell.level, cell.pos)]


class TestNeighbors:
    def test_interior_cell_has_four_edge_neighbors(self):
        cell = CellId.from_point(Point(50.0, 50.0), 5, WORLD)
        assert len(edge_neighbors(cell)) == 4

    def test_corner_cell_has_two_edge_neighbors(self):
        corner = CellId.from_point(Point(0.0, 0.0), 5, WORLD)
        assert len(edge_neighbors(corner)) == 2

    def test_edge_neighbors_share_an_edge(self):
        cell = CellId.from_point(Point(50.0, 50.0), 5, WORLD)
        gx, gy = hilbert_point(cell.level, cell.pos)
        for neighbor in edge_neighbors(cell):
            nx, ny = hilbert_point(neighbor.level, neighbor.pos)
            assert abs(gx - nx) + abs(gy - ny) == 1

    def test_all_neighbors_includes_diagonals(self):
        cell = CellId.from_point(Point(50.0, 50.0), 5, WORLD)
        assert len(cell.all_neighbors()) == 8

    @pytest.mark.parametrize(
        "gx, gy, edge, every",
        [
            (0, 0, 2, 3),
            (0, 7, 2, 3),
            (7, 0, 2, 3),
            (7, 7, 2, 3),
            (0, 3, 3, 5),
            (7, 4, 3, 5),
            (2, 0, 3, 5),
            (5, 7, 3, 5),
            (3, 4, 4, 8),
        ],
    )
    def test_neighbor_counts_by_grid_position(self, gx, gy, edge, every):
        """Corner, border and interior cells of a level-3 grid have the
        4- and 8-neighbourhoods the world border leaves them."""
        cell = CellId(3, hilbert_index(3, gx, gy))
        assert len(edge_neighbors(cell)) == edge
        assert len(cell.all_neighbors()) == every
        assert set(edge_neighbors(cell)) <= set(cell.all_neighbors())
        for neighbor in cell.all_neighbors():
            nx, ny = hilbert_point(3, neighbor.pos)
            assert max(abs(gx - nx), abs(gy - ny)) == 1

    def test_root_cell_has_no_neighbors(self):
        assert edge_neighbors(CellId(0, 0)) == []

    def test_neighbor_relation_is_symmetric(self):
        cell = CellId.from_point(Point(23.0, 71.0), 6, WORLD)
        for neighbor in edge_neighbors(cell):
            assert cell in edge_neighbors(neighbor)
