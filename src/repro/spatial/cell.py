"""Hierarchical Hilbert-curve cells.

A :class:`CellId` identifies one square cell of the recursive decomposition
described in Section 3.2.1: at level ``l`` the world square is divided into a
``2^l x 2^l`` grid and each cell is numbered by its position along the
Hilbert curve of order ``l``.

Two properties of this numbering drive the whole design:

* **Locality** — nearby cells get nearby curve positions, so the Spatial
  Index Table (keyed by curve position) keeps nearby objects in nearby rows.
* **Prefix ranges** — all level-``MAX_LEVEL`` descendants of a level-``l``
  cell form one contiguous interval of curve positions.  A cell's *key
  range* is that interval, which is exactly the contiguous row range the
  nearest-neighbour search scans per NN cell (Section 3.4.1).

The conversions between cells, row-key tokens, world boxes and neighbour
sets are pure functions of ``(level, pos)`` and are **memoized** at module
level: one NN query touches the same cells through its priority queue many
times (key range for the scan, box for the distance bound, neighbours for
expansion), and the caches turn each re-derivation into a dict hit.  Boxes
are memoized per ``(level, world)`` and then per position, and neighbours
are curve positions, so the NN search's inner loop hashes ints only.  Key
tokens are additionally ``sys.intern``-ed so the row-key dictionaries of the
storage layer compare them by pointer.

The opposite direction — a location to its cell or storage row key — is
memoized nowhere: fresh locations never repeat, so the write path derives
its key directly.  :func:`_xy_encoder` is the one implementation of clamp →
grid coordinate → Hilbert walk, built (and its level and world validated)
once per ``(level, world)``; :meth:`CellId.from_xy` and
:func:`row_key_encoder` both sit on it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

from repro.errors import SpatialError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.spatial.hilbert import (
    _INDEX_STEPS,
    _STATE_MASK,
    _STATE_SHIFT,
    hilbert_index,
    hilbert_point,
)

#: Finest decomposition level supported.  2^24 cells per side is ~6 cm
#: resolution on a 1,000 km world edge, far finer than any experiment needs.
MAX_LEVEL = 24

#: The canonical normalised world of the paper's formalisation (Section
#: 3.2.1 maps locations into [0, 1]^2).
WORLD_UNIT_BOX = BoundingBox(0.0, 0.0, 1.0, 1.0)

#: Width of the zero-padded hexadecimal row-key token.  4^24 fits in 48 bits,
#: i.e. 12 hex digits.
_KEY_WIDTH = (2 * MAX_LEVEL + 3) // 4

#: ``_KEY_FORMAT % position`` is the row-key token of a MAX_LEVEL position.
_KEY_FORMAT = f"%0{_KEY_WIDTH}x"

#: Bound on the memoized codec caches (distinct cells seen by a run).
_CACHE_SIZE = 1 << 16


@dataclass(frozen=True, order=True)
class CellId:
    """One cell of the hierarchical decomposition.

    The sort order is ``(level, pos)`` which keeps same-level cells in curve
    order; cross-level comparisons are only used for deterministic tie
    breaking inside priority queues.
    """

    __slots__ = ("level", "pos")

    level: int
    pos: int

    def __reduce__(self):
        # Frozen + __slots__ defeats default pickling; reconstruct through
        # the constructor so cell ids survive the multiprocess RPC wire.
        return (CellId, (self.level, self.pos))

    def __post_init__(self) -> None:
        if not 0 <= self.level <= MAX_LEVEL:
            raise SpatialError(
                f"cell level {self.level} outside [0, {MAX_LEVEL}]"
            )
        if not 0 <= self.pos < (1 << (2 * self.level)):
            raise SpatialError(
                f"cell position {self.pos} out of range for level {self.level}"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_point(
        cls, point: Point, level: int, world: BoundingBox = WORLD_UNIT_BOX
    ) -> "CellId":
        """Cell at ``level`` containing ``point`` (points outside the world
        are clamped onto its border, mirroring how a GPS fix just outside the
        indexed region would be snapped to the nearest indexed cell)."""
        return cls.from_xy(point.x, point.y, level, world)

    @classmethod
    def from_xy(
        cls, x: float, y: float, level: int, world: BoundingBox = WORLD_UNIT_BOX
    ) -> "CellId":
        """:meth:`from_point` on bare coordinates — the tables store
        ``(x, y)`` pairs, and the hot update/query paths call this per
        message, where a ``Point`` per call is pure allocator traffic."""
        return cls(level, _position_encoder(level, world)(x, y))

    @classmethod
    def from_token(cls, token: str, level: int) -> "CellId":
        """Reconstruct a cell from a row-key token produced by :meth:`key`."""
        min_pos = int(token, 16)
        shift = 2 * (MAX_LEVEL - level)
        if min_pos % (1 << shift):
            raise SpatialError(
                f"token {token!r} is not aligned to a level-{level} cell"
            )
        return cls(level, min_pos >> shift)

    # ------------------------------------------------------------------
    # Hierarchy
    # ------------------------------------------------------------------
    def parent(self, level: Optional[int] = None) -> "CellId":
        """Ancestor at ``level`` (default: the immediate parent)."""
        target = self.level - 1 if level is None else level
        if target < 0 or target > self.level:
            raise SpatialError(
                f"invalid parent level {target} for a level-{self.level} cell"
            )
        return CellId(target, self.pos >> (2 * (self.level - target)))

    def children(self) -> List["CellId"]:
        """The four level ``level+1`` cells contained in this cell."""
        if self.level >= MAX_LEVEL:
            raise SpatialError("cannot subdivide a cell at MAX_LEVEL")
        base = self.pos << 2
        return [CellId(self.level + 1, base + i) for i in range(4)]

    # ------------------------------------------------------------------
    # Row keys
    # ------------------------------------------------------------------
    def key_range(self) -> Tuple[str, str]:
        """Half-open row-key interval ``[start, end)`` covering this cell.

        ``start`` is the cell's fixed-width hexadecimal row-key token
        (memoized and interned).  Lexicographic order of tokens equals
        numeric order of curve positions, so a BigTable range scan over the
        interval returns exactly the rows of this cell's descendants.
        """
        return _key_codec(self.level, self.pos)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def to_box(self, world: BoundingBox = WORLD_UNIT_BOX) -> BoundingBox:
        """The rectangle this cell occupies in world coordinates."""
        return cell_box_lookup(self.level, world)(self.pos)

    def center(self, world: BoundingBox = WORLD_UNIT_BOX) -> Point:
        """Centre point of the cell in world coordinates."""
        return self.to_box(world).center()

    def distance_to_point(
        self, point: Point, world: BoundingBox = WORLD_UNIT_BOX
    ) -> float:
        """Shortest distance from any point of the cell to ``point``.

        Lower-bounds the distance of every object indexed under this cell,
        which is the pruning rule of the NN search (Algorithm 2, line 7).
        """
        box = cell_box_lookup(self.level, world)(self.pos)
        return box_distance(box, point.x, point.y)

    def all_neighbors(self) -> List["CellId"]:
        """Same-level cells sharing an edge or a corner (8-neighbourhood)."""
        return list(_all_neighbors_codec(self.level, self.pos))

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"CellId(level={self.level}, pos={self.pos})"


# ----------------------------------------------------------------------
# Memoized codecs (pure functions of the cell identity)
# ----------------------------------------------------------------------
@lru_cache(maxsize=_CACHE_SIZE)
def _key_codec(level: int, pos: int) -> Tuple[str, str]:
    """Interned ``(start_key, end_key)`` of the cell's row-key interval."""
    shift = 2 * (MAX_LEVEL - level)
    start = sys.intern(_KEY_FORMAT % (pos << shift))
    end_pos = (pos + 1) << shift
    if end_pos >= (1 << (2 * MAX_LEVEL)):
        # The last cell of the curve: use a sentinel that sorts after
        # every valid fixed-width hexadecimal key.
        end = sys.intern("g" * _KEY_WIDTH)
    else:
        end = sys.intern(_KEY_FORMAT % end_pos)
    return start, end


@lru_cache(maxsize=256)
def cell_box_lookup(
    level: int, world: BoundingBox
) -> Callable[[int], BoundingBox]:
    """``box(pos)``: the world-coordinate rectangle of the level-``level``
    cell at curve position ``pos``, memoized per position.  Kept per
    ``(level, world)``, like :func:`_position_encoder`, so a lookup hashes
    one int and never the world box."""
    side = 1 << level
    cell_w = world.width / side
    cell_h = world.height / side
    min_x = world.min_x
    min_y = world.min_y

    @lru_cache(maxsize=_CACHE_SIZE)
    def box(pos: int) -> BoundingBox:
        gx, gy = (0, 0) if level == 0 else hilbert_point(level, pos)
        return BoundingBox(
            min_x + gx * cell_w,
            min_y + gy * cell_h,
            min_x + (gx + 1) * cell_w,
            min_y + (gy + 1) * cell_h,
        )

    return box


def box_distance(box: BoundingBox, x: float, y: float) -> float:
    """Shortest distance from ``box`` to ``(x, y)``, 0 inside it.

    Clamp-and-measure without the intermediate Point: |clamped - p|
    componentwise equals the distance to the nearest box edge."""
    if x < box.min_x:
        dx = box.min_x - x
    elif x > box.max_x:
        dx = box.max_x - x
    else:
        dx = 0.0
    if y < box.min_y:
        dy = box.min_y - y
    elif y > box.max_y:
        dy = box.max_y - y
    else:
        dy = 0.0
    return math.hypot(dx, dy)


@lru_cache(maxsize=_CACHE_SIZE)
def edge_neighbor_positions(level: int, pos: int) -> Tuple[int, ...]:
    """Curve positions of the same-level cells sharing an edge with the
    cell at ``pos`` (same construction order as the seed).  Cells on the
    world border have fewer than four; the NN search expands whatever
    exist (Algorithm 2, line 19)."""
    if level == 0:
        return ()
    side = 1 << level
    gx, gy = hilbert_point(level, pos)
    neighbors = []
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        nx = gx + dx
        ny = gy + dy
        if 0 <= nx < side and 0 <= ny < side:
            neighbors.append(hilbert_index(level, nx, ny))
    return tuple(neighbors)


@lru_cache(maxsize=_CACHE_SIZE)
def _all_neighbors_codec(level: int, pos: int) -> Tuple[CellId, ...]:
    """8-neighbourhood of one cell (same construction order as the seed)."""
    if level == 0:
        return ()
    side = 1 << level
    gx, gy = hilbert_point(level, pos)
    neighbors = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            nx = gx + dx
            ny = gy + dy
            if 0 <= nx < side and 0 <= ny < side:
                neighbors.append(CellId(level, hilbert_index(level, nx, ny)))
    return tuple(neighbors)


def _xy_encoder(
    level: int, world: BoundingBox, as_key: bool
) -> Callable[[float, float], object]:
    """Build ``encode(x, y)`` for one decomposition level of one world.

    ``encode`` clamps the location onto the world (a GPS fix just outside the
    indexed region snaps to the nearest indexed cell; a coordinate that is
    not a number raises :class:`SpatialError`), maps it onto the
    ``2^level x 2^level`` grid and walks the Hilbert automaton of
    :mod:`repro.spatial.hilbert` four levels per table lookup.  It returns
    the level-``level`` curve position, or with ``as_key`` the interned
    row-key token of that cell — ``CellId(level, position).key_range()[0]``
    without the cell.  The level and the world are validated here, once.
    """
    if not 0 <= level <= MAX_LEVEL:
        raise SpatialError(f"cell level {level} outside [0, {MAX_LEVEL}]")
    min_x = world.min_x
    min_y = world.min_y
    max_x = world.max_x
    max_y = world.max_y
    width = max_x - min_x
    height = max_y - min_y
    if not (0 < width < math.inf and 0 < height < math.inf):
        raise SpatialError(f"world box {world} has no positive finite extent")
    side = 1 << level
    last = side - 1
    steps = _INDEX_STEPS
    # Orders that are not a multiple of four start in the state their
    # leading zero padding would have reached (see the hilbert module).
    start_state = (level & 1) << _STATE_SHIFT
    shifts = tuple(range(((level + 3) & ~3) - 4, -1, -4))
    key_shift = 2 * (MAX_LEVEL - level)
    intern = sys.intern

    def encode(x: float, y: float):
        if not min_x <= x <= max_x:
            x = _clamp(x, min_x, max_x)
        if not min_y <= y <= max_y:
            y = _clamp(y, min_y, max_y)
        # Divide first, then scale: the float order every stored key was
        # derived with.  A location on the far border lands one past the
        # last cell and is pulled back in.
        gx = int((x - min_x) / width * side)
        if gx > last:
            gx = last
        gy = int((y - min_y) / height * side)
        if gy > last:
            gy = last
        state = start_state
        position = 0
        for shift in shifts:
            entry = steps[state | ((gx >> shift) & 15) << 4 | (gy >> shift) & 15]
            position = position << 8 | entry >> 10
            state = entry & _STATE_MASK
        if as_key:
            return intern(_KEY_FORMAT % (position << key_shift))
        return position

    return encode


def _clamp(value: float, low: float, high: float) -> float:
    """Snap an out-of-world coordinate onto the border it lies beyond."""
    if value < low:
        return low
    if value > high:
        return high
    raise SpatialError(f"coordinate {value!r} is not a number")


@lru_cache(maxsize=256)
def _position_encoder(
    level: int, world: BoundingBox
) -> Callable[[float, float], int]:
    """The ``(x, y) -> curve position`` encoder behind
    :meth:`CellId.from_xy`, kept per ``(level, world)``: a handful of worlds
    times at most ``MAX_LEVEL + 1`` levels."""
    return _xy_encoder(level, world, False)


def row_key_encoder(
    level: int, world: BoundingBox = WORLD_UNIT_BOX
) -> Callable[[float, float], str]:
    """``encode(x, y)`` returning the interned row key of the level-``level``
    cell containing ``(x, y)`` — equal to, and the same string object as,
    ``CellId.from_xy(x, y, level, world).key_range()[0]``.  Raises
    :class:`SpatialError` for a level outside ``[0, MAX_LEVEL]`` or a world
    without extent."""
    return _xy_encoder(level, world, True)
