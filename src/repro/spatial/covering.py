"""Approximate regions by unions of same-level cells.

Section 3.2.1 notes that "an arbitrary region can be approximated by a
collection of cells".  The covering helpers below are used by range queries
(realtime-coupon example), by the clustering pass (enumerating the spatial
cells inside a clustering cell) and by history queries over a region.

Coverings are pure functions of ``(region, level, world)`` and query
workloads repeat shapes constantly (the same coupon region polled each
round, the same probe disc around a hot venue), so the expensive grid
enumeration is memoized in a module-level LRU.  The cached value is an
immutable tuple; the public helpers hand each caller a fresh list so
mutating a result can never corrupt the cache.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from repro.errors import SpatialError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.spatial.cell import CellId, MAX_LEVEL, WORLD_UNIT_BOX
from repro.spatial.hilbert import hilbert_index

#: Bound on distinct (shape, level, world) coverings kept warm.
_CACHE_SIZE = 4096


@lru_cache(maxsize=_CACHE_SIZE)
def _cover_box_codec(
    region: BoundingBox, level: int, world: BoundingBox
) -> Tuple[CellId, ...]:
    """Curve-sorted tuple of level-``level`` cells intersecting ``region``."""
    clipped_min = world.clamp_point(Point(region.min_x, region.min_y))
    clipped_max = world.clamp_point(Point(region.max_x, region.max_y))
    side = 1 << level
    cell_w = world.width / side
    cell_h = world.height / side
    gx_min = _clamp_index((clipped_min.x - world.min_x) / cell_w, side)
    gx_max = _clamp_index((clipped_max.x - world.min_x) / cell_w, side)
    gy_min = _clamp_index((clipped_min.y - world.min_y) / cell_h, side)
    gy_max = _clamp_index((clipped_max.y - world.min_y) / cell_h, side)
    cells = []
    for gx in range(gx_min, gx_max + 1):
        for gy in range(gy_min, gy_max + 1):
            cells.append(CellId(level, hilbert_index(level, gx, gy)))
    cells.sort(key=lambda cell: cell.pos)
    return tuple(cells)


@lru_cache(maxsize=_CACHE_SIZE)
def _cover_circle_codec(
    center: Point, radius: float, level: int, world: BoundingBox
) -> Tuple[CellId, ...]:
    """Curve-sorted tuple of level-``level`` cells intersecting a disc."""
    box = BoundingBox.from_center(center, radius, radius)
    return tuple(
        cell
        for cell in _cover_box_codec(box, level, world)
        if cell.distance_to_point(center, world) <= radius
    )


def cover_box(
    region: BoundingBox,
    level: int,
    world: BoundingBox = WORLD_UNIT_BOX,
) -> List[CellId]:
    """All level-``level`` cells that intersect ``region``.

    The result is sorted by curve position so consecutive cells can be
    coalesced into range scans by the caller.
    """
    if not 0 <= level <= MAX_LEVEL:
        raise SpatialError(f"cover level {level} outside [0, {MAX_LEVEL}]")
    return list(_cover_box_codec(region, level, world))


def cover_circle(
    center: Point,
    radius: float,
    level: int,
    world: BoundingBox = WORLD_UNIT_BOX,
) -> List[CellId]:
    """Level-``level`` cells intersecting the disc around ``center``.

    The covering first takes the bounding-box cells then discards cells whose
    minimum distance to the centre exceeds the radius.
    """
    if radius < 0:
        raise SpatialError(f"radius must be non-negative, got {radius}")
    if not 0 <= level <= MAX_LEVEL:
        raise SpatialError(f"cover level {level} outside [0, {MAX_LEVEL}]")
    return list(_cover_circle_codec(center, radius, level, world))


def _clamp_index(value: float, side: int) -> int:
    index = int(value)
    if index < 0:
        return 0
    if index >= side:
        return side - 1
    return index
