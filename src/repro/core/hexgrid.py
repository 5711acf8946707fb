"""Hexagonal partition of the velocity space (Section 3.3.2).

Clustering projects every leader's velocity into a 2-D velocity space and
partitions that space into identical regular hexagons sized so that "the
maximum distance between two internal points is less than Δm".  For a regular
hexagon the diameter equals twice the circumradius, so the circumradius is
``Δm / 2``.  Mapping a velocity to its hexagon is O(1), which is what makes
the per-cell clustering pass O(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ClusteringError
from repro.geometry.vector import Vector


@dataclass(frozen=True)
class HexGrid:
    """Pointy-top hexagonal grid over the velocity plane."""

    #: Maximum allowed deviation Δm between two velocities in one hexagon.
    max_deviation: float

    def __post_init__(self) -> None:
        if self.max_deviation <= 0:
            raise ClusteringError("the hex grid needs a positive max deviation")

    @property
    def circumradius(self) -> float:
        """Circumradius R of each hexagon (diameter = 2R = Δm)."""
        return self.max_deviation / 2.0

    def bin_of(self, velocity: Vector) -> Tuple[int, int]:
        """Axial coordinates of the hexagon containing ``velocity``.

        Velocities that fall in the same bin differ by at most Δm, the
        paper's criterion for merging their schools.
        """
        size = self.circumradius
        # Pixel -> fractional axial coordinates (pointy-top orientation).
        q = (math.sqrt(3.0) / 3.0 * velocity.dx - velocity.dy / 3.0) / size
        r = (2.0 / 3.0 * velocity.dy) / size
        return _cube_round(q, r)


def _cube_round(q: float, r: float) -> Tuple[int, int]:
    """Round fractional axial coordinates to the nearest hexagon."""
    s = -q - r
    rq = round(q)
    rr = round(r)
    rs = round(s)
    dq = abs(rq - q)
    dr = abs(rr - r)
    ds = abs(rs - s)
    if dq > dr and dq > ds:
        rq = -rr - rs
    elif dr > ds:
        rr = -rq - rs
    return int(rq), int(rr)
