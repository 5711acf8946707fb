"""Shared test helpers, imported explicitly (``from helpers import ...``).

These used to live in ``tests/conftest.py``, but ``from conftest import``
resolves through ``sys.path`` and could pick up ``benchmarks/conftest.py``
instead, depending on which directory pytest inserted first.  A dedicated
module keeps the import unambiguous.
"""

from __future__ import annotations

from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import UpdateMessage, format_object_id
from repro.spatial.cell import CellId


def make_update(
    index: int,
    x: float,
    y: float,
    vx: float = 1.0,
    vy: float = 0.0,
    t: float = 0.0,
) -> UpdateMessage:
    """Convenience constructor used across many tests."""
    return UpdateMessage(
        object_id=format_object_id(index),
        location=Point(x, y),
        velocity=Vector(vx, vy),
        timestamp=t,
    )


def cell_for(spatial_table, location: Point) -> CellId:
    """The storage-level cell of a spatial index table containing
    ``location`` (the cell whose key range holds its row)."""
    return CellId.from_xy(
        location.x, location.y, spatial_table.storage_level, spatial_table.world
    )
