"""Z-order (Morton) curve encoding.

The Z-curve is the alternative space-filling curve the paper mentions in
Section 3.2.1 ("other encodings such as Z-curves are also applicable ...
Hilbert Curves perform slightly better").  It is included so the locality
ablation benchmark can compare range-scan behaviour of the two curves on the
same Spatial Index Table layout.
"""

from __future__ import annotations

from repro.errors import SpatialError


def z_index(order: int, x: int, y: int) -> int:
    """Interleave the bits of ``(x, y)`` into a Morton code."""
    if order < 0:
        raise SpatialError(f"curve order must be non-negative, got {order}")
    side = 1 << order
    if not (0 <= x < side and 0 <= y < side):
        raise SpatialError(
            f"grid coordinate ({x}, {y}) out of range for order {order}"
        )
    code = 0
    for bit in range(order):
        code |= ((x >> bit) & 1) << (2 * bit)
        code |= ((y >> bit) & 1) << (2 * bit + 1)
    return code

