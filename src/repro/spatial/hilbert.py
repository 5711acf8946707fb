"""Hilbert space-filling curve encoding.

The paper keys the Spatial Index Table with Hilbert-curve indexes because
Hilbert curves preserve locality slightly better than Z-curves (Section
3.2.1, citing Jensen et al.).  The functions below convert between a
``2^order x 2^order`` grid coordinate and the distance ``d`` along the
curve.

**The automaton.**  The classical conversion walks the coordinate bits from
the top: at each level it reads one bit of ``x`` and one of ``y`` (the
quadrant), emits the base-4 digit ``(3 * rx) ^ ry`` and then rotates/flips
the remaining low bits — swap ``x`` and ``y`` when ``ry == 0``, complementing
both first when also ``rx == 1``.  Swapping and complementing commute and are
each their own inverse, so however many levels have been walked, the
accumulated transform is one of four: *swap or not* x *complement or not*.
That makes the walk a 4-state automaton — ``state = swap | invert << 1`` —
with one ``(digit, next state)`` per state and input quadrant
(:func:`_step`), and no coordinate ever has to be rewritten.

**The tables.**  :func:`_build_tables` unrolls the automaton four levels at a
time: ``_INDEX_STEPS[state | x_nibble << 4 | y_nibble]`` holds the eight
digit bits those four levels emit and the state they end in, and
``_POINT_STEPS[state | digit_byte]`` is the same relation read backwards.  An
encode is then ``ceil(order / 4)`` table lookups instead of ``order`` loop
iterations with a rotate call each.  An order that is not a multiple of four
is padded with leading zero levels: a ``(0, 0)`` quadrant emits digit 0 and
toggles *swap*, so starting in state ``order & 1`` (the parity of the padding)
reaches the real top level in state 0 with ``d`` still 0.

Both directions stay **memoized** in front of the tables: the query path
re-encodes the same handful of cells over and over (every NN probe converts
its cell and its neighbours, every FLAG lookup re-keys the query's storage
cell) and an LRU hit is cheaper still than three lookups.  The functions are
pure, so memoization is invisible to callers; invalid arguments still raise
on every call because errors are never cached.  The write path does not come
through here: update locations never repeat, so the location encoder of
:mod:`repro.spatial.cell` walks ``_INDEX_STEPS`` itself, after its own clamp.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from repro.errors import SpatialError

#: Upper bound on memoized encodings per direction.
_CACHE_SIZE = 1 << 12

#: Table entries keep their next state pre-shifted to where the next lookup
#: wants it: bits 8-9 select the 256-entry page of either table.
_STATE_SHIFT = 8
_STATE_MASK = 3 << _STATE_SHIFT


def _step(state: int, bx: int, by: int) -> Tuple[int, int]:
    """One level of the automaton: ``(digit, next state)`` for the quadrant
    ``(bx, by)`` read in ``state`` (``swap | invert << 1``)."""
    if state & 2:
        bx ^= 1
        by ^= 1
    if state & 1:
        bx, by = by, bx
    if by == 0:
        state ^= 1
        if bx == 1:
            state ^= 2
    return (3 * bx) ^ by, state


def _build_tables() -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Unroll :func:`_step` over four levels for every state and nibble pair.

    ``index_steps[state << 8 | xn << 4 | yn] = digits << 10 | next << 8`` and
    ``point_steps[state << 8 | digits] = xn << 14 | yn << 10 | next << 8``.
    """
    index_steps: List[int] = [0] * 1024
    point_steps: List[int] = [0] * 1024
    for start in range(4):
        for xn in range(16):
            for yn in range(16):
                state = start
                digits = 0
                for bit in (3, 2, 1, 0):
                    digit, state = _step(state, (xn >> bit) & 1, (yn >> bit) & 1)
                    digits = digits << 2 | digit
                page = start << _STATE_SHIFT
                after = state << _STATE_SHIFT
                index_steps[page | xn << 4 | yn] = digits << 10 | after
                point_steps[page | digits] = xn << 14 | yn << 10 | after
    return tuple(index_steps), tuple(point_steps)


_INDEX_STEPS, _POINT_STEPS = _build_tables()


@lru_cache(maxsize=_CACHE_SIZE)
def hilbert_index(order: int, x: int, y: int) -> int:
    """Map grid coordinate ``(x, y)`` to its distance along the Hilbert curve.

    ``order`` is the curve order: the grid has ``2^order`` cells per side and
    the returned index lies in ``[0, 4^order)``.
    """
    if order < 0:
        raise SpatialError(f"curve order must be non-negative, got {order}")
    side = 1 << order
    if not (0 <= x < side and 0 <= y < side):
        raise SpatialError(
            f"grid coordinate ({x}, {y}) out of range for order {order}"
        )
    steps = _INDEX_STEPS
    state = (order & 1) << _STATE_SHIFT
    d = 0
    shift = (order + 3) & ~3
    while shift:
        shift -= 4
        entry = steps[state | ((x >> shift) & 15) << 4 | (y >> shift) & 15]
        d = d << 8 | entry >> 10
        state = entry & _STATE_MASK
    return d


@lru_cache(maxsize=_CACHE_SIZE)
def hilbert_point(order: int, d: int) -> Tuple[int, int]:
    """Inverse of :func:`hilbert_index`: curve distance ``d`` to ``(x, y)``."""
    if order < 0:
        raise SpatialError(f"curve order must be non-negative, got {order}")
    if not 0 <= d < 1 << (2 * order):
        raise SpatialError(f"curve index {d} out of range for order {order}")
    steps = _POINT_STEPS
    state = (order & 1) << _STATE_SHIFT
    x = 0
    y = 0
    shift = 2 * ((order + 3) & ~3)
    while shift:
        shift -= 8
        entry = steps[state | (d >> shift) & 255]
        x = x << 4 | entry >> 14
        y = y << 4 | (entry >> 10) & 15
        state = entry & _STATE_MASK
    return x, y
