"""Columnar wire codecs for the multiprocess RPC path.

Three stateless batch codecs — updates, queries and the neighbour results
a query batch returns.  Every frame is self-contained: it decodes from its
own bytes (and, for neighbour results, the probe set the caller sent), so
neither side keeps state between frames and a resend re-encodes to the
same bytes.

A neighbour frame carries a *frame-local object table* — one row per
distinct ``(id, position, is_leader, leader)`` in the frame, stored as
columns: varint ids, f64 x and y columns, one flags byte each (bit 0
``is_leader``, bit 1 has-leader) and the leaders' varint ids — then, per
query, its result count and varint references into that table.  About half
the records of a top-k broadcast repeat an object another query of the
same frame already returned, so each distinct object is decoded once.

Distances are never transmitted: ``NeighborResult.distance`` is exactly
``result.location.distance_to(query.location)`` (the searcher computes it
from those same operands), so the decoder reconstructs it bit-for-bit from
the query it already holds.  The encoder *verifies* that identity per
record and, when it does not hold or a record is otherwise off the columnar
shape (non-conforming ids, a non-``Point`` location), ships the whole frame
in the *general* form instead: flag byte 0, then the same list of batches
as one tagged value (:mod:`repro.codec.values`).  A record the tagged codec
cannot carry either (a subclass) is a :class:`~repro.errors.CodecError` at
the encoder.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.codec.columns import (
    check_count,
    read_bitmap,
    read_f64_column,
    read_f64_delta_column,
    read_uvarint,
    write_bitmap,
    write_f64_column,
    write_f64_delta_column,
    write_uvarint,
)
from repro.codec.values import pack_value, unpack_value
from repro.errors import CodecError
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import NeighborResult, UpdateMessage, format_object_id
from repro.workload.queries import NNQuery

_F64 = struct.Struct("<d")
_2F64 = struct.Struct("<2d")

#: First byte of an update / query / neighbour body: the columnar layout,
#: or the *general* frame — the same list as one tagged value — for inputs
#: the columns cannot carry.
FLAG_GENERAL = 0
FLAG_COLUMNAR = 1
_GENERAL = bytes([FLAG_GENERAL])
_COLUMNAR = bytes([FLAG_COLUMNAR])

_OBJ_PREFIX = "obj"
_OBJ_DIGITS = 10


def numeric_object_id(object_id: str) -> Optional[int]:
    """The integer behind ``format_object_id`` ids, or ``None``."""
    if (
        type(object_id) is str
        and len(object_id) == len(_OBJ_PREFIX) + _OBJ_DIGITS
        and object_id.startswith(_OBJ_PREFIX)
        and object_id.isascii()  # "١" and "²" are digits to isdigit()
        and object_id[len(_OBJ_PREFIX):].isdigit()
    ):
        return int(object_id[len(_OBJ_PREFIX):])
    return None


def _general_items(body, kind: type) -> Optional[list]:
    """The list a general frame carries — every item exactly a ``kind`` —
    or ``None`` when the body is columnar."""
    flag = body[0] if len(body) else None
    if flag == FLAG_COLUMNAR:
        return None
    if flag != FLAG_GENERAL:
        raise CodecError(f"unknown batch flag {flag}")
    items = unpack_value(body, 1)
    if type(items) is not list or any(type(item) is not kind for item in items):
        raise CodecError(f"general frame is not a list of {kind.__name__}")
    return items


# --------------------------------------------------------------------------
# Update batches (stateless)
# --------------------------------------------------------------------------


def encode_update_batch(messages: Sequence[UpdateMessage]) -> bytes:
    """One group-commit buffer: columnar, or the general frame when an
    object id does not follow the ``obj%010d`` convention."""
    ids = []
    for message in messages:
        numeric = (
            numeric_object_id(message.object_id)
            if type(message) is UpdateMessage
            else None
        )
        if numeric is None:
            return pack_value(list(messages), _GENERAL)
        ids.append(numeric)
    out = bytearray(_COLUMNAR)
    write_uvarint(out, len(messages))
    for numeric in ids:
        write_uvarint(out, numeric)
    write_f64_column(out, [m.location.x for m in messages])
    write_f64_column(out, [m.location.y for m in messages])
    write_f64_column(out, [m.velocity.dx for m in messages])
    write_f64_column(out, [m.velocity.dy for m in messages])
    write_f64_delta_column(out, [m.timestamp for m in messages])
    return bytes(out)


def decode_update_batch(body) -> List[UpdateMessage]:
    general = _general_items(body, UpdateMessage)
    if general is not None:
        return general
    count, pos = read_uvarint(body, 1)
    check_count(body, pos, count)
    ids = []
    for _ in range(count):
        numeric, pos = read_uvarint(body, pos)
        ids.append(numeric)
    xs, pos = read_f64_column(body, pos, count)
    ys, pos = read_f64_column(body, pos, count)
    dxs, pos = read_f64_column(body, pos, count)
    dys, pos = read_f64_column(body, pos, count)
    timestamps, pos = read_f64_delta_column(body, pos, count)
    return [
        UpdateMessage(
            object_id=format_object_id(ids[i]),
            location=Point(xs[i], ys[i]),
            velocity=Vector(dxs[i], dys[i]),
            timestamp=timestamps[i],
        )
        for i in range(count)
    ]


# --------------------------------------------------------------------------
# Query batches (stateless)
# --------------------------------------------------------------------------


def encode_query_batch(queries: Sequence[NNQuery]) -> bytes:
    """One probe set: columnar, or the general frame for a negative ``k``."""
    for query in queries:
        if type(query) is not NNQuery or query.k < 0:
            return pack_value(list(queries), _GENERAL)
    out = bytearray(_COLUMNAR)
    write_uvarint(out, len(queries))
    write_f64_column(out, [q.location.x for q in queries])
    write_f64_column(out, [q.location.y for q in queries])
    for query in queries:
        write_uvarint(out, query.k)
    has_range = [q.range_limit is not None for q in queries]
    write_bitmap(out, has_range)
    write_f64_column(
        out, [q.range_limit for q in queries if q.range_limit is not None]
    )
    return bytes(out)


def decode_query_batch(body) -> List[NNQuery]:
    general = _general_items(body, NNQuery)
    if general is not None:
        return general
    count, pos = read_uvarint(body, 1)
    xs, pos = read_f64_column(body, pos, count)
    ys, pos = read_f64_column(body, pos, count)
    check_count(body, pos, count)
    ks = []
    for _ in range(count):
        k, pos = read_uvarint(body, pos)
        ks.append(k)
    has_range, pos = read_bitmap(body, pos, count)
    ranges, pos = read_f64_column(body, pos, sum(has_range))
    ranged = iter(ranges)
    return [
        NNQuery(
            location=Point(xs[i], ys[i]),
            k=ks[i],
            range_limit=next(ranged) if has_range[i] else None,
        )
        for i in range(count)
    ]


# --------------------------------------------------------------------------
# Neighbour result batches (stateless)
# --------------------------------------------------------------------------


def encode_neighbor_batches(
    batches: Sequence[Sequence[NeighborResult]], queries: Sequence[Any]
) -> bytes:
    """One response frame for one probe set (``len(batches)`` ==
    ``len(queries)``): columnar, or the general frame for a record the
    columns cannot carry exactly."""
    columnar = _neighbor_columns(batches, queries)
    if columnar is None:
        return pack_value([list(batch) for batch in batches], _GENERAL)
    return columnar


def _neighbor_columns(
    batches: Sequence[Sequence[NeighborResult]], queries: Sequence[Any]
) -> Optional[bytes]:
    """The columnar frame, or ``None`` to ask for the general one."""
    if len(batches) != len(queries):
        return None
    table: Dict[Tuple[str, bytes, bool, Optional[str]], int] = {}
    ids: List[int] = []
    xs: List[float] = []
    ys: List[float] = []
    flags = bytearray()
    leaders: List[int] = []
    refs = bytearray()
    pack = _F64.pack
    pack2 = _2F64.pack
    for batch, query in zip(batches, queries):
        location = getattr(query, "location", None)
        if type(location) is not Point:
            return None
        write_uvarint(refs, len(batch))
        for result in batch:
            if type(result) is not NeighborResult:
                return None
            object_id, position, distance, is_leader, leader_id = result
            if type(position) is not Point:
                return None
            # The identity the decoder rebuilds the distance from, compared
            # bitwise: a NaN rides the columns only with the payload the
            # decoder will compute.
            if pack(position.distance_to(location)) != pack(distance):
                return None
            key = (object_id, pack2(position.x, position.y), is_leader, leader_id)
            ref = table.get(key)
            if ref is None:
                numeric = numeric_object_id(object_id)
                if numeric is None:
                    return None
                flag = 1 if is_leader else 0
                if leader_id is not None:
                    leader = numeric_object_id(leader_id)
                    if leader is None:
                        return None
                    leaders.append(leader)
                    flag |= 2
                ref = table[key] = len(ids)
                ids.append(numeric)
                xs.append(position.x)
                ys.append(position.y)
                flags.append(flag)
            write_uvarint(refs, ref)
    out = bytearray(_COLUMNAR)
    write_uvarint(out, len(batches))
    write_uvarint(out, len(ids))
    for numeric in ids:
        write_uvarint(out, numeric)
    write_f64_column(out, xs)
    write_f64_column(out, ys)
    out += flags
    for leader in leaders:
        write_uvarint(out, leader)
    out += refs
    return bytes(out)


def decode_neighbor_batches(body, queries: Sequence[Any]) -> List[List[NeighborResult]]:
    """The result batches of one response frame; the columnar layout
    recomputes each distance from ``queries``."""
    flag = body[0] if len(body) else None
    if flag == FLAG_GENERAL:
        batches = unpack_value(body, 1)
        if type(batches) is not list or any(
            type(batch) is not list
            or any(type(result) is not NeighborResult for result in batch)
            for batch in batches
        ):
            raise CodecError("general frame is not a list of result batches")
        return batches
    if flag != FLAG_COLUMNAR:
        raise CodecError(f"unknown neighbour frame flag {flag}")
    num_batches, pos = read_uvarint(body, 1)
    if num_batches != len(queries):
        raise CodecError(f"{num_batches} result batches for {len(queries)} queries")
    count, pos = read_uvarint(body, pos)
    check_count(body, pos, count, 18)  # id varint, x, y, flags
    ids = []
    for _ in range(count):
        numeric, pos = read_uvarint(body, pos)
        ids.append(numeric)
    xs, pos = read_f64_column(body, pos, count)
    ys, pos = read_f64_column(body, pos, count)
    check_count(body, pos, count)
    flags = bytes(body[pos : pos + count])
    pos += count
    if max(flags, default=0) > 3:
        raise CodecError(f"unknown neighbour flag bits {max(flags):#x}")
    rows = []
    for numeric, x, y, flag in zip(ids, xs, ys, flags):
        if flag & 2:
            leader, pos = read_uvarint(body, pos)
            leader_id = format_object_id(leader)
        else:
            leader_id = None
        rows.append((format_object_id(numeric), Point(x, y), bool(flag & 1), leader_id))
    new = tuple.__new__
    batches: List[List[NeighborResult]] = []
    for query in queries:
        location = query.location
        size, pos = read_uvarint(body, pos)
        check_count(body, pos, size)
        batch = []
        for _ in range(size):
            ref, pos = read_uvarint(body, pos)
            if ref >= count:
                raise CodecError(f"reference {ref} past a {count}-row object table")
            object_id, point, is_leader, leader_id = rows[ref]
            distance = point.distance_to(location)
            batch.append(
                new(NeighborResult, (object_id, point, distance, is_leader, leader_id))
            )
        batches.append(batch)
    if pos != len(body):
        raise CodecError(f"{len(body) - pos} stray bytes after the result batches")
    return batches
