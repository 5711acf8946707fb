"""The one self-describing value encoding: a tag byte, then a compact body.

Cell values, commit-log payloads, snapshot metadata, dedup-window entries
and every generic RPC body (CALL arguments and results, the general update /
query / neighbour frames) are this codec and nothing else.  What it cannot
tag it refuses: there is no fallback encoding.

====  =================  ==============================================
tag   type               body
====  =================  ==============================================
0     (retired)          was the opaque any-object fallback; never
                         written, rejected when read, never reused
1–3   None, False, True  —
4     int                zigzag varint
5     float              f64
6     str                uvarint length, utf-8
7     bytes              uvarint length, raw
8, 9  tuple, list        uvarint count, tagged items
10    dict               uvarint count, tagged key/value pairs
11    Point              2 x f64
12    Vector             2 x f64
13    LocationRecord     5 x f64: x, y, dx, dy, timestamp
14    LFRecord           role byte, f64 timestamp; a follower adds its
                         leader id (str) and displacement (2 x f64)
15    NeighborResult     id (str), 3 x f64: x, y, distance; flag byte
                         (bit 0 is_leader, bit 1 has a leader id), then
                         the leader id (str) when flagged
16    tuple of floats    uvarint count, count x f64 — rows at rest; only
                         when every item is exactly ``float`` (an ``int``
                         or ``bool`` inside keeps tag 8, and its type)
17    record             uvarint type id, then the dataclass's fields in
                         declared order, each a tagged value
18    enum member        uvarint type id, uvarint index in definition order
====  =================  ==============================================

Tags 17 and 18 resolve their type ids against the closed table in
:mod:`repro.codec.records` — the frozen dataclasses that cross a CALL — and
a decoder can instantiate nothing outside it.

Type dispatch is on ``type(obj)`` exactly (no ``isinstance``), for records
down to their fields: a subclass may carry extra state a structural
re-encode would drop, and an ``int`` timestamp would come back a ``float``,
so anything off the declared shapes is a :class:`~repro.errors.CodecError`
raised where it is encoded — at the sender, never on the far side.  The
decoder raises the same error for truncated bytes, a count larger than the
bytes that remain, an unknown tag or tag 0.  Tags are append-only: existing
tags keep their bytes.
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.codec.columns import check_count, read_str, read_svarint, read_uvarint, write_str, write_svarint, write_uvarint
from repro.errors import CodecError
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import LocationRecord, NeighborResult
from repro.tables.affiliation_table import LEADER_CODE, LFRecord, Role

_F64 = struct.Struct("<d")
_2F64 = struct.Struct("<2d")
_3F64 = struct.Struct("<3d")
_5F64 = struct.Struct("<5d")

TAG_NONE = 1
TAG_FALSE = 2
TAG_TRUE = 3
TAG_INT = 4
TAG_FLOAT = 5
TAG_STR = 6
TAG_BYTES = 7
TAG_TUPLE = 8
TAG_LIST = 9
TAG_DICT = 10
TAG_POINT = 11
TAG_VECTOR = 12
TAG_LOCATION_RECORD = 13
TAG_LF_RECORD = 14
TAG_NEIGHBOR = 15
TAG_FLOAT_TUPLE = 16
TAG_RECORD = 17
TAG_ENUM = 18

_ALL_FLOAT = {float}
_ROW_PACKERS = {2: _2F64.pack, 5: _5F64.pack}
_NONE = type(None)
_LEADER_KINDS = (str, float, _NONE, _NONE, _NONE)
_FOLLOWER_KINDS = (str, float, str, float, float)


def encode_value(out: bytearray, obj: object) -> None:
    kind = type(obj)
    # Rows at rest (tuples), timestamps and keys are the hot shapes.
    if kind is tuple:
        if set(map(type, obj)) == _ALL_FLOAT:
            count = len(obj)
            pack = _ROW_PACKERS.get(count)  # the two row widths, precompiled
            out.append(TAG_FLOAT_TUPLE)
            write_uvarint(out, count)
            out += pack(*obj) if pack else struct.pack(f"<{count}d", *obj)
        else:
            out.append(TAG_TUPLE)
            write_uvarint(out, len(obj))
            for item in obj:
                encode_value(out, item)
    elif kind is float:
        out.append(TAG_FLOAT)
        out += _F64.pack(obj)
    elif kind is str:
        out.append(TAG_STR)
        write_str(out, obj)
    elif obj is None:
        out.append(TAG_NONE)
    elif kind is bool:
        out.append(TAG_TRUE if obj else TAG_FALSE)
    elif kind is int:
        out.append(TAG_INT)
        write_svarint(out, obj)
    elif kind is bytes:
        out.append(TAG_BYTES)
        write_uvarint(out, len(obj))
        out += obj
    elif kind is list:
        out.append(TAG_LIST)
        write_uvarint(out, len(obj))
        for item in obj:
            encode_value(out, item)
    elif kind is dict:
        out.append(TAG_DICT)
        write_uvarint(out, len(obj))
        for key, value in obj.items():
            encode_value(out, key)
            encode_value(out, value)
    elif kind is Point:
        out.append(TAG_POINT)
        out += _F64.pack(obj.x)
        out += _F64.pack(obj.y)
    elif kind is Vector:
        out.append(TAG_VECTOR)
        out += _F64.pack(obj.dx)
        out += _F64.pack(obj.dy)
    elif kind is LocationRecord and set(map(type, obj)) == _ALL_FLOAT:
        out.append(TAG_LOCATION_RECORD)
        out += _5F64.pack(*obj)
    elif kind is LFRecord and _plain_lf_record(obj):
        code, timestamp, leader_id, dx, dy = obj
        out.append(TAG_LF_RECORD)
        out.append(0 if code == LEADER_CODE else 1)
        out += _F64.pack(timestamp)
        if code != LEADER_CODE:
            write_str(out, leader_id)
            out += _2F64.pack(dx, dy)
    elif kind is NeighborResult and _plain_neighbor(obj):
        out.append(TAG_NEIGHBOR)
        write_str(out, obj.object_id)
        out += _3F64.pack(obj.location.x, obj.location.y, obj.distance)
        if obj.leader_id is None:
            out.append(1 if obj.is_leader else 0)
        else:
            out.append(3 if obj.is_leader else 2)
            write_str(out, obj.leader_id)
    else:
        # Imported here: the table lists server-layer classes whose modules
        # import this one.
        from repro.codec.records import encode_record

        encode_record(out, obj)


def _plain_lf_record(record: LFRecord) -> bool:
    """Whether the five fields have exactly the declared types."""
    kinds = tuple(map(type, record))
    return kinds == _LEADER_KINDS or kinds == _FOLLOWER_KINDS


def _plain_neighbor(result: NeighborResult) -> bool:
    return (
        type(result.object_id) is str
        and type(result.location) is Point
        and type(result.distance) is float
        and type(result.is_leader) is bool
        and (result.leader_id is None or type(result.leader_id) is str)
    )


def pack_value(obj: object, prefix: bytes = b"") -> bytes:
    """``prefix`` plus the tagged encoding of ``obj``, as ``bytes``."""
    out = bytearray(prefix)
    encode_value(out, obj)
    return bytes(out)


def unpack_value(buf, pos: int = 0) -> object:
    """The one tagged value that fills ``buf[pos:]`` exactly."""
    value, end = decode_value(buf, pos)
    if end != len(buf):
        raise CodecError(f"{len(buf) - end} stray bytes after a tagged value")
    return value


def decode_value(buf, pos: int) -> Tuple[object, int]:
    """``(value, next position)`` of the tagged value at ``buf[pos]``."""
    try:
        return _decode(buf, pos)
    except (IndexError, struct.error, RecursionError) as exc:
        raise CodecError(f"damaged value at byte {pos}: {exc!r}") from None


def _decode(buf, pos: int) -> Tuple[object, int]:
    tag = buf[pos]
    pos += 1
    if tag == TAG_NONE:
        return None, pos
    if tag == TAG_FALSE:
        return False, pos
    if tag == TAG_TRUE:
        return True, pos
    if tag == TAG_INT:
        return read_svarint(buf, pos)
    if tag == TAG_FLOAT:
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if tag == TAG_STR:
        return read_str(buf, pos)
    if tag == TAG_BYTES:
        length, pos = read_uvarint(buf, pos)
        check_count(buf, pos, length)
        return bytes(buf[pos : pos + length]), pos + length
    if tag == TAG_FLOAT_TUPLE:
        count, pos = read_uvarint(buf, pos)
        check_count(buf, pos, count, 8)
        return struct.unpack_from(f"<{count}d", buf, pos), pos + 8 * count
    if tag == TAG_TUPLE or tag == TAG_LIST:
        count, pos = read_uvarint(buf, pos)
        check_count(buf, pos, count)
        items = []
        for _ in range(count):
            item, pos = _decode(buf, pos)
            items.append(item)
        return (tuple(items) if tag == TAG_TUPLE else items), pos
    if tag == TAG_DICT:
        count, pos = read_uvarint(buf, pos)
        check_count(buf, pos, count, 2)
        result = {}
        for _ in range(count):
            key, pos = _decode(buf, pos)
            value, pos = _decode(buf, pos)
            try:
                result[key] = value
            except TypeError:
                raise CodecError(f"unhashable dict key before byte {pos}") from None
        return result, pos
    if tag == TAG_POINT:
        x, y = _2F64.unpack_from(buf, pos)
        return Point(x, y), pos + 16
    if tag == TAG_VECTOR:
        dx, dy = _2F64.unpack_from(buf, pos)
        return Vector(dx, dy), pos + 16
    if tag == TAG_LOCATION_RECORD:
        x, y, dx, dy, timestamp = _5F64.unpack_from(buf, pos)
        return LocationRecord(Point(x, y), Vector(dx, dy), timestamp), pos + 40
    if tag == TAG_LF_RECORD:
        follower = buf[pos]
        (timestamp,) = _F64.unpack_from(buf, pos + 1)
        pos += 9
        if not follower:
            return LFRecord(Role.LEADER, timestamp), pos
        leader_id, pos = read_str(buf, pos)
        dx, dy = _2F64.unpack_from(buf, pos)
        return LFRecord(Role.FOLLOWER, timestamp, leader_id, Vector(dx, dy)), pos + 16
    if tag == TAG_NEIGHBOR:
        object_id, pos = read_str(buf, pos)
        x, y, distance = _3F64.unpack_from(buf, pos)
        flags = buf[pos + 24]
        pos += 25
        leader_id = None
        if flags & 2:
            leader_id, pos = read_str(buf, pos)
        return NeighborResult(object_id, Point(x, y), distance, bool(flags & 1), leader_id), pos
    if tag == TAG_RECORD or tag == TAG_ENUM:
        from repro.codec.records import decode_record

        return decode_record(buf, pos, tag)
    raise CodecError(f"unknown value tag {tag} at byte {pos - 1}")
