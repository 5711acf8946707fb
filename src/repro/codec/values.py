"""Tagged binary value encoding with a per-value pickle fallback.

Cell values, commit-log payloads and manifest metadata are *mostly* simple
— strings, floats, tuples, :class:`~repro.geometry.point.Point`s and the
three domain records below — but the table API accepts arbitrary objects.
This codec writes the known shapes as one tag byte plus a compact body and
quietly pickles anything else, so the disk and wire layers stay byte-frugal
without ever restricting what a caller may store.

====  =================  ==============================================
tag   type               body
====  =================  ==============================================
0     (pickle fallback)  uvarint length, pickle bytes — foreign types,
                         subclasses, and every record in files written
                         before tags 13–15 existed
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
====  =================  ==============================================

Type dispatch is on ``type(obj)`` exactly (no ``isinstance``), for records
down to their fields: a subclass may carry extra state a structural
re-encode would drop, and an ``int`` timestamp would come back a ``float``,
so anything off the declared shape takes the pickle path, which preserves
it faithfully.  Tags are append-only: existing tags keep their bytes.
"""

from __future__ import annotations

import pickle
import struct
from typing import Tuple

from repro.codec.columns import read_str, read_svarint, read_uvarint, write_str, write_svarint, write_uvarint
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import LocationRecord, NeighborResult
from repro.tables.affiliation_table import LEADER_CODE, LFRecord, Role

_F64 = struct.Struct("<d")
_2F64 = struct.Struct("<2d")
_3F64 = struct.Struct("<3d")
_5F64 = struct.Struct("<5d")
_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

TAG_PICKLE = 0
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
        payload = pickle.dumps(obj, _PICKLE_PROTOCOL)
        out.append(TAG_PICKLE)
        write_uvarint(out, len(payload))
        out += payload


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


def decode_value(buf, pos: int) -> Tuple[object, int]:
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
        return bytes(buf[pos : pos + length]), pos + length
    if tag == TAG_FLOAT_TUPLE:
        count, pos = read_uvarint(buf, pos)
        return struct.unpack_from(f"<{count}d", buf, pos), pos + 8 * count
    if tag == TAG_TUPLE or tag == TAG_LIST:
        count, pos = read_uvarint(buf, pos)
        items = []
        for _ in range(count):
            item, pos = decode_value(buf, pos)
            items.append(item)
        return (tuple(items) if tag == TAG_TUPLE else items), pos
    if tag == TAG_DICT:
        count, pos = read_uvarint(buf, pos)
        result = {}
        for _ in range(count):
            key, pos = decode_value(buf, pos)
            value, pos = decode_value(buf, pos)
            result[key] = value
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
    if tag == TAG_PICKLE:
        length, pos = read_uvarint(buf, pos)
        return pickle.loads(bytes(buf[pos : pos + length])), pos + length
    raise ValueError(f"unknown value tag {tag}")
