"""Columnar wire codecs for the multiprocess RPC path.

Two stateless batch codecs (updates, queries) and one *stateful* pair —
:class:`NeighborStreamEncoder` / :class:`NeighborStreamDecoder` — for the
neighbour results.

The neighbour stream is where the bytes were: every NN query returns its
top-k as ``(id, x, y, distance, flags, leader)`` records, and the same
objects appear in query after query (an object's stored position changes
only when an update lands).  The stream codec therefore keeps, per shard:

* a dictionary of object ids (first appearance ships the id, every later
  appearance ships a small token);
* the last *(position, flags, leader)* sent per object — a record whose
  state did not change since it was last shipped costs one or two bytes.

Distances are never transmitted: ``NeighborResult.distance`` is exactly
``result.location.distance_to(query.location)`` (the searcher computes it
from those same operands), so the decoder reconstructs it bit-for-bit from
the query it already holds.  The encoder *verifies* that identity per
record and, when it does not hold or a record is otherwise off the columnar
shape (NaN positions, non-conforming ids), ships the whole frame in the
*general* form instead: flag byte 0, then the same list of batches as one
tagged value (:mod:`repro.codec.values`).  General frames leave the
dictionary untouched on both sides, so the stream self-resynchronises; a
record the tagged codec cannot carry either (a subclass) is a
:class:`~repro.errors.CodecError` at the encoder, and the frame is not
counted.  Both sides carry a frame sequence number; decoding
out of order raises instead of silently desynchronising the caches.

Encoder and decoder state is **per shard**, never per connection: the byte
stream for a shard depends only on that shard's frame sequence, which is
what keeps total wire bytes invariant across worker counts.
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
from repro.codec.values import encode_value, pack_value, unpack_value
from repro.errors import CodecError, RpcError
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
# Neighbour result stream (columnar, stateful, per shard)
# --------------------------------------------------------------------------

#: Per-record control values (low 2 bits of the control varint; high bits
#: carry the dictionary token).
_REC_UNCHANGED = 0
_REC_CHANGED = 1
_REC_NEW = 2


class NeighborStreamEncoder:
    """Worker-side half of the per-shard neighbour stream (see module
    docstring).  One instance per shard service; every encoded frame —
    columnar or general — advances the frame sequence number."""

    __slots__ = ("_tokens", "_state", "_seq")

    def __init__(self) -> None:
        self._tokens: Dict[str, int] = {}
        #: token -> (x_bits, y_bits, flags, leader_numeric) last sent.
        self._state: List[Tuple[int, int, int, int]] = []
        self._seq = 0

    def encode(
        self,
        batches: Sequence[Sequence[NeighborResult]],
        queries: Sequence[Any],
    ) -> bytes:
        """One response frame for one probe set (``len(batches)`` ==
        ``len(queries)``), flag byte included."""
        seq = self._seq
        plan = self._plan(batches, queries)
        if plan is None:
            out = bytearray(_GENERAL)
            write_uvarint(out, seq)
            encode_value(out, [list(batch) for batch in batches])
            self._seq = seq + 1  # only a frame that exists is counted
            return bytes(out)
        self._seq = seq + 1
        out = bytearray(_COLUMNAR)
        write_uvarint(out, seq)
        write_uvarint(out, len(batches))
        tokens = self._tokens
        state = self._state
        pack2 = _2F64.pack
        for batch_index, batch in enumerate(batches):
            write_uvarint(out, len(batch))
            for record_index, result in enumerate(batch):
                numeric, leader_numeric, x_bits, y_bits = plan[
                    (batch_index, record_index)
                ]
                flags = (1 if result.is_leader else 0) | (
                    2 if result.leader_id is not None else 0
                )
                entry = (x_bits, y_bits, flags, leader_numeric)
                token = tokens.get(result.object_id)
                if token is None:
                    token = len(state)
                    tokens[result.object_id] = token
                    state.append(entry)
                    write_uvarint(out, (token << 2) | _REC_NEW)
                    write_uvarint(out, numeric)
                    out += pack2(result.location.x, result.location.y)
                    out.append(flags)
                    if flags & 2:
                        write_uvarint(out, leader_numeric)
                elif state[token] != entry:
                    state[token] = entry
                    write_uvarint(out, (token << 2) | _REC_CHANGED)
                    out += pack2(result.location.x, result.location.y)
                    out.append(flags)
                    if flags & 2:
                        write_uvarint(out, leader_numeric)
                else:
                    write_uvarint(out, (token << 2) | _REC_UNCHANGED)
        return bytes(out)

    def _plan(
        self,
        batches: Sequence[Sequence[NeighborResult]],
        queries: Sequence[Any],
    ) -> Optional[Dict[Tuple[int, int], Tuple[int, int, int, int]]]:
        """Validate that every record is columnar-encodable *before*
        touching the dictionary, so a general frame mutates no state.
        Returns per-record ``(numeric_id, leader_numeric, x_bits, y_bits)``
        or ``None`` to request the general frame."""
        if len(batches) != len(queries):
            return None
        plan: Dict[Tuple[int, int], Tuple[int, int, int, int]] = {}
        unpack_bits = struct.Struct("<2Q").unpack
        pack2 = _2F64.pack
        for batch_index, batch in enumerate(batches):
            query = queries[batch_index]
            location = getattr(query, "location", None)
            if type(location) is not Point:
                return None
            for record_index, result in enumerate(batch):
                if type(result) is not NeighborResult:
                    return None
                position = result.location
                if type(position) is not Point:
                    return None
                numeric = numeric_object_id(result.object_id)
                if numeric is None:
                    return None
                if result.leader_id is not None:
                    leader_numeric = numeric_object_id(result.leader_id)
                    if leader_numeric is None:
                        return None
                else:
                    leader_numeric = 0
                # The reconstruction identity the decoder relies on.  A
                # bit-compare (not ==) so NaN distances honestly fail into
                # the general frame instead of silently "matching".
                recomputed = position.distance_to(location)
                if _F64.pack(recomputed) != _F64.pack(result.distance):
                    return None
                x_bits, y_bits = unpack_bits(pack2(position.x, position.y))
                plan[(batch_index, record_index)] = (
                    numeric,
                    leader_numeric,
                    x_bits,
                    y_bits,
                )
        return plan


class NeighborStreamDecoder:
    """Client-side half of the per-shard neighbour stream."""

    __slots__ = ("_ids", "_state", "_seq")

    def __init__(self) -> None:
        self._ids: List[str] = []
        #: token -> (point, is_leader, leader_id) last received.
        self._state: List[Tuple[Point, bool, Optional[str]]] = []
        self._seq = 0

    def decode(
        self, body, queries: Sequence[Any]
    ) -> List[List[NeighborResult]]:
        try:
            return self._decode(body, queries)
        except (IndexError, struct.error) as exc:
            raise CodecError(f"damaged neighbour stream frame: {exc!r}") from None

    def _decode(
        self, body, queries: Sequence[Any]
    ) -> List[List[NeighborResult]]:
        flag = body[0]
        raw_seq, pos = read_uvarint(body, 1)
        expected = self._seq
        if raw_seq != expected:
            raise RpcError(
                f"neighbour stream out of order: frame {raw_seq}, "
                f"expected {expected}"
            )
        self._seq = expected + 1
        if flag == FLAG_GENERAL:
            batches = unpack_value(body, pos)
            if type(batches) is not list or any(
                type(batch) is not list
                or any(type(result) is not NeighborResult for result in batch)
                for batch in batches
            ):
                raise CodecError("general frame is not a list of result batches")
            return batches
        if flag != FLAG_COLUMNAR:
            raise RpcError(f"unknown neighbour stream flag {flag}")
        num_batches, pos = read_uvarint(body, pos)
        if num_batches != len(queries):
            raise RpcError(
                f"neighbour stream shape mismatch: {num_batches} batches "
                f"for {len(queries)} queries"
            )
        ids = self._ids
        state = self._state
        unpack2 = _2F64.unpack_from
        batches: List[List[NeighborResult]] = []
        for query in queries:
            location = query.location
            count, pos = read_uvarint(body, pos)
            check_count(body, pos, count)
            batch = []
            for _ in range(count):
                control, pos = read_uvarint(body, pos)
                mode = control & 3
                token = control >> 2
                if mode == _REC_NEW:
                    numeric, pos = read_uvarint(body, pos)
                    if token != len(ids):
                        raise RpcError("neighbour stream dictionary skew")
                    ids.append(format_object_id(numeric))
                    state.append(None)  # type: ignore[arg-type]
                if mode == _REC_UNCHANGED:
                    point, is_leader, leader_id = state[token]
                else:
                    x, y = unpack2(body, pos)
                    pos += 16
                    flags = body[pos]
                    pos += 1
                    if flags & 2:
                        leader_numeric, pos = read_uvarint(body, pos)
                        leader_id = format_object_id(leader_numeric)
                    else:
                        leader_id = None
                    point = Point(x, y)
                    is_leader = bool(flags & 1)
                    state[token] = (point, is_leader, leader_id)
                batch.append(
                    NeighborResult(
                        object_id=ids[token],
                        location=point,
                        distance=point.distance_to(location),
                        is_leader=is_leader,
                        leader_id=leader_id,
                    )
                )
            batches.append(batch)
        return batches
