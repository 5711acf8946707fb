"""Columnar wire codecs for the multiprocess RPC path.

Three stateless batch codecs (updates, queries, generic CALL results) and
one *stateful* pair — :class:`NeighborStreamEncoder` /
:class:`NeighborStreamDecoder` — that together replace the fixed-width
per-record structs of PR 6.

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
record and falls back to pickling the whole frame when it does not hold
(NaN positions, subclassed results, non-conforming ids) — fallback frames
leave the dictionary untouched on both sides, so the stream
self-resynchronises.  Both sides carry a frame sequence number; decoding
out of order raises instead of silently desynchronising the caches.

Encoder and decoder state is **per shard**, never per connection: the byte
stream for a shard depends only on that shard's frame sequence, which is
what keeps total wire bytes invariant across worker counts.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bigtable.cost import OpCounterSnapshot, OpKind
from repro.bigtable.tablet import TabletStats
from repro.codec.columns import (
    read_bitmap,
    read_f64_column,
    read_f64_delta_column,
    read_str,
    read_uvarint,
    write_bitmap,
    write_f64_column,
    write_f64_delta_column,
    write_str,
    write_uvarint,
)
from repro.errors import RpcError
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import NeighborResult, UpdateMessage, format_object_id
from repro.workload.queries import NNQuery

_F64 = struct.Struct("<d")
_2F64 = struct.Struct("<2d")
_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

FLAG_PICKLED = 0
FLAG_COLUMNAR = 1

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


# --------------------------------------------------------------------------
# Update batches (columnar, stateless)
# --------------------------------------------------------------------------


def encode_update_batch_columnar(
    messages: Sequence[UpdateMessage],
) -> Optional[bytes]:
    """Columnar payload for one group-commit buffer, or ``None`` when any
    message needs the pickle fallback (non-conforming id, subclass)."""
    ids = []
    for message in messages:
        if type(message) is not UpdateMessage:
            return None
        numeric = numeric_object_id(message.object_id)
        if numeric is None:
            return None
        ids.append(numeric)
    out = bytearray()
    write_uvarint(out, len(messages))
    for numeric in ids:
        write_uvarint(out, numeric)
    write_f64_column(out, [m.location.x for m in messages])
    write_f64_column(out, [m.location.y for m in messages])
    write_f64_column(out, [m.velocity.dx for m in messages])
    write_f64_column(out, [m.velocity.dy for m in messages])
    write_f64_delta_column(out, [m.timestamp for m in messages])
    return bytes(out)


def decode_update_batch_columnar(buf) -> List[UpdateMessage]:
    count, pos = read_uvarint(buf, 0)
    ids = []
    for _ in range(count):
        numeric, pos = read_uvarint(buf, pos)
        ids.append(numeric)
    xs, pos = read_f64_column(buf, pos, count)
    ys, pos = read_f64_column(buf, pos, count)
    dxs, pos = read_f64_column(buf, pos, count)
    dys, pos = read_f64_column(buf, pos, count)
    timestamps, pos = read_f64_delta_column(buf, pos, count)
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
# Query batches (columnar, stateless)
# --------------------------------------------------------------------------


def encode_query_batch_columnar(queries: Sequence[NNQuery]) -> Optional[bytes]:
    for query in queries:
        if type(query) is not NNQuery:
            return None
        if query.k < 0:
            return None
    out = bytearray()
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


def decode_query_batch_columnar(buf) -> List[NNQuery]:
    count, pos = read_uvarint(buf, 0)
    xs, pos = read_f64_column(buf, pos, count)
    ys, pos = read_f64_column(buf, pos, count)
    ks = []
    for _ in range(count):
        k, pos = read_uvarint(buf, pos)
        ks.append(k)
    has_range, pos = read_bitmap(buf, pos, count)
    ranges, pos = read_f64_column(buf, pos, sum(has_range))
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
    columnar or pickled — advances the frame sequence number."""

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
        self._seq = seq + 1
        plan = self._plan(batches, queries)
        if plan is None:
            out = bytearray([FLAG_PICKLED])
            write_uvarint(out, seq)
            out += pickle.dumps(
                [list(batch) for batch in batches], _PICKLE_PROTOCOL
            )
            return bytes(out)
        out = bytearray([FLAG_COLUMNAR])
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
        touching the dictionary, so a fallback frame mutates no state.
        Returns per-record ``(numeric_id, leader_numeric, x_bits, y_bits)``
        or ``None`` to request the pickle fallback."""
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
                # the pickle fallback instead of silently "matching".
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
        flag = body[0]
        raw_seq, pos = read_uvarint(body, 1)
        expected = self._seq
        if raw_seq != expected:
            raise RpcError(
                f"neighbour stream out of order: frame {raw_seq}, "
                f"expected {expected}"
            )
        self._seq = expected + 1
        if flag == FLAG_PICKLED:
            return pickle.loads(bytes(body[pos:]))
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


# --------------------------------------------------------------------------
# Generic CALL / RESULT slimming (hot metrics + ledger-merge calls)
# --------------------------------------------------------------------------

RESULT_PICKLE = 0
RESULT_NONE = 1
RESULT_TRUE = 2
RESULT_FALSE = 3
RESULT_INT = 4
RESULT_FLOAT = 5
RESULT_STR = 6
RESULT_METRICS = 7
RESULT_COUNTER_SNAPSHOT = 8
RESULT_TABLET_STATS = 9

#: Stable OpKind numbering for the wire (enum definition order; both sides
#: run the same module, the worker being a fork of the client).
_OPKIND_LIST = list(OpKind)
_OPKIND_INDEX = {kind: index for index, kind in enumerate(_OPKIND_LIST)}

_METRICS_KEYS = frozenset(
    ("makespan", "servers", "master_actions", "has_master", "worker_phase")
)


def _is_metrics_snapshot(value: Any) -> bool:
    if type(value) is not dict or set(value) != _METRICS_KEYS:
        return False
    if type(value["makespan"]) is not float:
        return False
    if type(value["has_master"]) is not bool:
        return False
    phase = value["worker_phase"]
    if type(phase) is not dict or not all(
        type(name) is str and type(seconds) is float
        for name, seconds in phase.items()
    ):
        return False
    actions = value["master_actions"]
    if type(actions) is not tuple or len(actions) != 3:
        return False
    if any(type(entry) is not int or entry < 0 for entry in actions):
        return False
    servers = value["servers"]
    if type(servers) is not list:
        return False
    for row in servers:
        if type(row) is not tuple or len(row) != 5:
            return False
        updates, queries, update_busy, query_busy, alive = row
        if type(updates) is not int or updates < 0:
            return False
        if type(queries) is not int or queries < 0:
            return False
        if type(update_busy) is not float or type(query_busy) is not float:
            return False
        if type(alive) is not bool:
            return False
    return True


def _write_kind_dict(out: bytearray, entries: Dict[OpKind, int]) -> bool:
    items = list(entries.items())
    for kind, value in items:
        if _OPKIND_INDEX.get(kind) is None or type(value) is not int or value < 0:
            return False
    write_uvarint(out, len(items))
    for kind, value in items:
        out.append(_OPKIND_INDEX[kind])
        write_uvarint(out, value)
    return True


def _read_kind_dict(buf, pos: int) -> Tuple[Dict[OpKind, int], int]:
    count, pos = read_uvarint(buf, pos)
    entries: Dict[OpKind, int] = {}
    for _ in range(count):
        index = buf[pos]
        pos += 1
        value, pos = read_uvarint(buf, pos)
        entries[_OPKIND_LIST[index]] = value
    return entries, pos


def encode_result_compact(value: Any) -> Optional[bytes]:
    """Typed fast paths for the hot CALL results (metrics snapshots, ledger
    merges, scalars); ``None`` defers to the caller's pickle fallback."""
    if value is None:
        return bytes([RESULT_NONE])
    kind = type(value)
    if kind is bool:
        return bytes([RESULT_TRUE if value else RESULT_FALSE])
    if kind is int:
        out = bytearray([RESULT_INT])
        if value < 0:
            return None
        write_uvarint(out, value)
        return bytes(out)
    if kind is float:
        return bytes([RESULT_FLOAT]) + _F64.pack(value)
    if kind is str:
        out = bytearray([RESULT_STR])
        write_str(out, value)
        return bytes(out)
    if kind is OpCounterSnapshot:
        out = bytearray([RESULT_COUNTER_SNAPSHOT])
        if not _write_kind_dict(out, value.counts):
            return None
        if not _write_kind_dict(out, value.rows):
            return None
        if not _write_kind_dict(out, value.durability_counts):
            return None
        if not _write_kind_dict(out, value.durability_rows):
            return None
        out += struct.pack(
            "<4d",
            value.simulated_seconds,
            value.read_seconds,
            value.write_seconds,
            value.durability_seconds,
        )
        if type(value.logical_write_rows) is not int or value.logical_write_rows < 0:
            return None
        write_uvarint(out, value.logical_write_rows)
        return bytes(out)
    if kind is list and all(type(entry) is TabletStats for entry in value):
        # The per-tablet accounting merge (``tablet_stats``) — encoded
        # field-typed rather than pickled, which also keeps the byte count
        # independent of CPython string-interning accidents (pickle's memo
        # makes equal payloads encode to different sizes depending on
        # whether equal strings are the same object).
        out = bytearray([RESULT_TABLET_STATS])
        write_uvarint(out, len(value))
        for entry in value:
            if (
                type(entry.table) is not str
                or type(entry.tablet_id) is not str
                or type(entry.start_key) is not str
                or not (entry.end_key is None or type(entry.end_key) is str)
            ):
                return None
            for field in (
                entry.row_count,
                entry.op_calls,
                entry.run_count,
                entry.log_records,
            ):
                if type(field) is not int or field < 0:
                    return None
            for field in (
                entry.simulated_seconds,
                entry.read_seconds,
                entry.write_seconds,
                entry.durability_seconds,
                entry.write_amplification,
            ):
                if type(field) is not float:
                    return None
            write_str(out, entry.table)
            write_str(out, entry.tablet_id)
            write_str(out, entry.start_key)
            if entry.end_key is None:
                out.append(0)
            else:
                out.append(1)
                write_str(out, entry.end_key)
            write_uvarint(out, entry.row_count)
            write_uvarint(out, entry.op_calls)
            write_uvarint(out, entry.run_count)
            write_uvarint(out, entry.log_records)
            out += struct.pack(
                "<5d",
                entry.simulated_seconds,
                entry.read_seconds,
                entry.write_seconds,
                entry.durability_seconds,
                entry.write_amplification,
            )
        return bytes(out)
    if _is_metrics_snapshot(value):
        out = bytearray([RESULT_METRICS])
        out += _F64.pack(value["makespan"])
        servers = value["servers"]
        write_uvarint(out, len(servers))
        for updates, queries, update_busy, query_busy, alive in servers:
            write_uvarint(out, updates)
            write_uvarint(out, queries)
            out += _2F64.pack(update_busy, query_busy)
            out.append(1 if alive else 0)
        for entry in value["master_actions"]:
            write_uvarint(out, entry)
        out.append(1 if value["has_master"] else 0)
        write_uvarint(out, len(value["worker_phase"]))
        for name, seconds in value["worker_phase"].items():
            write_str(out, name)
            out += _F64.pack(seconds)
        return bytes(out)
    return None


def decode_result_compact(body) -> Any:
    tag = body[0]
    if tag == RESULT_NONE:
        return None
    if tag == RESULT_TRUE:
        return True
    if tag == RESULT_FALSE:
        return False
    if tag == RESULT_INT:
        return read_uvarint(body, 1)[0]
    if tag == RESULT_FLOAT:
        return _F64.unpack_from(body, 1)[0]
    if tag == RESULT_STR:
        return read_str(body, 1)[0]
    if tag == RESULT_COUNTER_SNAPSHOT:
        counts, pos = _read_kind_dict(body, 1)
        rows, pos = _read_kind_dict(body, pos)
        durability_counts, pos = _read_kind_dict(body, pos)
        durability_rows, pos = _read_kind_dict(body, pos)
        simulated, read, write, durability = struct.unpack_from("<4d", body, pos)
        pos += 32
        logical, pos = read_uvarint(body, pos)
        return OpCounterSnapshot(
            counts=counts,
            rows=rows,
            simulated_seconds=simulated,
            read_seconds=read,
            write_seconds=write,
            durability_counts=durability_counts,
            durability_rows=durability_rows,
            durability_seconds=durability,
            logical_write_rows=logical,
        )
    if tag == RESULT_TABLET_STATS:
        count, pos = read_uvarint(body, 1)
        stats = []
        for _ in range(count):
            table, pos = read_str(body, pos)
            tablet_id, pos = read_str(body, pos)
            start_key, pos = read_str(body, pos)
            end_key = None
            has_end = body[pos]
            pos += 1
            if has_end:
                end_key, pos = read_str(body, pos)
            row_count, pos = read_uvarint(body, pos)
            op_calls, pos = read_uvarint(body, pos)
            run_count, pos = read_uvarint(body, pos)
            log_records, pos = read_uvarint(body, pos)
            (
                simulated,
                read_s,
                write_s,
                durability,
                amplification,
            ) = struct.unpack_from("<5d", body, pos)
            pos += 40
            stats.append(
                TabletStats(
                    table=table,
                    tablet_id=tablet_id,
                    start_key=start_key,
                    end_key=end_key,
                    row_count=row_count,
                    op_calls=op_calls,
                    simulated_seconds=simulated,
                    read_seconds=read_s,
                    write_seconds=write_s,
                    run_count=run_count,
                    log_records=log_records,
                    durability_seconds=durability,
                    write_amplification=amplification,
                )
            )
        return stats
    if tag == RESULT_METRICS:
        (makespan,) = _F64.unpack_from(body, 1)
        pos = 9
        count, pos = read_uvarint(body, pos)
        servers = []
        for _ in range(count):
            updates, pos = read_uvarint(body, pos)
            queries, pos = read_uvarint(body, pos)
            update_busy, query_busy = _2F64.unpack_from(body, pos)
            pos += 16
            alive = bool(body[pos])
            pos += 1
            servers.append((updates, queries, update_busy, query_busy, alive))
        actions = []
        for _ in range(3):
            entry, pos = read_uvarint(body, pos)
            actions.append(entry)
        has_master = bool(body[pos])
        count, pos = read_uvarint(body, pos + 1)
        phase = {}
        for _ in range(count):
            name, pos = read_str(body, pos)
            (phase[name],) = _F64.unpack_from(body, pos)
            pos += 8
        return {
            "makespan": makespan,
            "servers": servers,
            "master_actions": tuple(actions),
            "has_master": has_master,
            "worker_phase": phase,
        }
    raise RpcError(f"unknown compact result tag {tag}")
