"""On-disk block formats: request frames, run blocks, snapshot blobs.

Three self-describing artifacts, all built from the same columnar
vocabulary as the wire (:mod:`repro.codec.columns` /
:mod:`repro.codec.values`) and all checksummed:

* **request frames** — one frame per logged request (request id, opcode,
  body length, crc32, then the body: the wire bytes the request arrived
  in).  The log is append-only and synced by the caller;
  :func:`read_request_frames` stops cleanly at a torn final frame, which is
  exactly the crash-consistency contract an fsynced append log provides.
* **run blocks** — one immutable block file per flushed SSTable run:
  front-coded sorted row keys, delta-encoded cell timestamps and tagged
  cell values, with tombstones as a one-byte marker.  A snapshot stores
  each tablet's memtable in the same shape, and its commit-log counts as
  a *count block*: the same key column, then one uvarint per key.
* **snapshot blobs** — a tagged-value dictionary (every table's manifest
  and the shard's accounting sections) behind a magic number and a
  checksum, atomically replaced at every snapshot.

Nothing here knows about file descriptors or fsync ordering — that policy
lives in :mod:`repro.disk.store`.  This module is pure bytes-in/bytes-out,
which keeps it property-testable without touching a filesystem.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.bigtable.lsm import TOMBSTONE
from repro.bigtable.table import _Row
from repro.codec.columns import (
    read_f64_delta_column,
    read_key_column,
    read_str,
    read_uvarint,
    write_f64_delta_column,
    write_key_column,
    write_str,
    write_uvarint,
)
from repro.codec.values import decode_value, encode_value

_U32 = struct.Struct("<I")

_FRAME_FIELDS = struct.Struct("<QBI")  # request id, opcode, body length
_FRAME = struct.Struct("<QBII")  # the fields, then their crc32 with the body's

RUN_MAGIC = b"MOR1"
SNAPSHOT_MAGIC = b"MOS1"

_VALUE_TOMBSTONE = 0
_VALUE_ROW = 1


# --------------------------------------------------------------------------
# Request frames
# --------------------------------------------------------------------------


def encode_request_frame(request_id: int, opcode: int, body: bytes) -> bytes:
    """Frame one logged request: ``<QBII`` (request id, opcode, body length,
    crc32 of those fields and the body), then the body."""
    crc = zlib.crc32(body, zlib.crc32(_FRAME_FIELDS.pack(request_id, opcode, len(body))))
    return _FRAME.pack(request_id, opcode, len(body), crc) + body


def read_request_frames(data) -> Tuple[List[Tuple[int, int, bytes]], int]:
    """``(frames, end)``: every whole frame of a log's bytes as ``(request
    id, opcode, body)``, and the offset where they end.  A torn final frame
    — its header or body cut short, or a bad crc on the frame that reaches
    the end — stops the read: it is the write a kill interrupted.  A bad
    frame with bytes after it is damage (:class:`ValueError`)."""
    view = memoryview(data)
    frames: List[Tuple[int, int, bytes]] = []
    pos = 0
    total = len(view)
    while pos + _FRAME.size <= total:
        request_id, opcode, length, crc = _FRAME.unpack_from(view, pos)
        start = pos + _FRAME.size
        end = start + length
        if end > total:
            break
        body = bytes(view[start:end])
        fields = _FRAME_FIELDS.pack(request_id, opcode, length)
        if zlib.crc32(body, zlib.crc32(fields)) != crc:
            if end < total:
                raise ValueError(f"request frame at offset {pos} fails its crc")
            break
        frames.append((request_id, opcode, body))
        pos = end
    return frames, pos


# --------------------------------------------------------------------------
# Run blocks
# --------------------------------------------------------------------------


def encode_row(row: _Row) -> bytes:
    """One row as it sits in a run block, its marker byte included.  The
    bytes depend on the row's contents alone, so a frozen row — one that
    compaction carries from run to run unchanged — always encodes the same
    (what lets the store encode it once)."""
    out = bytearray((_VALUE_ROW,))
    write_uvarint(out, len(row))
    for family, qualifiers in row.items():
        write_str(out, family)
        write_uvarint(out, len(qualifiers))
        for qualifier, chain in qualifiers.items():
            write_str(out, qualifier)
            write_uvarint(out, len(chain) // 2)
            write_f64_delta_column(out, chain[0::2])
            for value in chain[1::2]:
                encode_value(out, value)
    return bytes(out)


def _decode_row(buf, pos: int) -> Tuple[_Row, int]:
    row = _Row()
    nfamilies, pos = read_uvarint(buf, pos)
    for _ in range(nfamilies):
        family, pos = read_str(buf, pos)
        qualifiers = {}
        nquals, pos = read_uvarint(buf, pos)
        for _ in range(nquals):
            qualifier, pos = read_str(buf, pos)
            ncells, pos = read_uvarint(buf, pos)
            timestamps, pos = read_f64_delta_column(buf, pos, ncells)
            chain = []
            for timestamp in timestamps:
                value, pos = decode_value(buf, pos)
                chain += (timestamp, value)
            qualifiers[qualifier] = tuple(chain)
        row[family] = qualifiers
    return row, pos


def encode_run_block(
    keys: Sequence[str],
    values: Sequence[object],
    max_seqno: int,
    row_bytes: Callable[[_Row], bytes] = encode_row,
) -> bytes:
    """One immutable run file: sorted keys front-coded, each value either a
    tombstone marker or a full row.  ``row_bytes`` is :func:`encode_row` or
    a memo of it."""
    out = bytearray(RUN_MAGIC)
    write_uvarint(out, len(keys))
    write_uvarint(out, max_seqno)
    write_key_column(out, keys)
    for value in values:
        if value is TOMBSTONE:
            out.append(_VALUE_TOMBSTONE)
        else:
            out += row_bytes(value)
    crc = zlib.crc32(memoryview(out)[len(RUN_MAGIC):])
    out += _U32.pack(crc)
    return bytes(out)


def decode_run_block(data) -> Tuple[List[str], List[object], int]:
    view = memoryview(data)
    if bytes(view[:4]) != RUN_MAGIC:
        raise ValueError("not a run block file")
    payload = bytes(view[4:-4])
    (crc,) = _U32.unpack_from(view, len(view) - 4)
    if zlib.crc32(payload) != crc:
        raise ValueError("run block checksum mismatch")
    count, pos = read_uvarint(payload, 0)
    max_seqno, pos = read_uvarint(payload, pos)
    keys, pos = read_key_column(payload, pos, count)
    values: List[object] = []
    for _ in range(count):
        marker = payload[pos]
        pos += 1
        if marker == _VALUE_TOMBSTONE:
            values.append(TOMBSTONE)
        else:
            row, pos = _decode_row(payload, pos)
            values.append(row)
    return keys, values, max_seqno


def encode_count_block(counts: Mapping[str, int]) -> bytes:
    """A ``row key -> count`` map in key order: the count, the front-coded
    key column, then each key's count as a uvarint."""
    keys = sorted(counts)
    out = bytearray()
    write_uvarint(out, len(keys))
    write_key_column(out, keys)
    for key in keys:
        write_uvarint(out, counts[key])
    return bytes(out)


def decode_count_block(data) -> Dict[str, int]:
    count, pos = read_uvarint(data, 0)
    keys, pos = read_key_column(data, pos, count)
    counts: Dict[str, int] = {}
    for key in keys:
        counts[key], pos = read_uvarint(data, pos)
    if pos != len(data):
        raise ValueError(f"{len(data) - pos} stray bytes after a count block")
    return counts


# --------------------------------------------------------------------------
# Snapshot blobs
# --------------------------------------------------------------------------


def encode_snapshot(snapshot: dict) -> bytes:
    body = bytearray()
    encode_value(body, snapshot)
    payload = bytes(body)
    return SNAPSHOT_MAGIC + payload + _U32.pack(zlib.crc32(payload))


def decode_snapshot(data) -> dict:
    """The snapshot dictionary; a foreign, torn or corrupt blob is a
    :class:`ValueError` (a snapshot is replaced whole, so never torn by a
    kill: any damage is real)."""
    if len(data) < 8 or bytes(data[:4]) != SNAPSHOT_MAGIC:
        raise ValueError("not a snapshot blob")
    payload = bytes(data[4:-4])
    (crc,) = _U32.unpack_from(data, len(data) - 4)
    if zlib.crc32(payload) != crc:
        raise ValueError("snapshot checksum mismatch")
    snapshot, _ = decode_value(payload, 0)
    if type(snapshot) is not dict:
        raise ValueError("a snapshot is one tagged dict")
    return snapshot
