"""On-disk block formats: journal records, run blocks, manifest blobs.

Three self-describing artifacts, all built from the same columnar
vocabulary as the wire (:mod:`repro.codec.columns` /
:mod:`repro.codec.values`) and all checksummed:

* **journal records** — one framed record per logical commit-log entry
  (``length | crc32 | payload``).  The journal is append-only and synced
  by the caller; :func:`iter_journal_records` replays a file and stops
  cleanly at the first truncated or corrupt frame, which is exactly the
  crash-consistency contract an fsynced append log provides.
* **run blocks** — one immutable block file per flushed SSTable run:
  front-coded sorted row keys, delta-encoded cell timestamps and tagged
  cell values, with tombstones as a one-byte marker.
* **manifest blobs** — a tagged-value dictionary (table metadata, tablet
  boundaries, run references, journal watermark) behind a magic number and
  a checksum, atomically replaced at every checkpoint.

Nothing here knows about file descriptors or fsync ordering — that policy
lives in :mod:`repro.disk.store`.  This module is pure bytes-in/bytes-out,
which keeps it property-testable without touching a filesystem.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

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

_JOURNAL_HEADER = struct.Struct("<II")  # payload length, crc32(payload)

RUN_MAGIC = b"MOR1"
MANIFEST_MAGIC = b"MOM1"

_OPCODES = ("w", "dc", "dr", "age")
_OPCODE_INDEX = {opcode: index for index, opcode in enumerate(_OPCODES)}
_OP_OTHER = 255

_VALUE_TOMBSTONE = 0
_VALUE_ROW = 1


# --------------------------------------------------------------------------
# Journal records
# --------------------------------------------------------------------------


def encode_journal_record(record: tuple) -> bytes:
    """Frame one commit-log record ``(seq, opcode, *fields)``.

    The known opcodes get a one-byte tag; anything else (a future opcode)
    ships its string.  Fields ride the tagged value codec: a field it has
    no tag for is a :class:`~repro.errors.CodecError` here, when the store
    frames the record on its way to the file."""
    seq, opcode = record[0], record[1]
    body = bytearray()
    write_uvarint(body, seq)
    index = _OPCODE_INDEX.get(opcode, _OP_OTHER)
    body.append(index)
    if index == _OP_OTHER:
        write_str(body, opcode)
    write_uvarint(body, len(record) - 2)
    for field in record[2:]:
        encode_value(body, field)
    return _JOURNAL_HEADER.pack(len(body), zlib.crc32(body)) + body


def iter_journal_records(data) -> Iterator[tuple]:
    """Replay a journal byte string, stopping at the first truncated or
    corrupt frame (a torn tail write after a crash is expected, not an
    error)."""
    view = memoryview(data)
    pos = 0
    total = len(view)
    header_size = _JOURNAL_HEADER.size
    while pos + header_size <= total:
        length, crc = _JOURNAL_HEADER.unpack_from(view, pos)
        start = pos + header_size
        end = start + length
        if end > total:
            return
        payload = bytes(view[start:end])
        if zlib.crc32(payload) != crc:
            return
        seq, body_pos = read_uvarint(payload, 0)
        index = payload[body_pos]
        body_pos += 1
        if index == _OP_OTHER:
            opcode, body_pos = read_str(payload, body_pos)
        else:
            opcode = _OPCODES[index]
        nfields, body_pos = read_uvarint(payload, body_pos)
        fields = []
        for _ in range(nfields):
            field, body_pos = decode_value(payload, body_pos)
            fields.append(field)
        yield (seq, opcode, *fields)
        pos = end


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


# --------------------------------------------------------------------------
# Manifest blobs
# --------------------------------------------------------------------------


def encode_manifest(manifest: dict) -> bytes:
    body = bytearray()
    encode_value(body, manifest)
    payload = bytes(body)
    return MANIFEST_MAGIC + payload + _U32.pack(zlib.crc32(payload))


def decode_manifest(data) -> Optional[dict]:
    """The manifest dictionary, or ``None`` when the blob is missing,
    foreign, or torn (the caller treats all three as "no checkpoint")."""
    if len(data) < 8 or bytes(data[:4]) != MANIFEST_MAGIC:
        return None
    payload = bytes(data[4:-4])
    (crc,) = _U32.unpack_from(data, len(data) - 4)
    if zlib.crc32(payload) != crc:
        return None
    manifest, _ = decode_value(payload, 0)
    return manifest if type(manifest) is dict else None
