"""Low-level columnar encoding primitives.

Every helper appends to a caller-owned ``bytearray`` (write side) or reads
from any buffer supporting integer indexing and slicing — ``bytes``,
``bytearray`` or ``memoryview`` — returning ``(value, next_position)``
(read side).  Encoders are deterministic: the same inputs always produce
the same bytes, which is what lets committed benchmark records and the
wire-bytes regression guard assert on exact byte counts.

Float columns are little-endian IEEE-754 doubles, always full width: the
scale-out determinism contract forbids lossy narrowing (a float32 round
trip would move merged simulated seconds).  Delta columns XOR consecutive
bit patterns and store only the significant bytes, so repeated or slowly
moving values (timestamps, Hilbert keys) cost one or two bytes instead of
eight.

Readers trust nothing: a read past the end of the buffer, or a count or
length larger than the bytes that remain, raises
:class:`~repro.errors.CodecError` before anything is looped over or
allocated.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

from repro.errors import CodecError

_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")


# --------------------------------------------------------------------------
# Varints
# --------------------------------------------------------------------------


def write_uvarint(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_uvarint(buf, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    try:
        while True:
            byte = buf[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result, pos
            shift += 7
    except IndexError:
        raise CodecError(f"varint runs past the buffer at byte {pos}") from None


def check_count(buf, pos: int, count: int, width: int = 1) -> None:
    """Reject a decoded ``count`` of items at least ``width`` bytes each
    that the bytes after ``pos`` cannot hold."""
    if count * width > len(buf) - pos:
        raise CodecError(
            f"{count} items of {width}+ bytes claimed at byte {pos}, "
            f"{max(len(buf) - pos, 0)} bytes remain"
        )


def write_svarint(out: bytearray, value: int) -> None:
    """Zigzag-mapped signed varint (small magnitudes stay small)."""
    write_uvarint(out, value << 1 if value >= 0 else ((-value) << 1) - 1)


def read_svarint(buf, pos: int) -> Tuple[int, int]:
    raw, pos = read_uvarint(buf, pos)
    return (raw >> 1 if not raw & 1 else -((raw + 1) >> 1)), pos


# --------------------------------------------------------------------------
# Fixed-width float columns
# --------------------------------------------------------------------------


def write_f64_column(out: bytearray, values: Sequence[float]) -> None:
    """A packed little-endian float64 column (bit-exact, NaN/inf safe)."""
    out += struct.pack(f"<{len(values)}d", *values)


def read_f64_column(buf, pos: int, count: int) -> Tuple[Tuple[float, ...], int]:
    check_count(buf, pos, count, 8)
    return struct.unpack_from(f"<{count}d", buf, pos), pos + 8 * count


# --------------------------------------------------------------------------
# XOR-delta float columns
# --------------------------------------------------------------------------


def write_f64_delta_column(out: bytearray, values: Sequence[float]) -> None:
    """Gorilla-style column: XOR against the previous value's bit pattern,
    store a length byte plus the significant big-endian bytes.  A repeated
    value costs one byte; a slowly advancing timestamp typically two to
    four."""
    prev = 0
    pack = _F64.pack
    unpack = _U64.unpack
    for value in values:
        bits = unpack(pack(value))[0]
        delta = bits ^ prev
        nbytes = (delta.bit_length() + 7) >> 3
        out.append(nbytes)
        if nbytes:
            out += delta.to_bytes(nbytes, "big")
        prev = bits


def read_f64_delta_column(buf, pos: int, count: int) -> Tuple[List[float], int]:
    check_count(buf, pos, count)
    prev = 0
    out = []
    pack = _U64.pack
    unpack = _F64.unpack
    end = len(buf)
    try:
        for _ in range(count):
            nbytes = buf[pos]
            pos += 1
            if nbytes:
                if nbytes > 8 or pos + nbytes > end:
                    raise CodecError(f"bad {nbytes}-byte delta at byte {pos - 1}")
                prev ^= int.from_bytes(bytes(buf[pos : pos + nbytes]), "big")
                pos += nbytes
            out.append(unpack(pack(prev))[0])
    except IndexError:
        raise CodecError("delta column runs past the buffer") from None
    return out, pos


# --------------------------------------------------------------------------
# Bitmaps
# --------------------------------------------------------------------------


def write_bitmap(out: bytearray, flags: Sequence[bool]) -> None:
    """Bools packed eight to a byte, LSB first."""
    byte = 0
    for index, flag in enumerate(flags):
        if flag:
            byte |= 1 << (index & 7)
        if index & 7 == 7:
            out.append(byte)
            byte = 0
    if len(flags) & 7:
        out.append(byte)


def read_bitmap(buf, pos: int, count: int) -> Tuple[List[bool], int]:
    check_count(buf, pos, (count + 7) >> 3)
    out = []
    for index in range(count):
        if index & 7 == 0:
            byte = buf[pos]
            pos += 1
        out.append(bool(byte & (1 << (index & 7))))
    return out, pos


# --------------------------------------------------------------------------
# Strings and front-coded sorted key columns
# --------------------------------------------------------------------------


def write_str(out: bytearray, text: str) -> None:
    encoded = text.encode("utf-8")
    write_uvarint(out, len(encoded))
    out += encoded


def read_str(buf, pos: int) -> Tuple[str, int]:
    length, pos = read_uvarint(buf, pos)
    check_count(buf, pos, length)
    try:
        return bytes(buf[pos : pos + length]).decode("utf-8"), pos + length
    except UnicodeDecodeError as exc:
        raise CodecError(f"string at byte {pos} is not utf-8: {exc}") from None


def write_key_column(out: bytearray, keys: Sequence[str]) -> None:
    """Front coding for sorted row keys: each entry stores the byte length
    it shares with its predecessor plus the remaining suffix.  Sorted
    Hilbert-curve keys share long prefixes, so a block's key column
    approaches delta-encoding the curve positions themselves."""
    prev = b""
    for key in keys:
        encoded = key.encode("utf-8")
        shared = 0
        limit = min(len(prev), len(encoded))
        while shared < limit and prev[shared] == encoded[shared]:
            shared += 1
        suffix = encoded[shared:]
        write_uvarint(out, shared)
        write_uvarint(out, len(suffix))
        out += suffix
        prev = encoded


def read_key_column(buf, pos: int, count: int) -> Tuple[List[str], int]:
    check_count(buf, pos, count, 2)
    keys = []
    prev = b""
    for _ in range(count):
        shared, pos = read_uvarint(buf, pos)
        length, pos = read_uvarint(buf, pos)
        check_count(buf, pos, length)
        encoded = prev[:shared] + bytes(buf[pos : pos + length])
        pos += length
        keys.append(encoded.decode("utf-8"))
        prev = encoded
    return keys, pos
