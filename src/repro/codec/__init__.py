"""Columnar zero-copy codec layer.

One binary vocabulary — varints, fixed-width float columns, XOR-delta
float columns, bitmaps, front-coded sorted key columns and a tagged value
encoding — shared by the two consumers that used to each invent their own:

* the RPC wire (:mod:`repro.codec.wire`): columnar batch frames for
  update/query/neighbour bodies plus a per-shard *stateful* neighbour
  stream codec (dictionary-encoded object ids, positions re-sent only when
  they changed, distances reconstructed from the query location);
* on-disk SSTable blocks and commit-log journals
  (:mod:`repro.codec.blocks`): real block files and append-only journal
  records behind the :mod:`repro.disk.store` backend.

Everything is pure ``struct``/``array``/``memoryview`` Python — no new
dependencies — and every codec keeps a pickle fallback for exotic payloads
so correctness never hinges on the compact path (the domain records have
typed value tags, so the persistence path itself never takes it).
"""

from repro.codec.columns import (
    read_bitmap,
    read_f64_column,
    read_f64_delta_column,
    read_key_column,
    read_str,
    read_svarint,
    read_uvarint,
    write_bitmap,
    write_f64_column,
    write_f64_delta_column,
    write_key_column,
    write_str,
    write_svarint,
    write_uvarint,
)
from repro.codec.values import decode_value, encode_value

__all__ = [
    "read_bitmap",
    "read_f64_column",
    "read_f64_delta_column",
    "read_key_column",
    "read_str",
    "read_svarint",
    "read_uvarint",
    "write_bitmap",
    "write_f64_column",
    "write_f64_delta_column",
    "write_key_column",
    "write_str",
    "write_svarint",
    "write_uvarint",
    "encode_value",
    "decode_value",
]
