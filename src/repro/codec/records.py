"""The closed type table behind value tags 17 (record) and 18 (enum member).

Everything structured that crosses a ``CALL`` — build recipes and their
options, ledger snapshots, per-tablet accounting rows, recovery and
control-plane reports, the general update / query frames — is a frozen
dataclass listed in :data:`TYPES` under a small integer id.  A record's
body is its fields in declared order, each a tagged value; an enum member's
body is its index in definition order (both ends run the same module — a
worker is a fork of its client).  Dispatch is on ``type(obj)`` exactly, and
a decoder can instantiate nothing that is not in the table.

:mod:`repro.codec.values` imports this module on first use rather than at
the top: the server-layer classes below live in modules that import it.
"""

from __future__ import annotations

from dataclasses import fields
from enum import Enum
from typing import Tuple

from repro.bigtable.cost import OpCounterSnapshot, OpKind
from repro.bigtable.lsm import RecoveryReport, TableRecovery
from repro.bigtable.scan import TabletCacheStats
from repro.bigtable.table import ColumnFamily
from repro.bigtable.tablet import TabletOptions, TabletStats
from repro.codec.columns import read_uvarint, write_uvarint
from repro.codec.values import TAG_ENUM, TAG_RECORD, decode_value, encode_value
from repro.errors import CodecError
from repro.model import UpdateMessage
from repro.server.cluster import ServerFailoverReport
from repro.server.master import MasterOptions, MigrationRecord, RebalanceReport, ReplicationRecord
from repro.server.worker import ShardRecipe
from repro.workload.queries import NNQuery

#: ``(type id, class)``.  Append-only: never renumber, never reuse an id.
TYPES = (
    (1, ShardRecipe),
    (2, MasterOptions),
    (3, TabletOptions),
    (4, ColumnFamily),
    (5, OpCounterSnapshot),
    (6, TabletStats),
    (7, TabletCacheStats),
    (8, RecoveryReport),
    (9, TableRecovery),
    (10, MigrationRecord),
    (11, ReplicationRecord),
    (12, RebalanceReport),
    (13, ServerFailoverReport),
    (14, UpdateMessage),
    (15, NNQuery),
    (16, OpKind),
)


def _index(table) -> Tuple[dict, dict]:
    """``id -> class`` and ``class -> (id, field names or enum members)``."""
    by_id = dict(table)
    by_type = {
        kind: (
            type_id,
            tuple(kind) if issubclass(kind, Enum) else tuple(f.name for f in fields(kind)),
        )
        for type_id, kind in table
    }
    if len(by_id) != len(table) or len(by_type) != len(table):
        raise AssertionError(f"duplicate id or class in the codec type table {table!r}")
    return by_id, by_type


_BY_ID, _BY_TYPE = _index(TYPES)


def encode_record(out: bytearray, obj: object) -> None:
    """The tail of :func:`~repro.codec.values.encode_value`'s dispatch."""
    kind = type(obj)
    entry = _BY_TYPE.get(kind)
    if entry is None:
        raise CodecError(f"no value tag for {kind.__module__}.{kind.__qualname__}: {obj!r}")
    type_id, parts = entry
    if isinstance(obj, Enum):
        out.append(TAG_ENUM)
        write_uvarint(out, type_id)
        write_uvarint(out, parts.index(obj))
        return
    out.append(TAG_RECORD)
    write_uvarint(out, type_id)
    for name in parts:
        encode_value(out, getattr(obj, name))


def decode_record(buf, pos: int, tag: int) -> Tuple[object, int]:
    type_id, pos = read_uvarint(buf, pos)
    kind = _BY_ID.get(type_id)
    if kind is None or issubclass(kind, Enum) != (tag == TAG_ENUM):
        raise CodecError(f"tag {tag} names no type with id {type_id}")
    parts = _BY_TYPE[kind][1]
    if tag == TAG_ENUM:
        index, pos = read_uvarint(buf, pos)
        if index >= len(parts):
            raise CodecError(f"{kind.__name__} has no member {index}")
        return parts[index], pos
    values = []
    for _ in parts:
        value, pos = decode_value(buf, pos)
        values.append(value)
    try:
        return kind(*values), pos
    except (TypeError, ValueError, AttributeError) as exc:
        # A field of the wrong type met the record's own validation.
        raise CodecError(f"{kind.__name__} rejects its decoded fields: {exc!r}") from None
