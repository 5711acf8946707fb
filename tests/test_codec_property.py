"""Property tests: every codec round-trips exactly, every decoder is fuzzed.

Each batch codec has two layouts behind one flag byte — columnar, and the
*general* frame (the same list as one tagged value) for inputs the columns
cannot carry.  These tests drive both over adversarial inputs (non-numeric
and unicode object ids, NaN/inf coordinates, empty and single-record
batches) and assert:

* **round-trip equality** — decode(encode(x)) reproduces x bit-for-bit and
  type-exact (floats compared by bit pattern, so NaN payloads count too),
  for every record in the codec's closed table;
* **general-frame correctness** — inputs the columnar layout cannot carry
  still round-trip exactly, and a value with no tag at all is a
  ``CodecError`` where it is encoded;
* **byte determinism** — encoding the same seeded input twice, or through
  two fresh encoder instances, yields byte-identical output (the property
  the exact wire-bytes assertion and the worker-count invariance rest on);
* **hostile bytes** — truncated, bit-flipped, length-inflated, wrong-tag
  and tag-0 input yields the original value or a typed ``repro.errors``
  exception, never anything else.

``pickle`` appears here only as a size yardstick.
"""

from __future__ import annotations

import math
import os
import pickle
import random
import socket
import struct
import tempfile
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bigtable.cost import CostModel, OpCounter
from repro.bigtable.scan import BlockCache
from repro.bigtable.table import ColumnFamily, Table
from repro.bigtable.tablet import TabletOptions, TabletStats
from repro.codec import values, wire
from repro.codec.columns import write_uvarint
from repro.disk.store import StateBlob
from repro.errors import CodecError, ReproError, RpcError, UnrecoverableShardError
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import LocationRecord, NeighborResult, UpdateMessage, format_object_id
from repro.server import rpc
from repro.server.worker import ShardRecipe, ShardService
from repro.tables.affiliation_table import LFRecord, Role
from repro.workload.queries import NNQuery


_F64 = struct.Struct("<d")


def _bits(value: float) -> bytes:
    return _F64.pack(value)


def _update_equal(a: UpdateMessage, b: UpdateMessage) -> bool:
    return (
        a.object_id == b.object_id
        and _bits(a.location.x) == _bits(b.location.x)
        and _bits(a.location.y) == _bits(b.location.y)
        and _bits(a.velocity.dx) == _bits(b.velocity.dx)
        and _bits(a.velocity.dy) == _bits(b.velocity.dy)
        and _bits(a.timestamp) == _bits(b.timestamp)
    )


def _query_equal(a: NNQuery, b: NNQuery) -> bool:
    if _bits(a.location.x) != _bits(b.location.x):
        return False
    if _bits(a.location.y) != _bits(b.location.y):
        return False
    if a.k != b.k:
        return False
    if (a.range_limit is None) != (b.range_limit is None):
        return False
    return a.range_limit is None or _bits(a.range_limit) == _bits(b.range_limit)


def _seeded_updates(seed: int, count: int, ids="numeric"):
    rng = random.Random(seed)
    messages = []
    for index in range(count):
        if ids == "numeric":
            object_id = format_object_id(rng.randrange(10000))
        elif ids == "mixed":
            object_id = rng.choice(
                [format_object_id(index), f"bus-{index}", f"tøg-{index}"]
            )
        else:
            object_id = f"véhicule-{index:04d}"
        messages.append(
            UpdateMessage(
                object_id=object_id,
                location=Point(rng.uniform(0, 1000), rng.uniform(0, 1000)),
                velocity=Vector(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                timestamp=float(index) / 10.0,
            )
        )
    return messages


# --------------------------------------------------------------------------
# Update batches
# --------------------------------------------------------------------------

ADVERSARIAL_UPDATES = [
    [],
    [
        UpdateMessage(
            object_id=format_object_id(7),
            location=Point(1.5, 2.5),
            velocity=Vector(0.0, 0.0),
            timestamp=0.0,
        )
    ],
    _seeded_updates(1, 1, ids="unicode"),
    _seeded_updates(2, 40, ids="mixed"),
    # Extreme-but-finite floats: denormals, negative zero, huge magnitudes
    # and negative timestamps (NaN/inf coordinates cannot exist on this
    # path — ``UpdateMessage`` validates at construction *and* inside
    # ``__reduce__``, so even the pickle twin rejects them; the NaN/inf
    # coverage lives with the query and neighbour codecs below).
    [
        UpdateMessage(
            object_id="not numeric",
            location=Point(-0.0, 5e-324),
            velocity=Vector(-1e300, 1e300),
            timestamp=-1.0,
        )
    ],
    [
        UpdateMessage(
            object_id=format_object_id(3),
            location=Point(1e300, -5e-324),
            velocity=Vector(0.0, -0.0),
            timestamp=1e300,
        )
    ],
]


def test_update_messages_cannot_carry_non_finite_coordinates():
    from repro.errors import SchemaError

    with pytest.raises(SchemaError):
        UpdateMessage(
            object_id="x",
            location=Point(float("nan"), 0.0),
            velocity=Vector(0.0, 0.0),
            timestamp=0.0,
        )


@pytest.mark.parametrize("index", range(len(ADVERSARIAL_UPDATES)))
def test_update_batch_round_trips_adversarial_inputs(index):
    messages = ADVERSARIAL_UPDATES[index]
    body = rpc.encode_update_batch(messages)
    decoded = rpc.decode_update_batch(body)
    assert len(decoded) == len(messages)
    for a, b in zip(messages, decoded):
        assert _update_equal(a, b)


def test_update_batch_non_numeric_ids_take_the_general_frame():
    numeric = _seeded_updates(3, 10, ids="numeric")
    unicode_ids = _seeded_updates(3, 10, ids="unicode")
    assert rpc.encode_update_batch(numeric)[0] == wire.FLAG_COLUMNAR
    assert rpc.encode_update_batch(unicode_ids)[0] == wire.FLAG_GENERAL


def test_update_batch_columnar_beats_pickle_on_the_hot_shape():
    messages = _seeded_updates(4, 256, ids="numeric")
    columnar = rpc.encode_update_batch(messages)
    # Five f64 columns dominate the columnar size (~41 bytes/record);
    # pickle spends roughly double that on the same content.
    assert len(columnar) * 1.8 < len(pickle.dumps(messages))


def test_update_batch_encoding_is_deterministic():
    messages = _seeded_updates(5, 64, ids="numeric")
    assert rpc.encode_update_batch(messages) == rpc.encode_update_batch(messages)
    assert rpc.encode_update_batch(list(messages)) == rpc.encode_update_batch(
        messages
    )


# --------------------------------------------------------------------------
# Query batches
# --------------------------------------------------------------------------

ADVERSARIAL_QUERIES = [
    [],
    [NNQuery(location=Point(1.0, 2.0), k=10)],
    [NNQuery(location=Point(float("nan"), float("inf")), k=1)],
    [NNQuery(location=Point(0.0, 0.0), k=0, range_limit=float("inf"))],
    [
        NNQuery(location=Point(i * 1.0, i * 2.0), k=i % 7, range_limit=None)
        for i in range(30)
    ]
    + [NNQuery(location=Point(5.0, 5.0), k=3, range_limit=12.5)],
]


@pytest.mark.parametrize("index", range(len(ADVERSARIAL_QUERIES)))
def test_query_batch_round_trips_adversarial_inputs(index):
    queries = ADVERSARIAL_QUERIES[index]
    body = rpc.encode_query_batch(queries)
    decoded = rpc.decode_query_batch(body)
    assert len(decoded) == len(queries)
    for a, b in zip(queries, decoded):
        assert _query_equal(a, b)


def test_query_batch_negative_k_takes_the_general_frame():
    queries = [NNQuery(location=Point(1.0, 1.0), k=-1)]
    body = rpc.encode_query_batch(queries)
    assert body[0] == wire.FLAG_GENERAL
    assert rpc.decode_query_batch(body) == queries


def test_query_batch_encoding_is_deterministic():
    rng = random.Random(8)
    queries = [
        NNQuery(
            location=Point(rng.uniform(0, 1000), rng.uniform(0, 1000)),
            k=rng.randrange(1, 20),
            range_limit=rng.choice([None, rng.uniform(1, 100)]),
        )
        for _ in range(50)
    ]
    assert rpc.encode_query_batch(queries) == rpc.encode_query_batch(queries)


# --------------------------------------------------------------------------
# The stateful neighbour stream
# --------------------------------------------------------------------------


def _results_for(queries, objects):
    """NeighborResults with the exact distance identity the codec verifies."""
    batches = []
    for query in queries:
        batch = []
        for object_id, point, leader in objects:
            batch.append(
                NeighborResult(
                    object_id=object_id,
                    location=point,
                    distance=point.distance_to(query.location),
                    is_leader=leader is None,
                    leader_id=leader,
                )
            )
        batches.append(batch)
    return batches


def _stream_pair():
    return wire.NeighborStreamEncoder(), wire.NeighborStreamDecoder()


def _assert_batches_equal(decoded, expected):
    assert len(decoded) == len(expected)
    for da, ea in zip(decoded, expected):
        assert len(da) == len(ea)
        for d, e in zip(da, ea):
            assert d.object_id == e.object_id
            assert _bits(d.location.x) == _bits(e.location.x)
            assert _bits(d.location.y) == _bits(e.location.y)
            assert _bits(d.distance) == _bits(e.distance)
            assert d.is_leader == e.is_leader
            assert d.leader_id == e.leader_id


def test_neighbor_stream_round_trips_and_shrinks_repeats():
    encoder, decoder = _stream_pair()
    queries = [NNQuery(location=Point(10.0, 20.0), k=5)]
    objects = [
        (format_object_id(i), Point(i * 3.0, i * 5.0), None) for i in range(5)
    ]
    batches = _results_for(queries, objects)

    first = encoder.encode(batches, queries)
    _assert_batches_equal(decoder.decode(first, queries), batches)
    second = encoder.encode(batches, queries)
    _assert_batches_equal(decoder.decode(second, queries), batches)
    # Unchanged records cost a couple of bytes each on the repeat frame.
    assert len(second) < len(first) / 3


def test_neighbor_stream_ships_non_numeric_ids_general_and_resyncs():
    encoder, decoder = _stream_pair()
    queries = [NNQuery(location=Point(0.0, 0.0), k=3)]
    good = _results_for(queries, [(format_object_id(1), Point(3.0, 4.0), None)])
    weird = _results_for(queries, [("bus-17", Point(1.0, 1.0), None)])

    frame = encoder.encode(good, queries)
    assert frame[0] == wire.FLAG_COLUMNAR
    _assert_batches_equal(decoder.decode(frame, queries), good)

    general = encoder.encode(weird, queries)
    assert general[0] == wire.FLAG_GENERAL
    _assert_batches_equal(decoder.decode(general, queries), weird)

    # The general frame left both dictionaries untouched: the stream
    # carries on columnar with the tokens it already assigned.
    resumed = encoder.encode(good, queries)
    assert resumed[0] == wire.FLAG_COLUMNAR
    _assert_batches_equal(decoder.decode(resumed, queries), good)


def test_neighbor_stream_carries_nan_distances_columnar():
    """Same-bit NaN distances pass the bitwise identity check and ride the
    columnar path — reconstructed bit-exactly on the far side."""
    encoder, decoder = _stream_pair()
    queries = [NNQuery(location=Point(float("nan"), 0.0), k=1)]
    batches = _results_for(
        queries, [(format_object_id(2), Point(1.0, 2.0), None)]
    )
    assert math.isnan(batches[0][0].distance)
    frame = encoder.encode(batches, queries)
    assert frame[0] == wire.FLAG_COLUMNAR
    decoded = decoder.decode(frame, queries)
    assert _bits(decoded[0][0].distance) == _bits(batches[0][0].distance)


def test_neighbor_stream_rejects_out_of_order_frames():
    encoder, decoder = _stream_pair()
    queries = [NNQuery(location=Point(0.0, 0.0), k=1)]
    batches = _results_for(queries, [(format_object_id(1), Point(1.0, 0.0), None)])
    first = encoder.encode(batches, queries)
    decoder.decode(first, queries)
    with pytest.raises(RpcError):
        decoder.decode(first, queries)  # replayed frame


def test_neighbor_stream_bytes_are_deterministic_across_fresh_pairs():
    queries = [NNQuery(location=Point(50.0, 50.0), k=8)]
    rng = random.Random(13)
    objects = [
        (
            format_object_id(i),
            Point(rng.uniform(0, 100), rng.uniform(0, 100)),
            None,
        )
        for i in range(8)
    ]
    batches = _results_for(queries, objects)
    frames_a = []
    frames_b = []
    for frames in (frames_a, frames_b):
        encoder = wire.NeighborStreamEncoder()
        frames.append(encoder.encode(batches, queries))
        frames.append(encoder.encode(batches, queries))
    assert frames_a == frames_b


def test_neighbor_stream_refuses_a_subclassed_result_without_losing_sync():
    class Decorated(NeighborResult):
        pass

    encoder, decoder = _stream_pair()
    queries = [NNQuery(location=Point(0.0, 0.0), k=1)]
    good = _results_for(queries, [(format_object_id(1), Point(3.0, 4.0), None)])
    with pytest.raises(CodecError, match="no value tag"):
        encoder.encode([[Decorated("obj0000000001", Point(3.0, 4.0), 5.0, True)]], queries)
    # The refused frame was never counted: the next one is still frame 0.
    _assert_batches_equal(decoder.decode(encoder.encode(good, queries), queries), good)


# --------------------------------------------------------------------------
# CALL results: one tagged value, exact
# --------------------------------------------------------------------------


def _counter_snapshot():
    from repro.bigtable.cost import OpKind

    counter = OpCounter(model=CostModel())
    counter.record(OpKind.READ, rows=3)
    counter.record(OpKind.WRITE, rows=2)
    counter.record_durability(OpKind.LOG_APPEND, rows=2)
    return counter.snapshot()


_TABLET_STATS = [
    TabletStats(
        table="location",
        tablet_id="location/tablet-0001",
        start_key="",
        end_key=None,
        row_count=10,
        op_calls=4,
        simulated_seconds=0.5,
        read_seconds=0.25,
        write_seconds=0.25,
        run_count=2,
        log_records=7,
        durability_seconds=0.125,
        write_amplification=1.5,
    ),
    TabletStats(
        table="location",
        tablet_id="location/tablet-0002",
        start_key="8000",
        end_key="c000",
        row_count=0,
        op_calls=0,
        simulated_seconds=0.0,
        read_seconds=0.0,
        write_seconds=0.0,
    ),
]

RESULT_VALUES = [
    None,
    True,
    False,
    0,
    12345678901234567890,
    -1,
    3.25,
    float("nan"),
    "plain string",
    "tøg-ünïcode",
    "",
    (1, 2, 3),
    {
        "makespan": 1.5,
        "servers": [],
        "master_actions": (0, 0, 0),
        "has_master": False,
        "worker_phase": {},
    },
    {
        "makespan": 0.25,
        "servers": [(3, 4, 0.1, 0.2, True), (0, 0, 0.0, 0.0, False)],
        "master_actions": (1, 2, 3),
        "has_master": True,
        "worker_phase": {"decode": 0.5, "apply": 1.25},
    },
    [],
    _TABLET_STATS,
    _counter_snapshot(),
]


@pytest.mark.parametrize("index", range(len(RESULT_VALUES)))
def test_result_codec_round_trips_exactly(index):
    value = RESULT_VALUES[index]
    body = rpc.encode_result(value)
    decoded = rpc.decode_result(body)
    if isinstance(value, float) and math.isnan(value):
        assert math.isnan(decoded)
    else:
        assert decoded == value
        assert type(decoded) is type(value)
        assert repr(decoded) == repr(value)  # nested types too
    assert rpc.encode_result(decoded) == body  # byte-deterministic


def test_tablet_stats_result_bytes_are_interning_independent():
    """Equal payloads encode to equal bytes whether or not equal strings
    are the same object (a memoising serialiser's sizes depend on it)."""
    shared = "location"
    rows_shared = [
        TabletStats(shared, f"{shared}/tablet-000{i}", "", None, 1, 1, 0.0, 0.0, 0.0)
        for i in range(3)
    ]
    rows_distinct = [
        TabletStats(
            "".join("location"),
            f"{'loc' + 'ation'}/tablet-000{i}",
            "",
            None,
            1,
            1,
            0.0,
            0.0,
            0.0,
        )
        for i in range(3)
    ]
    assert rpc.encode_result(rows_shared) == rpc.encode_result(rows_distinct)


def test_untagged_results_are_a_codec_error_at_the_sender():
    for value in [{"arbitrary": [1, 2, {3}]}, object, Ellipsis, 1 + 2j, frozenset()]:
        with pytest.raises(CodecError, match="no value tag"):
            rpc.encode_result(value)


# --------------------------------------------------------------------------
# The closed record table (tags 17 and 18)
# --------------------------------------------------------------------------
def _record_samples() -> list:
    from repro.bigtable.cost import OpKind
    from repro.bigtable.lsm import RecoveryReport, TableRecovery
    from repro.bigtable.scan import TabletCacheStats
    from repro.bigtable.table import ColumnFamily
    from repro.bigtable.tablet import TabletOptions
    from repro.server.cluster import ServerFailoverReport
    from repro.server.master import (
        MasterOptions,
        MigrationRecord,
        RebalanceReport,
        ReplicationRecord,
    )
    from repro.server.worker import ShardRecipe

    recovery = TableRecovery("location", 3, 2, 40, 17, 0.0125)
    migration = MigrationRecord("spatial", "spatial/tablet-0002", 0, 1, 96, 12, True)
    crashed = MigrationRecord("spatial", "spatial/tablet-0003", 1, 0, 0, 0, False, "handoff")
    replication = ReplicationRecord("location", "location/tablet-0001", 2, 64)
    return [
        ShardRecipe(num_objects=10),
        ShardRecipe(
            num_objects=300,
            num_shards=4,
            shard_id=3,
            with_master=True,
            master_options=MasterOptions(max_replicas=2),
            tablet_options=TabletOptions(memtable_flush_rows=16),
            storage_dir="/tmp/moist-disk-x",
            durable_accounting=True,
        ),
        MasterOptions(),
        TabletOptions(),
        ColumnFamily("mem", max_versions=3),
        _counter_snapshot(),
        *_TABLET_STATS,
        TabletCacheStats("location", "location/tablet-0001", 7, 2),
        RecoveryReport(),
        RecoveryReport((recovery, recovery)),
        recovery,
        migration,
        crashed,
        replication,
        RebalanceReport((migration, crashed), (replication,), 1.75, 1.125),
        ServerFailoverReport(1, (recovery,), (("location/tablet-0001", 0),), ("spatial/tablet-0002",)),
        *_seeded_updates(2, 3, ids="mixed"),
        NNQuery(Point(1.0, 2.0), 5),
        NNQuery(Point(float("nan"), -0.0), -1, 12.5),
        *OpKind,
    ]


def test_every_registered_record_round_trips_type_exact():
    from repro.codec import records

    samples = _record_samples()
    registered = {kind for _, kind in records.TYPES}
    assert {type(sample) for sample in samples} == registered
    for sample in samples:
        out = bytearray(b"\xff")  # decode from a non-zero offset
        values.encode_value(out, sample)
        assert out[1] in (values.TAG_RECORD, values.TAG_ENUM)
        decoded, end = values.decode_value(bytes(out), 1)
        assert end == len(out)
        assert type(decoded) is type(sample)
        assert repr(decoded) == repr(sample)  # NaN-proof, nested types too
        again = bytearray(b"\xff")
        values.encode_value(again, decoded)
        assert again == out  # byte-deterministic, so float bits survived
        # ... and the same through a CALL, as an argument and as a result.
        assert repr(rpc.decode_call(rpc.encode_call("verb", (sample,), {"x": sample}))) == repr(
            ("verb", (sample,), {"x": sample})
        )
        assert repr(rpc.decode_result(rpc.encode_result([sample]))) == repr([sample])


def test_record_table_is_closed_and_rejects_duplicates():
    from repro.codec import records
    from repro.server.worker import ShardRecipe

    class Lookalike(ShardRecipe):
        pass

    with pytest.raises(CodecError, match="no value tag"):
        values.encode_value(bytearray(), Lookalike(num_objects=1))
    ids = [type_id for type_id, _ in records.TYPES]
    assert ids == list(range(1, len(ids) + 1))  # append-only, never renumbered
    with pytest.raises(AssertionError):
        records._index(records.TYPES + ((1, TabletStats),))
    with pytest.raises(AssertionError):
        records._index(records.TYPES + ((99, ShardRecipe),))
    # An id outside the table, a record id behind the enum tag (and the
    # reverse), a member outside the enum, and fields the record's own
    # validation refuses are all the reader's CodecError.
    for body in (
        bytes([values.TAG_RECORD, 99]),
        bytes([values.TAG_ENUM, 3, 0]),
        bytes([values.TAG_RECORD, 16]),
        bytes([values.TAG_ENUM, 16, 200]),
        bytes([values.TAG_RECORD, 3]) + bytes([values.TAG_STR, 0]) * 7,  # TabletOptions("", ...)
    ):
        with pytest.raises(CodecError):
            values.decode_value(body, 0)


# --------------------------------------------------------------------------
# Tagged values: the three domain records (tags 13-15)
# --------------------------------------------------------------------------
_finite = st.floats(allow_nan=False, allow_infinity=False)
_ids = st.one_of(
    st.integers(0, 10**9).map(format_object_id), st.text(max_size=12)
)
_points = st.builds(Point, _finite, _finite)
_vectors = st.builds(Vector, _finite, _finite)
_location_records = st.builds(LocationRecord, _points, _vectors, st.floats())
_lf_records = st.one_of(
    st.builds(LFRecord, st.just(Role.LEADER), st.floats()),
    st.builds(LFRecord, st.just(Role.FOLLOWER), st.floats(), _ids, _vectors),
)
_neighbors = st.builds(
    NeighborResult, _ids, _points, st.floats(), st.booleans(),
    st.one_of(st.none(), _ids),
)
_TAG_OF = {
    LocationRecord: values.TAG_LOCATION_RECORD,
    LFRecord: values.TAG_LF_RECORD,
    NeighborResult: values.TAG_NEIGHBOR,
}


def _float_bits(obj) -> list:
    """Every float reachable from a record, as bit patterns (-0.0 != 0.0,
    NaN == NaN) — equality alone cannot tell those apart.  Records are
    tuples (``LocationRecord``, ``LFRecord``, ``NeighborResult``, rows at
    rest) or dataclasses (``Point``, ``Vector``)."""
    if isinstance(obj, float):
        return [_bits(obj)]
    if isinstance(obj, (str, bool, int, type(None), Role)):
        return []
    if isinstance(obj, tuple):
        items = obj
    else:
        items = [getattr(obj, name) for name in obj.__dataclass_fields__]
    return [bits for item in items for bits in _float_bits(item)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(_location_records, _lf_records, _neighbors))
@example(LocationRecord(Point(-0.0, 0.0), Vector(0.0, -0.0), -0.0))
@example(LFRecord(Role.FOLLOWER, 0.0, "", Vector(-0.0, 5e-324)))
@example(NeighborResult("obj0000000001", Point(1.0, 2.0), 0.0, False, None))
def test_domain_records_round_trip_typed(record):
    out = bytearray(b"\xff")  # decode from a non-zero offset
    values.encode_value(out, record)
    assert out[1] == _TAG_OF[type(record)]
    decoded, end = values.decode_value(bytes(out), 1)
    assert end == len(out)
    assert type(decoded) is type(record)
    assert repr(decoded) == repr(record)  # NaN-proof, field by field
    assert _float_bits(decoded) == _float_bits(record)
    again = bytearray(b"\xff")
    values.encode_value(again, decoded)
    assert again == out  # byte-deterministic


def test_typed_records_are_several_times_smaller_than_pickle():
    record = LocationRecord(Point(1.5, 2.5), Vector(0.25, -1.0), 3.0)
    typed = bytearray()
    values.encode_value(typed, record)
    assert len(typed) == 41
    assert len(pickle.dumps(record, pickle.HIGHEST_PROTOCOL)) > 3 * len(typed)


@pytest.mark.parametrize(
    "record",
    [
        LocationRecord(Point(1.0, 2.0), Vector(0.0, 0.0), 3),  # int timestamp
        LFRecord(Role.LEADER, 7),
        LFRecord(Role.FOLLOWER, 1.0, 42, Vector(0.0, 0.0)),  # non-str leader
        NeighborResult("a", Point(0.0, 0.0), 1, True),  # int distance
        NeighborResult("a", Point(0.0, 0.0), 1.0, 1),  # int flag
    ],
)
def test_off_shape_records_are_a_codec_error_at_the_sender(record):
    # A structural re-encode would bring the int back a float (or drop a
    # subclass's state), so the sender hears about it instead.
    out = bytearray()
    with pytest.raises(CodecError, match="no value tag"):
        values.encode_value(out, record)


def test_nested_dedup_entry_round_trips():
    entry = (
        17,
        rpc.OP_QUERY_BATCH,
        (
            [
                [
                    NeighborResult("obj0000000003", Point(1.0, 2.0), 0.5, True),
                    NeighborResult("obj0000000004", Point(3.0, 4.0), 1.5, False,
                                   "obj0000000003"),
                ],
                [],
            ],
            0.125,
        ),
    )
    out = bytearray()
    values.encode_value(out, entry)
    assert values.decode_value(bytes(out), 0) == (entry, len(out))


# --------------------------------------------------------------------------
# Tagged values: rows at rest (tag 16, a tuple of floats)
# --------------------------------------------------------------------------
_any_float = st.floats(allow_nan=True, allow_infinity=True)
_nan_payloads = st.integers(1, (1 << 51) - 1).map(
    lambda payload: struct.unpack("<d", struct.pack("<Q", 0x7FF8 << 48 | payload))[0]
)
_float_rows = st.lists(
    st.one_of(_any_float, _nan_payloads), min_size=1, max_size=9
).map(tuple)


@settings(max_examples=300, deadline=None)
@given(_float_rows)
@example((-0.0, 0.0))
@example((float("inf"), float("-inf"), float("nan"), 5e-324, -1e300))
def test_float_rows_round_trip_by_bit_pattern(row):
    out = bytearray(b"\xff")  # decode from a non-zero offset
    values.encode_value(out, row)
    assert out[1] == values.TAG_FLOAT_TUPLE
    assert len(out) == 3 + 8 * len(row)  # pad, tag, one-byte count, n x f64
    decoded, end = values.decode_value(bytes(out), 1)
    assert end == len(out)
    assert type(decoded) is tuple
    assert _float_bits(decoded) == _float_bits(row)
    again = bytearray(b"\xff")
    values.encode_value(again, decoded)
    assert again == out  # byte-deterministic


_atoms = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**40), 2**40), _finite, st.text(max_size=6)
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_atoms, max_size=7).map(tuple))
@example(())
@example((1.0, 2))  # pack("d", 2) would bring the int back as 2.0
@example((True, 0.0))
@example(("L", 1.0, None, None, None))  # a leader's L/F row
@example(("F", 1.0, "obj0000000001", -0.0, 5e-324))  # a follower's
def test_mixed_tuples_keep_the_generic_tag_and_their_types(row):
    out = bytearray()
    values.encode_value(out, row)
    all_float = bool(row) and all(type(item) is float for item in row)
    assert out[0] == (values.TAG_FLOAT_TUPLE if all_float else values.TAG_TUPLE)
    decoded, end = values.decode_value(bytes(out), 0)
    assert end == len(out)
    assert decoded == row
    assert [type(item) for item in decoded] == [type(item) for item in row]
    assert _float_bits(decoded) == _float_bits(row)


def test_float_rows_cost_one_count_byte_over_the_typed_record():
    record = LocationRecord(Point(1.5, 2.5), Vector(0.25, -1.0), 3.0)
    typed, row = bytearray(), bytearray()
    values.encode_value(typed, record)
    values.encode_value(row, tuple(record))
    assert typed[0] == values.TAG_LOCATION_RECORD and row[0] == values.TAG_FLOAT_TUPLE
    assert len(row) == len(typed) + 1 == 42
    assert row[2:] == typed[1:]  # the same five doubles


# --------------------------------------------------------------------------
# Hostile bytes: every decoder, one property
# --------------------------------------------------------------------------
_FUZZ_QUERIES = [NNQuery(Point(10.0, 20.0), 3), NNQuery(Point(0.0, 0.0), 2)]
_FUZZ_OBJECTS = [
    (format_object_id(1), Point(3.0, 4.0), None),
    (format_object_id(2), Point(-1.5, 0.25), format_object_id(1)),
]
_INFLATED_COUNT = bytearray()
write_uvarint(_INFLATED_COUNT, 2**60)


def _decode_error(data):
    error = rpc.decode_error(data)
    assert isinstance(error, ReproError)  # it *returns* the typed exception
    return error


def _read_frame(data):
    left, right = socket.socketpair()
    try:
        right.settimeout(5.0)
        left.sendall(data)
        left.close()  # EOF after the bytes: a short frame cannot block
        return rpc.read_frame(right)
    finally:
        left.close()
        right.close()


def _read_state_body(body: bytes):
    """The accounting blob's body decoder, reached the way a restore reaches
    it: the damaged body written as a slot, so its length and crc are valid
    and the damage gets past the slot checks and into the decoder."""
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "SHARD_STATE.bin")
        StateBlob(path).write(body)
        return StateBlob(path).read()


def _read_state_file(data: bytes):
    """A whole accounting file — header, both slots — read by a restore."""
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "SHARD_STATE.bin")
        with open(path, "wb") as handle:
            handle.write(data)
        return StateBlob(path).read()


def _state_file() -> bytes:
    """The file after two writes: both slots valid, the second newer."""
    body = values.unpack_value(_STATE_BODY)
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "SHARD_STATE.bin")
        blob = StateBlob(path)
        blob.write(_STATE_BODY)
        blob.write(values.pack_value(dict(body, dedup=())))
        with open(path, "rb") as handle:
            return handle.read()


def _state_body() -> bytes:
    """What a small shard with a master checkpoints after one round."""
    service = ShardService()
    service.build_indexer(
        ShardRecipe(num_objects=24, num_servers=2, with_master=True, seed=3)
    )
    service.update_batch(_seeded_updates(24, 8, ids="numeric"))
    service._slot = (8, rpc.OP_QUERY_BATCH, service.query_batch(_FUZZ_QUERIES))
    return values.pack_value(service.accounting_state())


def _block_cache_body() -> bytes:
    """A warm block cache's snapshot: blocks of several tablets, from the
    memtable and from runs."""
    table = Table(
        "t", [ColumnFamily("f")],
        options=TabletOptions(split_threshold=8, merge_threshold=2, memtable_flush_rows=6),
    )
    for index in range(20):
        table.write(f"{index * 7919 % 4096:06x}", "f", "q", index, 0.0)
    table.scan(family="f")
    table.scan(family="f")
    return values.pack_value(table.cache.export_state())


def _install_block_cache(body: bytes):
    """A block-cache snapshot installed the way the accounting walk
    (``ShardService._install_accounting``) installs it: a refusal is the
    walk's typed error.  An install that goes through must be exact — one
    key per snapshot entry, each block as long as the entry says, together
    spelling the whole blocks column."""
    state = values.unpack_value(body)
    cache = BlockCache()
    try:
        cache.install_state(state)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise UnrecoverableShardError(f"snapshot does not fit: {exc!r}") from exc
    lengths = list(array("I", state["block_len"]))
    assert [len(block) for _, _, block in cache.lru] == lengths
    assert sum(lengths) == len(state["blocks"])
    return list(cache.lru), cache._hits, cache._misses


def _fuzz_cases() -> dict:
    """``name -> (decoder, well-formed bytes)`` for every decoder that
    reads bytes from a socket or a file."""
    value = bytearray()
    values.encode_value(
        value,
        (
            17,
            {"k": [1.5, None, True, b"raw", -3], "row": (1.0, -0.0)},
            [_results_for(_FUZZ_QUERIES, _FUZZ_OBJECTS), 0.125],
            LocationRecord(Point(1.0, 2.0), Vector(0.5, -0.5), 3.0),
            LFRecord(Role.FOLLOWER, 1.0, "obj0000000001", Vector(1.0, 2.0)),
            _record_samples()[1],
            _counter_snapshot(),
        ),
    )
    weird = [("bus-17", Point(1.0, 1.0), None)]
    return {
        "value": (lambda data: values.decode_value(data, 0), bytes(value)),
        "update_columnar": (
            rpc.decode_update_batch,
            rpc.encode_update_batch(_seeded_updates(6, 5, ids="numeric")),
        ),
        "update_general": (
            rpc.decode_update_batch,
            rpc.encode_update_batch(_seeded_updates(6, 3, ids="unicode")),
        ),
        "query_columnar": (
            rpc.decode_query_batch,
            rpc.encode_query_batch(ADVERSARIAL_QUERIES[4][-4:]),
        ),
        "query_general": (
            rpc.decode_query_batch,
            rpc.encode_query_batch([NNQuery(Point(1.0, 1.0), -1, 4.5)]),
        ),
        "neighbor_columnar": (
            lambda data: wire.NeighborStreamDecoder().decode(data, _FUZZ_QUERIES),
            wire.NeighborStreamEncoder().encode(
                _results_for(_FUZZ_QUERIES, _FUZZ_OBJECTS), _FUZZ_QUERIES
            ),
        ),
        "neighbor_general": (
            lambda data: wire.NeighborStreamDecoder().decode(data, _FUZZ_QUERIES),
            wire.NeighborStreamEncoder().encode(
                _results_for(_FUZZ_QUERIES, weird), _FUZZ_QUERIES
            ),
        ),
        "call": (
            rpc.decode_call,
            rpc.encode_call("build_indexer", (_record_samples()[1],), {"x": 1}),
        ),
        "result": (rpc.decode_result, rpc.encode_result(RESULT_VALUES[13])),
        "error": (_decode_error, rpc.encode_error(RpcError("no such server"))),
        "frame": (
            _read_frame,
            rpc.encode_frame(rpc.KIND_RESPONSE, 7, 3, rpc.OP_CALL, rpc.encode_result("pong")),
        ),
        "state_blob": (_read_state_body, _STATE_BODY),
        "state_file": (_read_state_file, _state_file()),
        "block_cache_state": (_install_block_cache, _block_cache_body()),
    }


_STATE_BODY = _state_body()
_FUZZ_CASES = _fuzz_cases()
#: The first byte of the snapshot's ``block_len`` column (a tag byte and a
#: one-byte length follow the key).
_BLOCK_LEN_AT = _FUZZ_CASES["block_cache_state"][1].index(b"block_len") + len("block_len") + 2
_positions = st.integers(0, 10_000)  # taken modulo the sample's length
_mutations = st.one_of(
    st.tuples(st.just("none"), st.none()),
    st.tuples(st.just("truncate"), _positions),
    st.tuples(
        st.just("flip"),
        st.lists(st.tuples(_positions, st.integers(0, 7)), min_size=1, max_size=3),
    ),
    st.tuples(st.just("inflate"), _positions),
    st.tuples(st.just("tag"), st.tuples(_positions, st.integers(0, 255))),
    st.tuples(st.just("garbage"), st.binary(max_size=48)),
)


def _mutate(good: bytes, mutation) -> bytes:
    kind, argument = mutation
    data = bytearray(good)
    if kind == "truncate":
        del data[argument % len(data):]
    elif kind == "flip":
        for position, bit in argument:
            data[position % len(data)] ^= 1 << bit
    elif kind == "inflate":  # a count or length becomes 2^60
        position = argument % len(data)
        data[position : position + 1] = _INFLATED_COUNT
    elif kind == "tag":
        data[argument[0] % len(data)] = argument[1]
    elif kind == "garbage":
        data = argument
    return bytes(data)


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(sorted(_FUZZ_CASES)), _mutations)
@example("value", ("tag", (0, 0)))  # the retired tag, outermost ...
@example("value", ("tag", (2, 0)))  # ... and nested
@example("result", ("tag", (0, 0)))
@example("call", ("tag", (0, 0)))
@example("error", ("tag", (0, 0)))
@example("update_general", ("tag", (1, 0)))
@example("neighbor_general", ("tag", (2, 0)))
@example("value", ("tag", (0, 19)))  # the first unassigned tag
@example("value", ("inflate", 1))  # the outer tuple's count
@example("update_columnar", ("inflate", 1))
@example("query_columnar", ("inflate", 1))
@example("neighbor_columnar", ("inflate", 2))  # the batch count
@example("neighbor_columnar", ("inflate", 3))  # a batch's record count
@example("frame", ("inflate", 0))
@example("state_blob", ("tag", (0, 0)))
@example("state_blob", ("tag", (0, 9)))  # a list where the section dict goes
@example("state_blob", ("inflate", 1))  # the section count
@example("state_blob", ("truncate", 4000))
@example("state_file", ("flip", [(4, 0)]))  # the slot capacity
@example("state_file", ("flip", [(12, 0)]))  # slot 0's sequence number
@example("state_file", ("inflate", 20))  # slot 0's body length
@example("frame", ("flip", [(0, 5)]))  # a length prefix of half a gigabyte
# Block lengths that no longer sum to the blocks column: one too many, two
# too few (a crc-valid snapshot that used to install the wrong keys).
@example("block_cache_state", ("flip", [(_BLOCK_LEN_AT, 0)]))
@example("block_cache_state", ("flip", [(_BLOCK_LEN_AT, 1)]))
def test_every_decoder_answers_hostile_bytes_with_a_value_or_a_typed_error(name, mutation):
    decode, good = _FUZZ_CASES[name]
    try:
        outcome = decode(_mutate(good, mutation))
    except ReproError:
        return  # typed: the only exception a decoder may raise
    if mutation[0] == "none":
        assert repr(outcome) == repr(decode(good))


def test_nesting_deeper_than_the_interpreter_stack_is_a_typed_error():
    with pytest.raises(CodecError):
        values.decode_value(bytes([values.TAG_LIST, 1]) * 50_000, 0)
