"""Rows at rest, records at the edge.

Everything a tablet retains per version — memtable rows and frozen runs —
must be an exact ``tuple`` of atoms, which CPython
drops from the cycle collector's lists at the first collection that sees it;
named records exist only where a read method hands them out.  Three things
are pinned here:

* **(a) at rest** — after a program that exercises every writer (updates,
  clustering, a promotion, aging, the archive drain, flushes and
  compactions) nothing reachable from a table is tracked except the row
  dictionaries themselves;
* **(b) at the edge** — the tuple-backed ``LocationRecord`` / ``LFRecord``
  behave like the frozen dataclasses they replaced, which are kept below as
  the reference;
* **(c) on the shed path** — the estimation error computed on bare rows is
  bit-equal to ``record.extrapolated(t).displaced(d).distance_to(p)``.
"""

from __future__ import annotations

import gc
import pickle
import struct
from dataclasses import dataclass, replace
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bigtable.lsm import TOMBSTONE
from repro.bigtable.tablet import TabletOptions
from repro.core.moist import MoistIndexer
from repro.core.update import UpdateOutcome
from repro.errors import SchemaError
from repro.experiments.common import school_config
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import LocationRecord as TupleLocationRecord
from repro.model import UpdateMessage
from repro.tables.affiliation_table import LFRecord as TupleLFRecord
from repro.tables.affiliation_table import Role

from helpers import make_update

ATOMS = (str, float, int, type(None))


# --------------------------------------------------------------------------
# (a) at rest
# --------------------------------------------------------------------------
def _assert_plain(value, where) -> None:
    """``value`` is an atom, or an exact untracked tuple of them."""
    if type(value) in ATOMS:
        return
    assert type(value) is tuple, f"{where}: {type(value).__name__} {value!r}"
    assert not gc.is_tracked(value), f"{where}: tracked {value!r}"
    for item in value:
        _assert_plain(item, where)


def _assert_row_plain(row, where) -> int:
    chains = 0
    for family, qualifiers in row.items():
        for qualifier, chain in qualifiers.items():
            spot = f"{where}/{family}:{qualifier}"
            assert type(chain) is tuple and len(chain) % 2 == 0, spot
            if chain:  # () is a shared constant
                assert not gc.is_tracked(chain), f"{spot}: tracked chain"
            for timestamp in chain[0::2]:
                assert type(timestamp) in (float, int), spot
            for value in chain[1::2]:
                _assert_plain(value, spot)
            chains += 1
    return chains


def _mixed_program(indexer: MoistIndexer) -> None:
    # Three lanes of co-moving objects (one school each after clustering)
    # and a few loners.
    def fleet(t: float):
        return [
            make_update(lane * 10 + slot, 20.0 + 3.0 * slot + t, 40.0 * (lane + 1),
                        vx=1.0, vy=0.0, t=t)
            for lane in range(3)
            for slot in range(6)
        ] + [
            make_update(100 + n, 250.0 - 7.0 * n, 20.0 + 11.0 * n,
                        vx=-0.5 * n, vy=0.25, t=t)
            for n in range(5)
        ]

    indexer.update_many(fleet(0.0))
    report = indexer.run_clustering(now=0.5)
    assert report.merges > 0
    for t in range(1, 12):
        indexer.update_many(fleet(float(t)))  # followers are shed, leaders move
    assert indexer.update_stats.shed > 0
    # One follower leaves its school: a promotion rewrites three tables.
    follower = next(
        object_id
        for object_id in indexer.affiliation_table.table.all_keys()
        if indexer.affiliation_table.role_of(object_id).role is Role.FOLLOWER
    )
    stray = UpdateMessage(follower, Point(290.0, 290.0), Vector(0.0, 2.0), 12.0)
    assert indexer.update(stray).outcome is UpdateOutcome.PROMOTED
    indexer.run_clustering(now=12.5)
    assert indexer.location_table.age_out(6.0) > 0
    assert indexer.archive_aged(now=13.0)["archived"] > 0  # aging interval 4 s
    indexer.update_many(fleet(14.0))


def test_everything_a_tablet_retains_is_an_untracked_tuple_of_atoms():
    indexer = MoistIndexer(
        replace(school_config(), aging_interval_s=4.0),
        tablet_options=TabletOptions(memtable_flush_rows=16, compaction_max_runs=2),
    )
    _mixed_program(indexer)
    emulator = indexer.emulator
    for name in emulator.table_names():
        # Leave some rows in runs and some in the memtable.
        emulator.table(name).flush_memtables()
        emulator.table(name).compact_runs()
    indexer.update_many([make_update(n, 30.0 + n, 45.0, t=15.0) for n in range(40, 52)])

    # A row of atoms is untracked by the first collection that sees it, a
    # chain by the first that finds its rows untracked: the same one when
    # the row precedes the chain in the collector's list (creation order,
    # unless the collector itself moved a row it reached only through its
    # chain), the next otherwise.  Never more than two.
    gc.collect()
    gc.collect()

    seen = {"memtable": 0, "run": 0}
    shapes = set()
    for name in emulator.table_names():
        for tablet in emulator.table(name).tablets():
            for key, row in tablet.rows.items():
                if row is not TOMBSTONE:
                    seen["memtable"] += _assert_row_plain(row, f"{name}/{key}")
            for run in tablet.runs:
                for key, row in zip(run._keys, run._values):
                    if row is not TOMBSTONE:
                        where = f"{name}/{run.run_id}/{key}"
                        seen["run"] += _assert_row_plain(row, where)
                        shapes.update(
                            len(value)
                            for qualifiers in row.values()
                            for chain in qualifiers.values()
                            for value in chain[1::2]
                        )
    # The program really left state in both places, in every row shape:
    # (x, y) / (dx, dy) pairs and five-field location and L/F rows.
    assert all(seen.values()), seen
    assert shapes == {2, 5}
    assert any(columns for _, columns in emulator.table("location").scan(family="aged-0"))
    roles = {
        record[0]
        for record in indexer.affiliation_table.batch_roles(
            indexer.affiliation_table.table.all_keys()
        ).values()
    }
    assert roles == {"L", "F"}


# --------------------------------------------------------------------------
# (b) at the edge: the frozen dataclasses the records replaced, as reference
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class LocationRecord:
    location: Point
    velocity: Vector
    timestamp: float

    def __post_init__(self) -> None:
        if not self.location.is_finite() or not self.velocity.is_finite():
            raise SchemaError("location records require finite coordinates")

    def extrapolated(self, at_time: float) -> Point:
        dt = at_time - self.timestamp
        return Point(
            self.location.x + self.velocity.dx * dt,
            self.location.y + self.velocity.dy * dt,
        )


@dataclass(frozen=True)
class LFRecord:
    role: Role
    timestamp: float
    leader_id: Optional[str] = None
    displacement: Optional[Vector] = None

    def __post_init__(self) -> None:
        if self.role is Role.FOLLOWER:
            if self.leader_id is None or self.displacement is None:
                raise SchemaError("follower L/F records need a leader and displacement")
        elif self.leader_id is not None or self.displacement is not None:
            raise SchemaError("leader L/F records must not carry follower fields")


def _bits(point: Point) -> bytes:
    return struct.pack("<2d", point.x, point.y)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_small = st.sampled_from([0.0, -0.0, 1.0, 2.5])  # collisions, and -0.0 == 0.0
_coordinate = st.one_of(_finite, _small)
_timestamps = st.one_of(st.floats(allow_nan=False), _small, st.integers(-5, 5))
_points = st.builds(Point, _coordinate, _coordinate)
_vectors = st.builds(Vector, _coordinate, _coordinate)
_location_args = st.tuples(_points, _vectors, _timestamps)
_lf_args = st.one_of(
    st.tuples(st.just(Role.LEADER), _timestamps),
    st.tuples(
        st.just(Role.FOLLOWER), _timestamps, st.text(max_size=4), _vectors
    ),
)


def _pairs(args):
    """Two argument tuples, equal more often than chance would make them."""
    return st.one_of(st.tuples(args, args), args.map(lambda one: (one, one)))


def _assert_same_behaviour(new_type, old_type, first, second, fields):
    new, old = new_type(*first), old_type(*first)
    other_new, other_old = new_type(*second), old_type(*second)
    for name in fields:
        assert getattr(new, name) == getattr(old, name)
        assert type(getattr(new, name)) is type(getattr(old, name))
    assert repr(new) == repr(old)
    assert (new == other_new) == (old == other_old)
    assert (new != other_new) == (old != other_old)
    if new == other_new:
        assert hash(new) == hash(other_new)
    assert len({new, other_new}) == len({old, other_old})
    clone = pickle.loads(pickle.dumps(new, pickle.HIGHEST_PROTOCOL))
    assert type(clone) is new_type and clone == new and repr(clone) == repr(new)
    # Keywords build the same record as positions.
    assert new_type(**dict(zip(fields, first))) == new
    with pytest.raises(AttributeError):
        new.timestamp = 0.0
    return new, old


@settings(max_examples=200, deadline=None)
@given(_pairs(_location_args), st.floats(allow_nan=False, allow_infinity=False))
@example(((Point(0.0, 1.0), Vector(0.0, 0.0), 0.0),
          (Point(-0.0, 1.0), Vector(-0.0, 0.0), -0.0)), 1.5)
def test_location_record_equals_the_frozen_dataclass(pair, at_time):
    new, old = _assert_same_behaviour(
        TupleLocationRecord, LocationRecord, *pair,
        fields=("location", "velocity", "timestamp"),
    )
    assert _bits(new.extrapolated(at_time)) == _bits(old.extrapolated(at_time))
    # The row at rest and the re-branded read are the same record.
    row = tuple(new)
    assert type(row) is tuple and len(row) == 5
    assert tuple.__new__(TupleLocationRecord, row) == new


@settings(max_examples=200, deadline=None)
@given(_pairs(_lf_args))
def test_lf_record_equals_the_frozen_dataclass(pair):
    new, _ = _assert_same_behaviour(
        TupleLFRecord, LFRecord, *pair,
        fields=("role", "timestamp", "leader_id", "displacement"),
    )
    row = tuple(new)
    assert type(row) is tuple and len(row) == 5 and type(row[0]) is str
    assert tuple.__new__(TupleLFRecord, row) == new


_BAD = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("record_type", [TupleLocationRecord, LocationRecord])
@pytest.mark.parametrize("bad", _BAD)
@pytest.mark.parametrize("slot", range(4))
def test_non_finite_coordinates_are_a_schema_error(record_type, bad, slot):
    numbers = [1.0, 2.0, 3.0, 4.0]
    numbers[slot] = bad
    with pytest.raises(SchemaError):
        record_type(Point(*numbers[:2]), Vector(*numbers[2:]), 0.0)


@pytest.mark.parametrize("record_type", [TupleLFRecord, LFRecord])
@pytest.mark.parametrize(
    "fields",
    [
        (Role.FOLLOWER, 1.0),
        (Role.FOLLOWER, 1.0, "leader"),
        (Role.FOLLOWER, 1.0, None, Vector(0.0, 0.0)),
        (Role.LEADER, 1.0, "leader"),
        (Role.LEADER, 1.0, None, Vector(0.0, 0.0)),
        (Role.LEADER, 1.0, "leader", Vector(0.0, 0.0)),
    ],
)
def test_malformed_lf_fields_are_a_schema_error(record_type, fields):
    with pytest.raises(SchemaError):
        record_type(*fields)


# --------------------------------------------------------------------------
# (c) the shed path computes on rows, bit for bit
# --------------------------------------------------------------------------
_world = st.floats(-1e6, 1e6)


@settings(max_examples=100, deadline=None)
@given(
    leader=st.tuples(_world, _world, _world, _world, st.floats(0.0, 1e3)),
    offset=st.tuples(_world, _world),
    report=st.tuples(_world, _world, st.floats(0.0, 2e3)),
)
@example(
    leader=(10.0, 10.0, 1.0, -1.0, 0.0), offset=(-0.0, 5e-324), report=(11.0, 9.0, 1.0)
)
def test_shed_path_estimation_error_is_bit_equal_to_the_record_arithmetic(
    leader, offset, report
):
    indexer = MoistIndexer(school_config())
    x, y, dx, dy, timestamp = leader
    leader_update = make_update(1, x, y, vx=dx, vy=dy, t=timestamp)
    indexer.update(leader_update)
    follower = make_update(2, report[0], report[1], t=report[2])
    indexer.affiliation_table.set_follower(
        follower.object_id, leader_update.object_id, Vector(*offset), 0.0
    )
    record = indexer.location_table.latest(leader_update.object_id)
    displacement = indexer.affiliation_table.role_of(follower.object_id).displacement
    expected = (
        record.extrapolated(follower.timestamp)
        .displaced(displacement)
        .distance_to(follower.location)
    )
    result = indexer.update(follower)
    assert result.outcome in (UpdateOutcome.SHED, UpdateOutcome.PROMOTED)
    assert struct.pack("<d", result.estimation_error) == struct.pack("<d", expected)
