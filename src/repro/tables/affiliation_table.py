"""The Affiliation Table (Section 3.1.1).

Row key: object id.  Two column families:

* ``lf`` — the L/F record.  A leader stores ``("L", chosen_timestamp)``;
  a follower stores ``("F", leader_id, displacement)`` where the displacement
  is the vector from the leader to the follower at the time it joined the
  school.  L/F records live in memory; the schema also declares an aged
  disk family (``lf-aged``), which nothing writes.
* ``followers`` — present only on leader rows: one column per follower id
  whose value is the leader->follower displacement ("Follower Info").

What a cell value is at rest — an exact ``tuple`` of atoms, which the cycle
collector stops tracking (see :mod:`repro.bigtable.table`) — and at the edge:

===============  ================================  ==========================
column           at rest                           at the edge
===============  ================================  ==========================
``lf:record``    ``("L", ts, None, None, None)``   :class:`LFRecord`, the same
                 ``("F", ts, leader_id, dx, dy)``  tuple re-branded
``followers:*``  ``(dx, dy)``                      ``Vector`` (``followers_of``)
                                                   or the stored pair
                                                   (``batch_followers``)
===============  ================================  ==========================

``batch_followers`` is scan-shaped (~45 displacements per NN query):
re-branding each pair would cost what storing rows saves.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bigtable.emulator import BigtableEmulator
from repro.bigtable.table import ColumnFamily, Table
from repro.errors import RowNotFoundError, SchemaError
from repro.geometry.vector import Vector
from repro.model import ObjectId

LF_FAMILY = "lf"
LF_AGED_FAMILY = "lf-aged"
FOLLOWERS_FAMILY = "followers"
LF_QUALIFIER = "record"


class Role(enum.Enum):
    """Whether an object currently leads or follows a school."""

    LEADER = "leader"
    FOLLOWER = "follower"


#: Role codes of the stored L/F row.  Strings, not :class:`Role` members:
#: an ``Enum`` member is a class instance, and a tuple holding one stays
#: tracked by the cycle collector for as long as it lives.
LEADER_CODE = "L"
FOLLOWER_CODE = "F"


class LFRecord(tuple):
    """Decoded L/F record of one object: the tuple ``(role code, timestamp,
    leader_id, dx, dy)``, the last three ``None`` for a leader.  ``role`` and
    ``displacement`` are built on demand; the table stores ``tuple(record)``
    and re-brands what it reads."""

    __slots__ = ()

    def __new__(
        cls,
        role: Role,
        timestamp: float,
        leader_id: Optional[ObjectId] = None,
        displacement: Optional[Vector] = None,
    ) -> "LFRecord":
        if role is Role.FOLLOWER:
            if leader_id is None or displacement is None:
                raise SchemaError("follower L/F records need a leader and displacement")
            row = (FOLLOWER_CODE, timestamp, leader_id, *displacement.as_tuple())
        elif leader_id is not None or displacement is not None:
            raise SchemaError("leader L/F records must not carry follower fields")
        else:
            row = (LEADER_CODE, timestamp, None, None, None)
        return tuple.__new__(cls, row)

    @property
    def role(self) -> Role:
        return Role.LEADER if self[0] == LEADER_CODE else Role.FOLLOWER

    timestamp = property(itemgetter(1))
    leader_id = property(itemgetter(2))

    @property
    def displacement(self) -> Optional[Vector]:
        return None if self[0] == LEADER_CODE else Vector(self[3], self[4])

    def __repr__(self) -> str:
        return (
            f"LFRecord(role={self.role!r}, timestamp={self[1]!r}, "
            f"leader_id={self[2]!r}, displacement={self.displacement!r})"
        )

    def __reduce__(self):
        return (LFRecord, (self.role, self[1], self[2], self.displacement))


class AffiliationTable:
    """Wrapper around the BigTable table that tracks schools."""

    def __init__(self, emulator: BigtableEmulator, name: str = "affiliation") -> None:
        families = [
            ColumnFamily(LF_FAMILY, in_memory=True, max_versions=1),
            ColumnFamily(LF_AGED_FAMILY, in_memory=False, max_versions=16),
            ColumnFamily(FOLLOWERS_FAMILY, in_memory=True, max_versions=1),
        ]
        self._table = emulator.create_table(name, families)

    @property
    def table(self) -> Table:
        """The backing BigTable table (tablet routing / group commits)."""
        return self._table

    # ------------------------------------------------------------------
    # L/F records
    # ------------------------------------------------------------------
    def set_leader(self, object_id: ObjectId, timestamp: float) -> None:
        """Label ``object_id`` as a leader (Algorithm 1, line 11)."""
        row = (LEADER_CODE, timestamp, None, None, None)
        self._table.write(object_id, LF_FAMILY, LF_QUALIFIER, row, timestamp)

    def set_follower(
        self,
        object_id: ObjectId,
        leader_id: ObjectId,
        displacement: Vector,
        timestamp: float,
    ) -> None:
        """Label ``object_id`` as a follower of ``leader_id``."""
        if object_id == leader_id:
            raise SchemaError(f"object {object_id!r} cannot follow itself")
        record = LFRecord(
            role=Role.FOLLOWER,
            timestamp=timestamp,
            leader_id=leader_id,
            displacement=displacement,
        )
        self._table.write(object_id, LF_FAMILY, LF_QUALIFIER, tuple(record), timestamp)

    def role_of(self, object_id: ObjectId) -> Optional[LFRecord]:
        """L/F record of an object, or ``None`` for never-seen objects.

        This is the first storage access of every update (Algorithm 1,
        line 1).
        """
        value = self._table.read_latest(object_id, LF_FAMILY, LF_QUALIFIER)
        return None if value is None else tuple.__new__(LFRecord, value)

    def batch_roles(self, object_ids: Sequence[ObjectId]) -> Dict[ObjectId, LFRecord]:
        """L/F records of several objects in one batch read."""
        rows = self._table.batch_read(object_ids, family=LF_FAMILY)
        return {
            object_id: tuple.__new__(LFRecord, columns[LF_QUALIFIER])
            for object_id, columns in rows.items()
            if LF_QUALIFIER in columns
        }

    # ------------------------------------------------------------------
    # Follower Info
    # ------------------------------------------------------------------
    def add_follower(
        self,
        leader_id: ObjectId,
        follower_id: ObjectId,
        displacement: Vector,
        timestamp: float,
    ) -> None:
        """Record ``follower_id`` (with its displacement) under ``leader_id``."""
        if leader_id == follower_id:
            raise SchemaError(f"object {leader_id!r} cannot follow itself")
        self._table.write(
            leader_id, FOLLOWERS_FAMILY, follower_id, displacement.as_tuple(), timestamp
        )

    def remove_follower(self, leader_id: ObjectId, follower_id: ObjectId) -> bool:
        """Drop ``follower_id`` from the leader's Follower Info (line 10)."""
        return self._table.delete_cell(leader_id, FOLLOWERS_FAMILY, follower_id)

    def followers_of(self, leader_id: ObjectId) -> Dict[ObjectId, Vector]:
        """Follower id -> displacement map of one leader.

        Leaders with no followers (and unknown objects) return an empty map.
        """
        try:
            row = self._table.read_row(leader_id)
        except RowNotFoundError:
            return {}
        followers = row.get(FOLLOWERS_FAMILY, {})
        return {
            follower_id: Vector(*cells[0].value)
            for follower_id, cells in followers.items()
            if cells
        }

    def batch_followers(
        self, leader_ids: Sequence[ObjectId]
    ) -> Dict[ObjectId, Dict[ObjectId, Tuple[float, float]]]:
        """Follower Info of several leaders in one batch read: ``leader ->
        follower -> (dx, dy)``, the stored pairs exactly as the projected
        read returns them."""
        return self._table.batch_read(leader_ids, family=FOLLOWERS_FAMILY)

    # ------------------------------------------------------------------
    # Batch rewrites used by the clustering pass
    # ------------------------------------------------------------------
    def batch_apply(
        self,
        lf_updates: Sequence[Tuple[ObjectId, LFRecord]],
        follower_updates: Sequence[Tuple[ObjectId, ObjectId, Vector]],
        follower_deletes: Sequence[Tuple[ObjectId, ObjectId]],
        timestamp: float,
    ) -> None:
        """Apply the clustering pass's affiliation rewrites in batched RPCs.

        ``lf_updates`` rewrites L/F records, ``follower_updates`` adds
        ``(leader, follower, displacement)`` columns and ``follower_deletes``
        drops ``(leader, follower)`` columns.
        """
        mutations = [
            (object_id, LF_FAMILY, LF_QUALIFIER, tuple(record), timestamp)
            for object_id, record in lf_updates
        ]
        mutations.extend(
            (leader_id, FOLLOWERS_FAMILY, follower_id, displacement.as_tuple(), timestamp)
            for leader_id, follower_id, displacement in follower_updates
        )
        if mutations:
            self._table.batch_write(mutations)
        deletes = [
            (leader_id, FOLLOWERS_FAMILY, follower_id)
            for leader_id, follower_id in follower_deletes
        ]
        if deletes:
            self._table.batch_delete(deletes)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def leader_ids(self) -> List[ObjectId]:
        """Ids of every object currently labelled a leader (test helper)."""
        leaders = []
        for object_id in self._table.all_keys():
            value = self._table.read_latest(
                object_id, LF_FAMILY, LF_QUALIFIER, _charge=False
            )
            if value is not None and value[0] == LEADER_CODE:
                leaders.append(object_id)
        return leaders

    def object_count(self) -> int:
        """Number of objects with an affiliation row."""
        return self._table.row_count()
