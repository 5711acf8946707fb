"""Flat version chains against the storage shape they replaced.

The table stores ``family -> qualifier -> [ts0, v0, ts1, v1, ...]`` and
builds :class:`Cell` objects only at the public read edge.  Before that it
stored one ``Cell`` per version in a list per qualifier, inside a ``_Row``
wrapper.  :class:`CellListTable` keeps that storage — state transitions, read
edges and run-block encoding, as they were — so a hypothesis-driven stream of
mutations can be run against both and every observable compared: reads in all
their shapes, ledgers, and the bytes a flushed run encodes to.
"""

import struct
import zlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bigtable.lsm import TOMBSTONE
from repro.bigtable.table import Cell, ColumnFamily, Table, _TabletTally
from repro.bigtable.tablet import TabletOptions
from repro.bigtable.cost import OpKind
from repro.codec.blocks import RUN_MAGIC, encode_run_block
from repro.codec.columns import (
    write_f64_delta_column,
    write_key_column,
    write_str,
    write_uvarint,
)
from repro.codec.values import encode_value
from repro.errors import RowNotFoundError


class CellRow:
    """The row as it used to be stored: ``family -> qualifier -> newest-first
    list of Cell``, behind a wrapper object."""

    __slots__ = ("families",)

    def __init__(self):
        self.families = {}

    def is_empty(self):
        return not any(
            cells for qualifiers in self.families.values() for cells in qualifiers.values()
        )

    def cells(self):
        return {
            family: {qualifier: list(cells) for qualifier, cells in qualifiers.items()}
            for family, qualifiers in self.families.items()
        }

    def copy(self):
        clone = CellRow()
        clone.families = self.cells()
        return clone

    def newest_values(self, family):
        return {
            qualifier: cells[0].value
            for qualifier, cells in (self.families.get(family) or {}).items()
            if cells
        }

    def version_cells(self, family):
        qualifiers = self.families.get(family) or {}
        return {qualifier: list(cells) for qualifier, cells in qualifiers.items()}


class CellListTable(Table):
    """The table with its rows stored as lists of ``Cell``: the reference the
    flat chains must agree with.  Only what touches a row's inside is
    overridden; routing, charging, logging, flushing and recovery are the
    table's own."""

    def _write_into(self, tablet, row_key, family, qualifier, value, timestamp):
        declared = self.family(family)
        self.cache.invalidate_row(tablet.tablet_id, row_key)
        row = tablet.ensure_writable(row_key)
        added_row = row is None
        if row is None:
            row = CellRow()
            tablet.memtable_put(row_key, row)
        cells = row.families.setdefault(family, {}).setdefault(qualifier, [])
        cells.insert(0, Cell(timestamp=timestamp, value=value))
        if len(cells) > 1 and timestamp < cells[1].timestamp:
            cells.sort(key=lambda cell: cell.timestamp, reverse=True)
        if declared.max_versions > 0 and len(cells) > declared.max_versions:
            del cells[declared.max_versions:]
        return added_row

    def _delete_cell_from(self, tablet, row_key, family, qualifier):
        self.family(family)
        self.cache.invalidate_row(tablet.tablet_id, row_key)
        row = tablet.rows.get(row_key)
        if row is None and tablet.runs:
            value = tablet.run_lookup(row_key)
            if (
                value is not None
                and value is not TOMBSTONE
                and qualifier in value.families.get(family, ())
            ):
                row = tablet.pull_back(row_key, value)
        if row is None or row is TOMBSTONE:
            return False, False
        qualifiers = row.families.get(family)
        if not qualifiers or qualifier not in qualifiers:
            return False, False
        del qualifiers[qualifier]
        if row.is_empty():
            tablet.drop_row(row_key)
            return True, True
        return True, False

    def read_latest(self, row_key, family, qualifier, _charge=True):
        cells = self.read_versions(row_key, family, qualifier, _charge)
        return cells[0].value if cells else None

    def read_versions(self, row_key, family, qualifier, _charge=True):
        self.family(family)
        tablet = self._tablets.locate(row_key)
        if _charge:
            self.counter.record(OpKind.READ)
            tablet.counter.record(OpKind.READ)
        row = tablet.live_row(row_key)
        if row is None:
            return []
        return list(row.families.get(family, {}).get(qualifier, []))

    def scan(self, start_key=None, end_key=None, limit=None, family=None, versions=False):
        scanned = self._scanner.execute_range(start_key, end_key, limit)
        if family is None:
            return [(row_key, row.cells()) for row_key, row in scanned]
        self.family(family)
        project = CellRow.version_cells if versions else CellRow.newest_values
        return [(row_key, project(row, family)) for row_key, row in scanned]

    def batch_read(self, row_keys, family=None):
        results = {}
        tally = _TabletTally()
        for row_key in row_keys:
            tablet = self._tablets.locate(row_key)
            tally.add(tablet)
            row = tablet.live_row(row_key)
            if row is not None:
                results[row_key] = (
                    row.cells() if family is None else row.newest_values(family)
                )
        self.counter.record(OpKind.BATCH_READ, rows=max(len(row_keys), 1))
        tally.charge(self._tablets, OpKind.BATCH_READ)
        return results

    @staticmethod
    def _has_aged_cells(row, source_family, cutoff_timestamp):
        return any(
            cell.timestamp < cutoff_timestamp
            for cells in (row.families.get(source_family) or {}).values()
            for cell in cells
        )

    def _age_row(self, tablet, row_key, source_family, target_family, cutoff_timestamp):
        target = self.family(target_family)
        row = tablet.ensure_writable(row_key)
        if row is None:
            return 0
        qualifiers = row.families.get(source_family)
        if not qualifiers:
            return 0
        moved = 0
        for qualifier, cells in qualifiers.items():
            fresh = [cell for cell in cells if cell.timestamp >= cutoff_timestamp]
            aged = [cell for cell in cells if cell.timestamp < cutoff_timestamp]
            if not aged:
                continue
            cells[:] = fresh
            destination = row.families.setdefault(target_family, {}).setdefault(
                qualifier, []
            )
            destination.extend(aged)
            destination.sort(key=lambda cell: cell.timestamp, reverse=True)
            if target.max_versions > 0 and len(destination) > target.max_versions:
                del destination[target.max_versions:]
            moved += len(aged)
        if moved:
            self.cache.invalidate_row(tablet.tablet_id, row_key)
        return moved

    def _count_cells(self, in_memory):
        return sum(
            len(cells)
            for _, _, row in self._tablets.scan(None, None)
            for family, qualifiers in row.families.items()
            if self.family(family).in_memory == in_memory
            for cells in qualifiers.values()
        )


def cell_list_run_block(keys, values, max_seqno):
    """``encode_run_block`` as it read rows made of ``Cell`` lists."""
    body = bytearray()
    write_uvarint(body, len(keys))
    write_uvarint(body, max_seqno)
    write_key_column(body, keys)
    for value in values:
        if value is TOMBSTONE:
            body.append(0)
            continue
        body.append(1)
        write_uvarint(body, len(value.families))
        for family, qualifiers in value.families.items():
            write_str(body, family)
            write_uvarint(body, len(qualifiers))
            for qualifier, cells in qualifiers.items():
                write_str(body, qualifier)
                write_uvarint(body, len(cells))
                write_f64_delta_column(body, [cell.timestamp for cell in cells])
                for cell in cells:
                    encode_value(body, cell.value)
    payload = bytes(body)
    return RUN_MAGIC + payload + struct.pack("<I", zlib.crc32(payload))


KEYS = ["a", "b", "c", "d", "e", "f"]
FAMILIES = ["new", "old"]
QUALIFIERS = ["p", "q"]
#: Few distinct timestamps: equal and out-of-order arrivals are the norm.
TIMES = st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0, 8.0])
_CELL = st.tuples(
    st.sampled_from(KEYS), st.sampled_from(FAMILIES), st.sampled_from(QUALIFIERS)
)
OPS = st.one_of(
    st.tuples(st.just("write"), _CELL, TIMES),
    st.tuples(st.just("write"), _CELL, TIMES),
    st.tuples(st.just("batch_write"), st.lists(st.tuples(_CELL, TIMES), max_size=4)),
    st.tuples(st.just("delete_cell"), _CELL),
    st.tuples(st.just("delete_row"), st.sampled_from(KEYS)),
    st.tuples(st.just("age_out"), TIMES),
    st.tuples(st.just("flush")),
    st.tuples(st.just("recover")),
)


def make_pair(max_versions, old_versions):
    families = [
        ColumnFamily("new", max_versions=max_versions),
        ColumnFamily("old", in_memory=False, max_versions=old_versions),
    ]
    # Thresholds small enough that six keys split and merge tablets.
    options = TabletOptions(split_threshold=3, merge_threshold=1)
    return (
        Table("t", families, options=options),
        CellListTable("t", families, options=options),
    )


def apply(table, op, stamp):
    """Apply one op; values are ``stamp``-derived and distinct, so the order
    among versions of equal timestamp is observable."""
    if op[0] == "write":
        (key, family, qualifier), timestamp = op[1], op[2]
        table.write(key, family, qualifier, stamp, timestamp)
    elif op[0] == "batch_write":
        table.batch_write(
            [
                (key, family, qualifier, (stamp, index), timestamp)
                for index, ((key, family, qualifier), timestamp) in enumerate(op[1])
            ]
        )
    elif op[0] == "delete_cell":
        return table.delete_cell(*op[1])
    elif op[0] == "delete_row":
        return table.delete_row(op[1])
    elif op[0] == "age_out":
        return table.age_out("new", "old", op[1])
    elif op[0] == "flush":
        return table.flush_memtables()
    else:
        return table.recover()


def observe(table, run_block):
    """Everything a caller (or a disk) can see of the table."""
    rows = {}
    for key in KEYS:
        try:
            rows[key] = table.read_row(key, _charge=False)
        except RowNotFoundError:
            rows[key] = None
    counter = table.counter
    return {
        "rows": rows,
        "versions": {
            (key, family, qualifier): table.read_versions(
                key, family, qualifier, _charge=False
            )
            for key in KEYS
            for family in FAMILIES
            for qualifier in QUALIFIERS
        },
        "latest": [table.read_latest(key, "new", "q") for key in KEYS],
        "scan": table.scan(),
        "projected": table.scan(family="new"),
        "chains": table.scan("b", "e", family="old", versions=True),
        "batch": table.batch_read(KEYS, family="new"),
        "batch_full": table.batch_read(KEYS[:3]),
        "tablets": [(t.start_key, t.row_count, t.log_records) for t in table.tablets()],
        "log": [t.log_counts for t in table.tablets()],
        "runs": [
            run_block(run._keys, run._values, run.max_seqno)
            for tablet in table.tablets()
            for run in tablet.runs
        ],
        "ledger": (
            dict(counter.counts),
            dict(counter.rows),
            counter.simulated_seconds,
            dict(counter.durability_counts),
            dict(counter.durability_rows),
            counter.durability_seconds,
            counter.logical_write_rows,
        ),
    }


_A_NEW_P = ("a", "new", "p")


@settings(max_examples=150, deadline=None)
@given(
    max_versions=st.sampled_from([0, 1, 8]),
    old_versions=st.sampled_from([0, 2]),
    ops=st.lists(OPS, max_size=30),
)
# Aging twice at one timestamp: the target's versions stay in front of the
# arrivals, and the arrivals keep their own order.
@example(
    max_versions=0,
    old_versions=0,
    ops=[("write", _A_NEW_P, 1.0), ("write", _A_NEW_P, 1.0), ("age_out", 2.0)] * 2,
)
# Out of order between two equal timestamps, then pulled back from a run.
@example(
    max_versions=8,
    old_versions=2,
    ops=[
        ("write", _A_NEW_P, 3.0),
        ("write", _A_NEW_P, 1.0),
        ("write", _A_NEW_P, 1.0),
        ("flush",),
        ("write", _A_NEW_P, 2.0),
        ("write", _A_NEW_P, 3.0),
        ("age_out", 3.0),
        ("recover",),
    ],
)
def test_flat_chains_match_the_cell_list_reference(max_versions, old_versions, ops):
    flat, reference = make_pair(max_versions, old_versions)
    for stamp, op in enumerate(ops):
        assert apply(flat, op, stamp) == apply(reference, op, stamp)
        assert observe(flat, encode_run_block) == observe(
            reference, cell_list_run_block
        )
    flat.flush_memtables()
    reference.flush_memtables()
    assert observe(flat, encode_run_block) == observe(reference, cell_list_run_block)


@pytest.mark.parametrize("max_versions", [0, 1, 3])
def test_mutating_a_pulled_back_row_never_changes_the_runs_copy(max_versions):
    table = Table(
        "t",
        [ColumnFamily("new", max_versions=max_versions), ColumnFamily("old")],
    )
    table.write("k", "new", "q", "v1", 1.0)
    table.write("k", "new", "q", "v2", 2.0)
    table.flush_memtables()
    (tablet,) = table.tablets()
    (run,) = tablet.runs
    frozen = encode_run_block(run._keys, run._values, run.max_seqno)
    table.write("k", "new", "q", "v3", 3.0)  # prepend to the pulled-back chain
    table.write("k", "new", "q", "v0", 0.5)  # out-of-order insert (and truncate)
    table.write("k", "new", "other", "x", 1.0)  # a qualifier the run never had
    table.age_out("new", "old", 2.5)  # in-place surgery on both chains
    table.delete_cell("k", "new", "q")
    assert len(tablet.rows) == 1  # the mutations all landed on the copy
    assert encode_run_block(run._keys, run._values, run.max_seqno) == frozen
    assert run.columns()[1][0]["new"]["q"][1] == "v2"
