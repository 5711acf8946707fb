"""Batched vs one-at-a-time update equivalence.

``MoistIndexer.update_many`` routes through the per-tablet group-commit
write path; these tests pin down the contract that batching is purely an
amortisation: the resulting table state, update statistics and total
simulated storage cost must match processing the same stream one message at
a time.
"""

import pytest

from repro.bigtable.cost import OpKind
from repro.bigtable.table import ColumnFamily, Table
from repro.bigtable.tablet import TabletOptions
from repro.core.config import MoistConfig
from repro.core.moist import MoistIndexer
from repro.geometry.bbox import BoundingBox
from repro.tables.affiliation_table import AffiliationTable
from repro.tables.location_table import LocationTable
from repro.tables.spatial_index_table import SpatialIndexTable

from helpers import log_record_count, make_update

CONFIG = MoistConfig(
    world=BoundingBox(0.0, 0.0, 100.0, 100.0),
    storage_level=8,
    nn_level_delta=2,
    clustering_cell_level=2,
    deviation_threshold=5.0,
    velocity_threshold=1.0,
    clustering_interval_s=10.0,
    sigma=4,
)


def school_stream(t, count=120):
    """Updates for ``count`` objects moving together in a few tight knots."""
    messages = []
    for index in range(count):
        knot = index % 6
        offset = (index // 6) * 0.3
        messages.append(
            make_update(
                index,
                10.0 + knot * 12.0 + offset + t,
                10.0 + knot * 3.0 + offset,
                vx=1.0,
                vy=0.0,
                t=t,
            )
        )
    return messages


def divergent_stream(t, count=120):
    """Half the objects break away from their schools (promotion path)."""
    messages = []
    for index in range(count):
        if index % 2 == 0:
            messages.append(make_update(index, 10.0 + index % 6 * 12.0 + t, 10.0, t=t))
        else:
            messages.append(
                make_update(index, 90.0 - (index % 40), 90.0, vx=-1.0, t=t)
            )
    return messages


def drive(indexer, batched: bool):
    """Run the same three-phase scenario through either update path."""
    phases = [school_stream(0.0), school_stream(1.0), divergent_stream(2.0)]
    for phase_index, messages in enumerate(phases):
        if batched:
            indexer.update_many(messages)
        else:
            for message in messages:
                indexer.update(message)
        if phase_index == 0:
            indexer.run_clustering(0.5)
    return indexer


@pytest.fixture
def pair():
    sequential = drive(MoistIndexer(CONFIG), batched=False)
    batched = drive(MoistIndexer(CONFIG), batched=True)
    return sequential, batched


class TestBatchedEquivalence:
    def test_update_stats_identical(self, pair):
        sequential, batched = pair
        assert batched.update_stats == sequential.update_stats
        # The scenario must actually exercise every Algorithm 1 branch.
        assert batched.update_stats.new_leaders > 0
        assert batched.update_stats.shed > 0
        assert batched.update_stats.promotions > 0

    def test_total_simulated_cost_identical(self, pair):
        sequential, batched = pair
        assert batched.simulated_seconds == pytest.approx(
            sequential.simulated_seconds, rel=1e-12
        )

    def test_counter_breakdown_identical(self, pair):
        sequential, batched = pair
        seq = sequential.emulator.counter
        bat = batched.emulator.counter
        assert bat.counts == seq.counts
        assert bat.rows == seq.rows

    def test_location_table_state_identical(self, pair):
        sequential, batched = pair
        seq_ids = sequential.location_table.table.all_keys()
        assert batched.location_table.table.all_keys() == seq_ids
        for object_id in seq_ids:
            assert batched.location_table.recent_history(
                object_id
            ) == sequential.location_table.recent_history(object_id)

    def test_school_structure_identical(self, pair):
        sequential, batched = pair
        assert batched.school_count == sequential.school_count
        assert batched.object_count == sequential.object_count
        for object_id in sequential.location_table.table.all_keys():
            seq_role = sequential.affiliation_table.role_of(object_id)
            bat_role = batched.affiliation_table.role_of(object_id)
            assert (seq_role is None) == (bat_role is None)
            if seq_role is not None:
                assert bat_role.role == seq_role.role
                assert bat_role.leader_id == seq_role.leader_id

    def test_spatial_rows_identical(self, pair):
        sequential, batched = pair
        assert (
            batched.spatial_table.table.all_keys()
            == sequential.spatial_table.table.all_keys()
        )


class TestUpdateManyBehaviour:
    def test_empty_batch_is_noop(self):
        indexer = MoistIndexer(CONFIG)
        stats = indexer.update_many([])
        assert stats.total == 0
        assert indexer.simulated_seconds == 0.0

    def test_returns_cumulative_stats(self):
        indexer = MoistIndexer(CONFIG)
        indexer.update_many(school_stream(0.0, count=10))
        stats = indexer.update_many(school_stream(1.0, count=10))
        assert stats.total == 20

    def test_new_leaders_registered_with_archiver(self):
        indexer = MoistIndexer(CONFIG)
        indexer.update_many(school_stream(0.0, count=12))
        assert indexer.object_count == 12
        assert indexer.school_count == 12


# ----------------------------------------------------------------------
# The point-mutation commit helper
# ----------------------------------------------------------------------
class _SixFrameTable(Table):
    """The point-mutation path as it was before ``Table._commit`` folded it
    into one frame — ``write`` → ``_log_mutation`` → ``_log_append`` →
    ``Tablet.log_record``, then ``_charge_write`` — kept as the reference
    the one-frame helper must reproduce bit for bit."""

    def _charge_write(self, kind, tablet, structural):
        group = self._group
        if group is not None:
            tablet_id = tablet.tablet_id
            key = (tablet.counter, kind)
            group.pending[key] = group.pending.get(key, 0) + 1
            group.tablets[tablet_id] = tablet
            if structural:
                group.dirty[tablet_id] = tablet
            group.calls += 1
            if group.calls >= self.options.group_commit_size:
                self._flush_group()
            return
        self.counter.record(kind)
        tablet.counter.record(kind)
        if structural:
            self._tablets.maybe_split(tablet)
            self._tablets.maybe_merge(tablet)
        self._maybe_flush(tablet)

    def _log_append(self, tablet, row_key):
        self._seq += 1
        self.counter.logical_write_rows += 1
        tablet.counter.logical_write_rows += 1
        tablet.log_record(row_key)

    def _log_mutation(self, tablet, row_key):
        self._log_append(tablet, row_key)
        group = self._group
        if group is not None:
            ledger = tablet.counter
            group.log_appends[ledger] = group.log_appends.get(ledger, 0) + 1
            group.tablets[tablet.tablet_id] = tablet
        elif self._log_sync_tally is not None:
            self._tally_log_sync(self._log_sync_tally, tablet)
        else:
            self.counter.record_durability(OpKind.LOG_APPEND, rows=1)
            tablet.counter.record_durability(OpKind.LOG_APPEND, rows=1)
        return True

    def _note_uncharged_structural(self, tablet, merge):
        if self._group is not None:
            self._group.dirty[tablet.tablet_id] = tablet
        elif merge:
            self._tablets.maybe_merge(tablet)

    def write(self, row_key, family, qualifier, value, timestamp, _charge=True):
        tablet = self._tablets.locate(row_key)
        added_row = self._write_into(
            tablet, row_key, family, qualifier, value, timestamp
        )
        self._log_mutation(tablet, row_key)
        if _charge:
            self._charge_write(OpKind.WRITE, tablet, structural=added_row)
        elif added_row:
            self._note_uncharged_structural(tablet, merge=False)

    def delete_cell(self, row_key, family, qualifier, _charge=True):
        tablet = self._tablets.locate(row_key)
        existed, removed_row = self._delete_cell_from(
            tablet, row_key, family, qualifier
        )
        if existed:
            self._log_mutation(tablet, row_key)
        if _charge:
            self._charge_write(OpKind.DELETE, tablet, structural=removed_row)
        elif removed_row:
            self._note_uncharged_structural(tablet, merge=True)
        return existed

    def delete_row(self, row_key, _charge=True):
        tablet = self._tablets.locate(row_key)
        self.cache.invalidate_row(tablet.tablet_id, row_key)
        removed = tablet.drop_row(row_key)
        if removed:
            self._log_mutation(tablet, row_key)
        if _charge:
            self._charge_write(OpKind.DELETE, tablet, structural=removed)
        elif removed:
            self._note_uncharged_structural(tablet, merge=True)
        return removed


def _key(index):
    return f"{index:04d}"


def _preload():
    """Rows 0..39, every fourth with a second qualifier."""
    for index in range(40):
        yield ("write", (_key(index), "mem", "a", index, float(index)), True)
        if index % 4 == 0:
            yield ("write", (_key(index), "mem", "b", -index, float(index)), True)


def _mutations(structural):
    """Every kind of point mutation: overwrites (in and out of timestamp
    order), deletes that leave the row, no-op deletes of an absent cell and
    an absent row (charged DELETE, logged nothing) and the same uncharged.
    With ``structural`` also mutations that add and remove rows."""
    for index in range(0, 40, 3):
        yield ("write", (_key(index), "mem", "a", index * 10, 100.0 + index), True)
    yield ("write", (_key(6), "mem", "a", "late", 1.0), True)
    for index in range(0, 40, 8):
        yield ("delete_cell", (_key(index), "mem", "b"), True)
    yield ("delete_cell", (_key(1), "mem", "never"), True)
    yield ("delete_cell", ("9999", "mem", "a"), True)
    yield ("delete_row", ("9998",), True)
    yield ("write", (_key(2), "mem", "a", "quiet", 200.0), False)
    yield ("delete_cell", (_key(4), "mem", "b"), False)
    yield ("delete_cell", (_key(4), "mem", "b"), False)
    yield ("delete_row", ("9997",), False)
    if not structural:
        return
    for index in range(40, 64):
        yield ("write", (_key(index), "mem", "a", index, float(index)), True)
    for index in range(1, 30, 2):
        yield ("delete_cell", (_key(index), "mem", "a"), True)
    for index in range(30, 40):
        yield ("delete_row", (_key(index),), True)
    yield ("write", (_key(70), "mem", "a", 70, 70.0), False)
    yield ("delete_cell", (_key(41), "mem", "a"), False)
    yield ("delete_row", (_key(42),), False)
    for index in range(43, 64):
        yield ("delete_row", (_key(index),), index % 2 == 0)
    # Last, tablets emptied by uncharged deletes alone: only the deferral
    # into the open group (or the immediate merge check) notices them.
    for index in range(0, 12):
        yield ("delete_row", (_key(index),), False)


def _apply(table, operations):
    for name, arguments, charge in operations:
        getattr(table, name)(*arguments, _charge=charge)


def _run(table_class, mode, flush_rows=None, structural=True):
    """Preload one mutation at a time, then apply :func:`_mutations` in
    ``mode``; returns the table."""
    table = table_class(
        "commit_matrix",
        [ColumnFamily("mem", in_memory=True, max_versions=2)],
        options=TabletOptions(
            split_threshold=8,
            merge_threshold=3,
            group_commit_size=3 if mode == "small_group" else 256,
            memtable_flush_rows=flush_rows,
        ),
    )
    _apply(table, _preload())
    assert table.tablet_count() > 3
    operations = _mutations(structural)
    if mode == "plain":
        _apply(table, operations)
    elif mode == "deferred_syncs":
        with table.deferred_log_syncs():
            _apply(table, operations)
    else:
        with table.group_commit():
            _apply(table, operations)
    return table


def _tablet_view(table):
    return [
        (tablet.tablet_id, tablet.start_key, tablet.counter.snapshot(),
         dict(tablet.log_counts), tablet.log_records,
         repr(list(tablet.rows.items())), len(tablet.runs))
        for tablet in table.tablets()
    ]


MODES = ("plain", "deferred_syncs", "group", "small_group")


class TestCommitHelper:
    @pytest.mark.parametrize("flush_rows", [None, 6])
    @pytest.mark.parametrize("mode", MODES)
    def test_one_frame_is_the_six_frames(self, mode, flush_rows):
        # Same construction, same mutations, same mode: everything the two
        # paths leave behind is equal, float ledgers included (``==`` on
        # the snapshots: the additions happen in the same order).
        table = _run(Table, mode, flush_rows)
        reference = _run(_SixFrameTable, mode, flush_rows)
        assert table.counter.snapshot() == reference.counter.snapshot()
        assert _tablet_view(table) == _tablet_view(reference)
        assert table._seq == reference._seq > 0
        assert (table._tablets.splits, table._tablets.merges) == (
            reference._tablets.splits, reference._tablets.merges
        )
        assert table.scan() == reference.scan()
        # The matrix exercised what it claims to.
        assert table.counter.counts.get(OpKind.DELETE, 0) > 0
        assert table.counter.logical_write_rows == table._seq
        assert table._tablets.merges > 0 and table._tablets.splits > 4
        assert (table.run_count() > 0) == (flush_rows is not None)
        if flush_rows is None:
            assert log_record_count(table)

    @pytest.mark.parametrize("mode", ["group", "small_group"])
    def test_group_commit_is_the_sequential_run(self, mode):
        # Against the unbatched run, by this file's rule: exact for counts,
        # rows, records and sequence numbers, a tolerance where
        # ``record_many`` re-associates a float sum.  No row is added or
        # removed, so the tablet boundaries hold still and the per-tablet
        # ledgers are comparable one by one.  What a group commit batches on
        # purpose — one fsync per tablet per flush instead of one per
        # record — shows only in the durability call count and seconds.
        batched = _run(Table, mode, structural=False)
        plain = _run(Table, "plain", structural=False)
        assert [t.start_key for t in batched.tablets()] == [
            t.start_key for t in plain.tablets()
        ]
        ledgers = [(batched.counter, plain.counter)] + [
            (ours.counter, theirs.counter)
            for ours, theirs in zip(batched.tablets(), plain.tablets())
        ]
        for ours, theirs in ledgers:
            assert ours.counts == theirs.counts
            assert ours.rows == theirs.rows
            assert ours.logical_write_rows == theirs.logical_write_rows
            assert ours.durability_rows == theirs.durability_rows
            for ledger in ("simulated_seconds", "read_seconds", "write_seconds"):
                assert getattr(ours, ledger) == pytest.approx(
                    getattr(theirs, ledger), rel=1e-12
                )
            assert ours.durability_seconds <= theirs.durability_seconds
        assert batched._seq == plain._seq
        assert [(t.log_counts, repr(list(t.rows.items()))) for t in batched.tablets()] == [
            (t.log_counts, repr(list(t.rows.items()))) for t in plain.tablets()
        ]
        assert batched.scan() == plain.scan()


class TestTraceVisibility:
    def test_update_path_resolves_probed_names_through_the_class(self, monkeypatch):
        # The benchmark's traced pass wraps these names on the class, in
        # place, after the indexer may already exist: a bound method
        # captured at construction time would run unseen.
        indexer = MoistIndexer(CONFIG)
        indexer.update_many(school_stream(0.0, count=12))
        seen = {}

        def watch(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                seen[name] = seen.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for name in ("write", "delete_cell", "read_latest", "_flush_group"):
            watch(Table, name)
        watch(SpatialIndexTable, "move")
        watch(LocationTable, "latest")
        watch(AffiliationTable, "role_of")
        counter = indexer.emulator.counter
        before = counter.snapshot()
        # Everyone reports from the far side of the world: each move deletes
        # the old spatial-index entry and writes the new one.
        indexer.update_many(
            [make_update(index, 90.0 - index, 90.0, t=1.0) for index in range(12)]
        )
        delta = counter.snapshot().delta(before)
        assert seen["move"] == 12
        assert seen["write"] == delta.counts[OpKind.WRITE]
        assert seen["delete_cell"] == delta.counts[OpKind.DELETE] == 12
        assert seen["read_latest"] == delta.counts[OpKind.READ]
        # Algorithm 1's two point reads per leader update, both through
        # ``read_latest``.
        assert seen["role_of"] == seen["latest"] == 12
        assert seen["read_latest"] == seen["role_of"] + seen["latest"]
        assert seen["_flush_group"] >= 3  # one per table of the batch
