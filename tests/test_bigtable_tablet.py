"""Tests for the tablet layer: options, splits, merges, routing, group commit."""

import random

import pytest

from repro.bigtable.cost import CostModel, OpKind
from repro.bigtable.emulator import BigtableEmulator
from repro.bigtable.sorted_map import SortedMap
from repro.bigtable.table import ColumnFamily, Table
from repro.bigtable.tablet import TabletLocator, TabletOptions
from repro.errors import ConfigurationError

SMALL = TabletOptions(split_threshold=8, merge_threshold=4, group_commit_size=16)


def make_table(options=SMALL):
    return Table("t", [ColumnFamily("f", max_versions=2)], options=options)


def fill(table, count, prefix="k"):
    for index in range(count):
        table.write(f"{prefix}{index:04d}", "f", "q", index, float(index))


class TestTabletOptions:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TabletOptions(split_threshold=1)
        with pytest.raises(ConfigurationError):
            TabletOptions(merge_threshold=-1)
        with pytest.raises(ConfigurationError):
            TabletOptions(split_threshold=8, merge_threshold=8)
        with pytest.raises(ConfigurationError):
            TabletOptions(max_tablets=0)
        with pytest.raises(ConfigurationError):
            TabletOptions(group_commit_size=0)

    def test_defaults_are_consistent(self):
        options = TabletOptions()
        assert options.merge_threshold < options.split_threshold


class TestSortedMapSplitPrimitives:
    def test_split_off_moves_upper_half(self):
        rows = SortedMap()
        for key in ["a", "b", "c", "d"]:
            rows.set(key, key.upper())
        upper = rows.split_off("c")
        assert rows.keys() == ["a", "b"]
        assert upper.keys() == ["c", "d"]
        assert upper.get("d") == "D"

    def test_absorb_after_requires_greater_keys(self):
        left = SortedMap()
        left.set("b", 1)
        right = SortedMap()
        right.set("a", 2)
        with pytest.raises(ValueError):
            left.absorb_after(right)

    def test_absorb_after_appends(self):
        left = SortedMap()
        left.set("a", 1)
        right = SortedMap()
        right.set("b", 2)
        left.absorb_after(right)
        assert left.keys() == ["a", "b"]
        assert len(right) == 0


class TestSplitting:
    def test_table_starts_with_one_tablet(self):
        table = make_table()
        assert table.tablet_count() == 1

    def test_split_beyond_threshold(self):
        table = make_table()
        fill(table, 20)
        assert table.tablet_count() >= 2
        assert table._tablets.splits >= 1
        assert table.row_count() == 20

    def test_split_preserves_scan_order(self):
        table = make_table()
        fill(table, 30)
        keys = [key for key, _ in table.scan()]
        assert keys == sorted(keys)
        assert len(keys) == 30

    def test_max_tablets_bounds_splitting(self):
        options = TabletOptions(split_threshold=2, merge_threshold=1, max_tablets=3)
        table = make_table(options)
        fill(table, 50)
        assert table.tablet_count() <= 3
        assert table.row_count() == 50

    def test_tablet_ranges_partition_keyspace(self):
        table = make_table()
        fill(table, 40)
        tablets = table.tablets()
        assert tablets[0].start_key == ""
        for left, right in zip(tablets, tablets[1:]):
            assert left.start_key < right.start_key
        stats = table.tablet_stats()
        for earlier, later in zip(stats, stats[1:]):
            assert earlier.end_key == later.start_key
        assert stats[-1].end_key is None


class TestLocatorRouting:
    def test_every_key_routes_to_owning_tablet(self):
        table = make_table()
        fill(table, 40)
        for key in table.all_keys():
            tablet = table.tablet_for_key(key)
            assert key in tablet.rows
            assert tablet.start_key <= key

    def test_routing_respects_range_bounds(self):
        table = make_table()
        fill(table, 40)
        for stat in table.tablet_stats():
            tablet = table.tablet_for_key(stat.start_key or "a")
            if stat.start_key:
                assert tablet.tablet_id == stat.tablet_id

    def test_reads_cross_tablet_boundaries(self):
        table = make_table()
        fill(table, 40)
        rows = table.scan("k0005", "k0035")
        assert [key for key, _ in rows] == [f"k{i:04d}" for i in range(5, 35)]
        assert table.count_range("k0005", "k0035") == 30

    def test_locator_scan_limit(self):
        locator = TabletLocator("t", SMALL)
        for index in range(10):
            locator.locate(f"k{index}").rows.set(f"k{index}", index)
        seen = list(locator.scan(None, None, limit=4))
        assert len(seen) == 4


class TestMerging:
    def test_deletes_merge_tablets_back(self):
        table = make_table()
        fill(table, 30)
        assert table.tablet_count() > 1
        for index in range(28):
            table.delete_row(f"k{index:04d}")
        assert table.tablet_count() == 1
        assert table._tablets.merges >= 1
        assert table.row_count() == 2

    def test_uncharged_deletes_still_merge(self):
        # The aging drains delete with _charge=False; emptied tablets must
        # still merge away instead of fragmenting the table forever.
        table = make_table()
        fill(table, 20)
        assert table.tablet_count() > 1
        for index in range(20):
            table.delete_cell(f"k{index:04d}", "f", "q", _charge=False)
        assert table.row_count() == 0
        assert table.tablet_count() == 1

    def test_batch_delete_charges_survive_merges(self):
        # Per-tablet batch charges must land on (or be absorbed into) live
        # tablets even when the batch itself collapses the tablet layout.
        table = make_table()
        fill(table, 30)
        assert table.tablet_count() > 1
        table.batch_delete([(f"k{index:04d}", "f", "q") for index in range(30)])
        assert table.tablet_count() == 1
        live = table.tablets()[0]
        assert live.counter.rows.get(OpKind.BATCH_WRITE, 0) == 30

    def test_group_mode_uncharged_deletes_merge_at_flush(self):
        table = make_table()
        fill(table, 20)
        before = table.tablet_count()
        assert before > 1
        with table.group_commit():
            for index in range(20):
                table.delete_cell(f"k{index:04d}", "f", "q", _charge=False)
            # Structural checks are deferred while the group is open.
            assert table.tablet_count() == before
        assert table.tablet_count() == 1

    def test_merge_preserves_data_and_history(self):
        table = make_table()
        fill(table, 20)
        writes_before = sum(
            stat.op_calls for stat in table.tablet_stats()
        )
        for index in range(18):
            table.delete_row(f"k{index:04d}")
        survivors = table.all_keys()
        assert survivors == ["k0018", "k0019"]
        # The surviving tablet absorbed the merged tablets' ledgers.
        calls_after = sum(stat.op_calls for stat in table.tablet_stats())
        assert calls_after >= writes_before


class TestPerTabletAccounting:
    def test_ops_attributed_to_owning_tablet(self):
        table = make_table()
        fill(table, 20)
        first = table.tablet_for_key("k0000")
        last = table.tablet_for_key("k0019")
        assert first.tablet_id != last.tablet_id
        before = last.counter.counts.get(OpKind.READ, 0)
        table.read_latest("k0019", "f", "q")
        assert last.counter.counts.get(OpKind.READ, 0) == before + 1
        assert first.counter.counts.get(OpKind.READ, 0) == 0 or first is not last

    def test_shared_counter_unchanged_by_sharding(self):
        sharded = make_table()
        monolith = make_table(TabletOptions(split_threshold=10_000))
        fill(sharded, 30)
        fill(monolith, 30)
        assert sharded.tablet_count() > 1
        assert monolith.tablet_count() == 1
        assert sharded.counter.simulated_seconds == pytest.approx(
            monolith.counter.simulated_seconds
        )

    def test_emulator_hot_share_and_reset(self):
        emulator = BigtableEmulator(tablet_options=SMALL)
        table = emulator.create_table("t", [ColumnFamily("f")])
        fill(table, 30)
        share = emulator.hot_tablet_share()
        assert 0.0 < share < 1.0
        assert emulator.tablet_count() == table.tablet_count()
        emulator.reset_counters()
        assert emulator.simulated_seconds == 0.0
        assert emulator.hot_tablet_share() == 1.0  # no ops recorded yet

    def test_tablet_stats_cover_all_rows(self):
        emulator = BigtableEmulator(tablet_options=SMALL)
        table = emulator.create_table("t", [ColumnFamily("f")])
        fill(table, 25)
        stats = emulator.tablet_stats()
        assert sum(stat.row_count for stat in stats) == 25


class TestGroupCommit:
    def test_writes_visible_inside_block(self):
        table = make_table()
        with table.group_commit():
            table.write("row", "f", "q", "value", 1.0)
            assert table.read_latest("row", "f", "q") == "value"

    def test_charges_flushed_at_exit(self):
        table = make_table()
        with table.group_commit():
            for index in range(5):
                table.write(f"k{index}", "f", "q", index, 0.0)
            # Only the reads charged so far; writes flush at exit.
            assert table.counter.counts.get(OpKind.WRITE, 0) == 0
        assert table.counter.counts.get(OpKind.WRITE, 0) == 5

    def test_cost_matches_sequential(self):
        batched = make_table()
        sequential = make_table()
        with batched.group_commit():
            for index in range(40):
                batched.write(f"k{index:04d}", "f", "q", index, 0.0)
        fill(sequential, 40)
        assert batched.counter.simulated_seconds == pytest.approx(
            sequential.counter.simulated_seconds
        )

    def test_split_checks_deferred_to_flush(self):
        table = make_table(TabletOptions(split_threshold=8, merge_threshold=4,
                                         group_commit_size=1000))
        with table.group_commit():
            fill(table, 20)
        assert table.tablet_count() >= 2
        assert table.row_count() == 20

    def test_custom_cost_model_respected(self):
        expensive = Table(
            "t",
            [ColumnFamily("f")],
            counter=None,
            options=SMALL,
        )
        assert expensive.counter.model == CostModel()

    def test_reentrant_blocks_flush_once(self):
        table = make_table()
        with table.group_commit():
            with table.group_commit():
                table.write("row", "f", "q", 1, 0.0)
            # Inner exit must not flush yet.
            assert table.counter.counts.get(OpKind.WRITE, 0) == 0
        assert table.counter.counts.get(OpKind.WRITE, 0) == 1


class TestStructuralChecksThatCannotFire:
    """``maybe_merge`` / ``maybe_split`` return early when the tablet's own
    row count already rules the change out.  The early-outs must never skip a
    merge or split the exhaustive neighbour walk would have made."""

    @staticmethod
    def watch(table):
        """Wrap the table's locator so every structural check is compared
        with a decision computed the long way, from both neighbour pairs."""
        locator = table._tablets
        options = locator.options
        merge, split = locator.maybe_merge, locator.maybe_split
        calls = {"merge": 0, "split": 0}

        def merge_due(tablet):
            # A tablet merged away earlier in the same flush still gets
            # checked: its start key resolves to whoever absorbed it.
            tablets = locator.tablets()
            index = locator.index_for(tablet.start_key)
            return any(
                tablets[left].row_count + tablets[left + 1].row_count
                <= options.merge_threshold
                for left in (index, index - 1)
                if left >= 0 and left + 1 < len(tablets)
            )

        def checked_merge(tablet):
            due = merge_due(tablet)
            calls["merge"] += 1
            assert merge(tablet) == due
            return due

        def checked_split(tablet):
            due = (
                tablet.row_count > options.split_threshold
                and len(locator) < options.max_tablets
            )
            calls["split"] += 1
            assert split(tablet) == due
            return due

        locator.maybe_merge = checked_merge
        locator.maybe_split = checked_split
        return calls

    @pytest.mark.parametrize("seed", range(10))
    def test_random_streams_make_the_same_decisions(self, seed):
        rng = random.Random(seed)
        options = TabletOptions(
            split_threshold=rng.choice([4, 8, 16]),
            merge_threshold=rng.choice([1, 3]),
            group_commit_size=rng.choice([2, 16]),
            max_tablets=rng.choice([4, 128]),
        )
        plain, watched = make_table(options), make_table(options)
        calls = self.watch(watched)
        keys = [f"k{index:03d}" for index in range(60)]
        for step in range(600):
            # Grow, then shrink, then churn: splits first, merges after.
            write_odds = (0.9, 0.03, 0.5)[step // 200]
            batch = [
                (rng.choice(keys), rng.random() < write_odds)
                for _ in range(rng.randrange(1, 6))
            ]
            for table in (plain, watched):
                with table.group_commit():
                    for key, is_write in batch:
                        if is_write:
                            table.write(key, "f", "q", step, float(step))
                        else:
                            table.delete_cell(key, "f", "q")
        assert calls["merge"] > 0 and calls["split"] > 0
        assert watched._tablets.splits > 0 and watched._tablets.merges > 0
        for table in (plain, watched):
            assert sum(t.row_count for t in table.tablets()) == table.row_count()
        assert [(t.start_key, t.row_count) for t in plain.tablets()] == [
            (t.start_key, t.row_count) for t in watched.tablets()
        ]
        assert (plain._tablets.splits, plain._tablets.merges) == (
            watched._tablets.splits, watched._tablets.merges
        )
