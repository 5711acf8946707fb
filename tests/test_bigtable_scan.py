"""Tests for the scanner and the tablet-server block cache."""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.bigtable.cost import OpKind
from repro.bigtable.lsm import MEMTABLE_SOURCE
from repro.bigtable.scan import BlockCache, BlockCacheOptions
from repro.bigtable.table import ColumnFamily, Table
from repro.bigtable.tablet import TabletOptions
from repro.errors import ColumnFamilyError, ConfigurationError


def make_table(split_threshold=512, cache_options=None):
    return Table(
        "scan_test",
        [ColumnFamily("mem", in_memory=True, max_versions=4)],
        options=TabletOptions(split_threshold=split_threshold, merge_threshold=4),
        cache_options=cache_options,
    )


def fill(table, count, width=4):
    for index in range(count):
        table.write(f"{index:0{width}d}", "mem", "q", index, 0.0)


def hit_rate(stats):
    """Overall fraction of block lookups that hit, over cache-stat rows."""
    lookups = sum(entry.lookups for entry in stats)
    return sum(entry.hits for entry in stats) / lookups if lookups else 0.0


class TestBlockCache:
    def test_invalid_options(self):
        with pytest.raises(ConfigurationError):
            BlockCacheOptions(capacity_blocks=0)
        with pytest.raises(ConfigurationError):
            BlockCacheOptions(block_prefix_len=0)

    def test_price_miss_then_hit(self):
        cache = BlockCache(BlockCacheOptions(block_prefix_len=2))
        assert cache.price("t1", MEMTABLE_SOURCE, ["ab"]) == 0
        assert cache.price("t1", MEMTABLE_SOURCE, ["ab"]) == 1
        assert hit_rate(cache.stats("t")) == 0.5

    def test_price_counts_rows_and_looks_each_block_up_once(self):
        cache = BlockCache(BlockCacheOptions(block_prefix_len=2))
        cache.price("t1", MEMTABLE_SOURCE, ["aa1"])
        # aa is warm (3 rows), bb and cc are cold (1 + 2 rows).
        assert cache.price("t1", MEMTABLE_SOURCE, ["aa1", "aa2", "aa3", "bb1", "cc1", "cc2"]) == 3
        assert list(cache.lru) == [
            ("t1", MEMTABLE_SOURCE, "aa"), ("t1", MEMTABLE_SOURCE, "bb"), ("t1", MEMTABLE_SOURCE, "cc"),
        ]
        assert (cache._hits, cache._misses) == ({"t1": 1}, {"t1": 3})
        assert cache.price("t1", "run-1", ["aa1"]) == 0  # another source, another block

    def test_price_of_nothing_leaves_no_tally(self):
        cache = BlockCache()
        assert cache.price("t1", MEMTABLE_SOURCE, []) == 0
        assert (cache._hits, cache._misses, len(cache)) == ({}, {}, 0)

    def test_lru_eviction(self):
        cache = BlockCache(BlockCacheOptions(capacity_blocks=2, block_prefix_len=2))
        cache.price("t1", MEMTABLE_SOURCE, ["aa", "bb"])
        cache.price("t1", MEMTABLE_SOURCE, ["aa"])  # bump aa; bb is now LRU
        cache.price("t1", MEMTABLE_SOURCE, ["cc"])  # evicts bb
        assert cache.price("t1", MEMTABLE_SOURCE, ["aa"]) == 1
        assert cache.price("t1", MEMTABLE_SOURCE, ["bb"]) == 0

    def test_invalidate_row_evicts_block(self):
        cache = BlockCache(BlockCacheOptions(block_prefix_len=2))
        cache.price("t1", MEMTABLE_SOURCE, ["ab"])
        cache.invalidate_row("t1", "abcd")
        assert cache.price("t1", MEMTABLE_SOURCE, ["ab"]) == 0

    def test_invalidate_tablet_evicts_all_its_blocks(self):
        cache = BlockCache(BlockCacheOptions(block_prefix_len=2))
        cache.price("t1", MEMTABLE_SOURCE, ["aa"])
        cache.price("t1", "run-1", ["aa"])
        cache.price("t2", MEMTABLE_SOURCE, ["aa"])
        cache.invalidate_tablet("t1")
        assert list(cache.lru) == [("t2", MEMTABLE_SOURCE, "aa")]

    def test_invalidate_source_evicts_only_that_source(self):
        cache = BlockCache(BlockCacheOptions(block_prefix_len=2))
        cache.price("t1", MEMTABLE_SOURCE, ["aa", "bb"])
        cache.price("t1", "run-1", ["aa"])
        cache.price("t2", "run-1", ["aa"])
        cache.invalidate_source("t1", "run-1")
        assert list(cache.lru) == [
            ("t1", MEMTABLE_SOURCE, "aa"), ("t1", MEMTABLE_SOURCE, "bb"), ("t2", "run-1", "aa"),
        ]

    def test_stats_per_tablet(self):
        cache = BlockCache(BlockCacheOptions(block_prefix_len=2))
        cache.price("t1", MEMTABLE_SOURCE, ["aa"])
        cache.price("t1", MEMTABLE_SOURCE, ["aa"])
        cache.price("t2", MEMTABLE_SOURCE, ["bb"])
        stats = {entry.tablet_id: entry for entry in cache.stats("tbl")}
        assert stats["t1"].hits == 1 and stats["t1"].misses == 1
        assert stats["t2"].hits == 0 and stats["t2"].misses == 1
        assert stats["t1"].hit_rate == 0.5

    @pytest.mark.parametrize("damage", ["repeated key", "short lengths"])
    def test_refused_snapshot_leaves_the_cache_as_it_was(self, damage):
        source = BlockCache(BlockCacheOptions(block_prefix_len=2))
        source.price("t1", MEMTABLE_SOURCE, ["aa", "bb"])
        snapshot = source.export_state()
        if damage == "repeated key":
            snapshot["blocks"] = "aaaa"  # both entries spell ("t1", memtable, "aa")
        else:
            snapshot["block_len"] = array("I", [2, 1]).tobytes()
        cache = BlockCache(BlockCacheOptions(block_prefix_len=2))
        cache.price("t2", "run-1", ["cc", "dd"])
        cache.price("t2", "run-1", ["cc"])
        before = cache.export_state()
        with pytest.raises(ValueError):
            cache.install_state(snapshot)
        assert cache.export_state() == before


class TestScannerCharging:
    def test_cold_scan_charges_scan_rows(self):
        table = make_table()
        fill(table, 10)
        before = table.counter.snapshot()
        table.scan()
        delta = table.counter.snapshot().delta(before)
        assert delta.counts.get(OpKind.SCAN) == 1
        assert delta.rows.get(OpKind.SCAN) == 10
        assert not delta.counts.get(OpKind.CACHE_READ)

    def test_warm_scan_is_cheaper_and_records_cache_reads(self):
        table = make_table()
        fill(table, 64)
        before = table.counter.snapshot()
        table.scan()
        cold = table.counter.snapshot()
        table.scan()
        warm = table.counter.snapshot()
        cold_cost = cold.delta(before).simulated_seconds
        warm_delta = warm.delta(cold)
        assert warm_delta.simulated_seconds < cold_cost
        assert warm_delta.rows.get(OpKind.CACHE_READ) == 64
        assert warm_delta.rows.get(OpKind.SCAN, 0) == 0

    def test_write_invalidates_block(self):
        table = make_table()
        fill(table, 4, width=4)  # all rows share the 6-char block prefix "000"...
        table.scan()
        table.write("0001", "mem", "q", 99, 1.0)
        before = table.counter.snapshot()
        table.scan()
        delta = table.counter.snapshot().delta(before)
        # The dirtied block is cold again: its rows are scan rows, not cache reads.
        assert delta.rows.get(OpKind.SCAN, 0) > 0

    def test_hit_rate_monotonically_warms(self):
        table = make_table()
        fill(table, 32)
        rates = []
        for _ in range(4):
            table.scan()
            rates.append(hit_rate(table.cache_stats()))
        assert rates == sorted(rates)
        assert rates[-1] > 0.5

    def test_storage_rpc_count_excludes_cache_reads(self):
        table = make_table()
        fill(table, 16)
        writes = table.counter.storage_rpc_count()
        table.scan()
        table.scan()
        assert table.counter.storage_rpc_count() == writes + 2
        assert table.counter.counts.get(OpKind.CACHE_READ, 0) >= 1
        assert table.counter.total_calls() > table.counter.storage_rpc_count()

    def test_range_scan_spans_tablets_and_charges_only_those_it_touches(self):
        table = make_table(split_threshold=8)
        fill(table, 40)
        assert table.tablet_count() > 2
        table.reset_tablet_counters()
        rows = table.scan("0005", "0015")
        assert [key for key, _ in rows] == [f"{i:04d}" for i in range(5, 15)]
        charged = [t for t in table.tablets() if t.counter.counts.get(OpKind.SCAN, 0)]
        owners = {table.tablet_for_key(f"{i:04d}").tablet_id for i in range(5, 15)}
        assert len(owners) > 1
        assert {t.tablet_id for t in charged} == owners
        assert sum(t.counter.rows.get(OpKind.SCAN, 0) for t in charged) == 10
        # A range inside one tablet is served, and charged, by that one.
        table.reset_tablet_counters()
        table.scan("0000", "0002")
        assert [t.counter.counts.get(OpKind.SCAN, 0) for t in table.tablets()][0] == 1
        assert sum(t.counter.counts.get(OpKind.SCAN, 0) for t in table.tablets()) == 1

    def test_empty_scan_attributes_to_owning_tablet(self):
        table = make_table(split_threshold=8)
        fill(table, 40)
        table.reset_tablet_counters()
        last = table.tablets()[-1]
        # A probe of a key range beyond every stored row yields no rows but
        # must still show up on the owning tablet's ledger.
        rows = table.scan("9000", "9999")
        assert rows == []
        assert last.counter.rows.get(OpKind.SCAN, 0) == 1
        assert table.tablets()[0].counter.total_calls() == 0

    def test_warm_scan_still_attributed_to_tablet_ledger(self):
        table = make_table()
        fill(table, 16)
        table.scan()
        table.reset_tablet_counters()
        table.scan()  # fully warm: every row a cache read
        tablet = table.tablets()[0]
        # The tablet served the scan RPC even though the cache covered every
        # row — its ledger must keep growing or read skew fades as the
        # cache warms.
        assert tablet.counter.counts.get(OpKind.SCAN, 0) == 1
        assert tablet.counter.rows.get(OpKind.CACHE_READ, 0) == 16
        assert tablet.counter.read_seconds > 0

    def test_split_invalidates_moved_rows(self):
        table = make_table(split_threshold=8)
        fill(table, 8)
        table.scan()
        assert len(table.cache) > 0
        fill(table, 9)  # ninth row triggers a split; both halves evict
        assert table.tablet_count() == 2
        before = table.counter.snapshot()
        table.scan()
        delta = table.counter.snapshot().delta(before)
        assert delta.rows.get(OpKind.SCAN, 0) == 9

    def test_reset_cache_stats_keeps_blocks_warm(self):
        table = make_table()
        fill(table, 16)
        table.scan()
        table.reset_cache_stats()
        assert hit_rate(table.cache_stats()) == 0.0
        before = table.counter.snapshot()
        table.scan()
        delta = table.counter.snapshot().delta(before)
        assert delta.rows.get(OpKind.CACHE_READ) == 16
        assert hit_rate(table.cache_stats()) == 1.0


# ----------------------------------------------------------------------
# Projected reads: one family's newest values, same ledger as whole rows
# ----------------------------------------------------------------------
def lsm_table():
    """Tiny memtables, tight split/merge thresholds and a two-block cache
    line: flushes, runs, tombstones, pull-backs, splits and merges all
    happen within a few dozen mutations."""
    return Table(
        "projected",
        [ColumnFamily("a", max_versions=3), ColumnFamily("b", max_versions=5)],
        options=TabletOptions(
            split_threshold=8,
            merge_threshold=3,
            memtable_flush_rows=4,
            compaction_max_runs=2,
        ),
        cache_options=BlockCacheOptions(capacity_blocks=6, block_prefix_len=2),
    )


def newest_of(full_row, family):
    """What a projected read must return for a whole-row copy."""
    return {
        qualifier: cells[0].value
        for qualifier, cells in full_row.get(family, {}).items()
        if cells
    }


def ledgers(table):
    """Everything a read charges, compared with ``==`` — floats included."""
    def ledger(counter):
        return (
            counter.counts,
            counter.rows,
            counter.simulated_seconds,
            counter.read_seconds,
            counter.write_seconds,
        )
    return (
        ledger(table.counter),
        [(t.tablet_id, t.start_key, ledger(t.counter)) for t in table.tablets()],
        table.cache_stats(),
        table.cache.export_state(),
    )


_KEYS = st.integers(0, 29).map(lambda n: f"k{n:02d}")
_FAMILIES = st.sampled_from(["a", "b"])
_BOUNDS = st.one_of(st.none(), _KEYS)
_PROGRAM = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _KEYS, _FAMILIES, st.integers(0, 2), st.integers(0, 99)),
        st.tuples(st.just("write"), _KEYS, _FAMILIES, st.integers(0, 2), st.integers(0, 99)),
        st.tuples(st.just("delete_cell"), _KEYS, _FAMILIES, st.integers(0, 2)),
        st.tuples(st.just("delete_row"), _KEYS),
        st.tuples(st.just("age_out"), st.integers(0, 60)),
        st.tuples(st.just("flush")),
        st.tuples(st.just("compact")),
        st.tuples(
            st.just("scan"), _BOUNDS, _BOUNDS, st.one_of(st.none(), st.integers(0, 6)),
            _FAMILIES, st.booleans(),
        ),
        st.tuples(st.just("batch_read"), st.lists(_KEYS, max_size=6), _FAMILIES),
    ),
    max_size=80,
)


def run_program(program, projected_table, full_table):
    """Apply ``program`` to both tables; reads are projected on the first
    and whole-row on the second.  Yields after every read."""
    for step, op in enumerate(program):
        kind = op[0]
        if kind in ("scan", "batch_read"):
            if kind == "scan":
                _, start, end, limit, family, versions = op
                got = projected_table.scan(
                    start, end, limit, family=family, versions=versions
                )
                whole = full_table.scan(start, end, limit)
                if versions:
                    expected = [(key, row.get(family, {})) for key, row in whole]
                else:
                    expected = [(key, newest_of(row, family)) for key, row in whole]
            else:
                _, keys, family = op
                got = projected_table.batch_read(keys, family=family)
                whole = full_table.batch_read(keys)
                expected = {key: newest_of(row, family) for key, row in whole.items()}
                assert list(got) == list(expected)
            assert got == expected
            assert len(got) == len(whole)
            assert ledgers(projected_table) == ledgers(full_table)
            continue
        for table in (projected_table, full_table):
            if kind == "write":
                _, key, family, qualifier, value = op
                table.write(key, family, f"q{qualifier}", value, float(step))
            elif kind == "delete_cell":
                table.delete_cell(op[1], op[2], f"q{op[3]}")
            elif kind == "delete_row":
                table.delete_row(op[1])
            elif kind == "age_out":
                table.age_out("a", "b", float(op[1]))
            elif kind == "flush":
                table.flush_memtables()
            else:
                table.compact_runs()


class TestProjectedReads:
    @settings(max_examples=150, deadline=None)
    @given(program=_PROGRAM)
    def test_projected_reads_match_whole_rows_and_charge_the_same(self, program):
        projected_table, full_table = lsm_table(), lsm_table()
        run_program(program, projected_table, full_table)
        assert ledgers(projected_table) == ledgers(full_table)
        assert projected_table.all_keys() == full_table.all_keys()

    def test_holds_across_runs_tombstones_pull_backs_split_and_merge(self):
        projected_table, full_table = lsm_table(), lsm_table()
        everything = ("scan", None, None, None, "a", False)
        load = [("write", f"k{n:02d}", "a", n % 3, n) for n in range(30)]
        churn = [
            ("delete_row", "k03"),                 # tombstone over a run row
            ("write", "k04", "b", 0, 7),           # pulls a run row back
            ("age_out", 10),                       # leaves emptied chains behind
            everything,
            ("batch_read", ["k04", "k03", "k29", "zz"], "b"),
        ]
        shrink = [("delete_row", f"k{n:02d}") for n in range(5, 30)]
        program = load + [everything] + churn + shrink + [everything, everything]
        run_program(program, projected_table, full_table)
        assert projected_table._tablets.splits > 0 and projected_table._tablets.merges > 0
        assert projected_table.counter.durability_count(OpKind.COMPACTION_WRITE) > 0
        # The survivors' "a" chains aged out entirely: present rows, no values.
        assert projected_table.scan(family="a") == [
            ("k00", {}), ("k01", {}), ("k02", {}), ("k04", {}),
        ]
        assert projected_table.scan("k02", family="b") == [
            ("k02", {"q2": 2}), ("k04", {"q0": 7, "q1": 4}),
        ]

    def test_row_without_the_family_still_counts_as_a_row(self):
        table = make_table()
        table.add_family(ColumnFamily("other"))
        table.write("0001", "other", "q", 1, 0.0)
        assert table.scan(family="mem") == [("0001", {})]
        assert table.batch_read(["0001", "0002"], family="mem") == {"0001": {}}

    def test_unknown_family_rejected(self):
        table = make_table()
        with pytest.raises(ColumnFamilyError):
            table.scan(family="nope")
        with pytest.raises(ColumnFamilyError):
            table.batch_read(["0001"], family="nope")

    def test_count_range_with_open_start_charges_the_first_tablet(self):
        table = make_table(split_threshold=8)
        fill(table, 40)
        first = table.tablets()[0]
        before = first.counter.counts.get(OpKind.SCAN, 0)
        assert table.count_range(None, "0010") == 10
        assert table.count_range("", "0010") == 10
        assert first.counter.counts[OpKind.SCAN] == before + 2
