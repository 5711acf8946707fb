"""One pricing call per slice against the per-row probe it replaced.

The block cache prices a tablet's contiguous rows of one source in one call,
and its LRU is its only structure.  Before that, the scanner probed the
cache once per block change, with a per-tablet set of resident keys beside
the LRU for invalidation, and the table projected scanned rows and charged
batch reads in second passes.  :class:`ProbeTable` keeps all of that —
cache, scanner, ``scan`` and ``batch_read`` as they were — so a
hypothesis-driven program of writes, deletes, flushes, compactions, splits,
merges, tablet recoveries and reads can run against both tables, comparing
everything the cache and the ledgers can show: LRU order, the hit and miss
tallies with their key order, the snapshot bytes, each tablet's cold and
warm rows, and both ledgers to the last float.
"""

from hypothesis import example, given, settings, strategies as st

from repro.bigtable.cost import OpKind
from repro.bigtable.lsm import MEMTABLE_SOURCE
from repro.bigtable.scan import BlockCache, BlockCacheOptions, Scanner
from repro.bigtable.table import ColumnFamily, Table, _TabletTally
from repro.bigtable.tablet import TabletOptions
from repro.codec.values import pack_value


class ProbeBlockCache(BlockCache):
    """The cache with a ``probe`` per block change and ``_by_tablet``, the
    per-tablet set of resident keys that invalidation used to walk."""

    def __init__(self, options=None):
        super().__init__(options)
        self._by_tablet = {}

    def probe(self, tablet_id, block, source=MEMTABLE_SOURCE):
        key = (tablet_id, source, block)
        if key in self.lru:
            self.lru.move_to_end(key)
            self._hits[tablet_id] = self._hits.get(tablet_id, 0) + 1
            return True
        self._misses[tablet_id] = self._misses.get(tablet_id, 0) + 1
        self.lru[key] = None
        self._by_tablet.setdefault(tablet_id, set()).add(key)
        if len(self.lru) > self.options.capacity_blocks:
            evicted = self.lru.popitem(last=False)[0]
            resident = self._by_tablet.get(evicted[0])
            if resident is not None:
                resident.discard(evicted)
                if not resident:
                    del self._by_tablet[evicted[0]]
        return False

    def invalidate_row(self, tablet_id, row_key):
        resident = self._by_tablet.get(tablet_id)
        if resident is None:
            return
        key = (tablet_id, MEMTABLE_SOURCE, row_key[: self.options.block_prefix_len])
        if key in resident:
            resident.discard(key)
            if not resident:
                del self._by_tablet[tablet_id]
            del self.lru[key]

    def invalidate_source(self, tablet_id, source):
        resident = self._by_tablet.get(tablet_id)
        if not resident:
            return
        for key in [key for key in resident if key[1] == source]:
            resident.discard(key)
            del self.lru[key]
        if not resident:
            del self._by_tablet[tablet_id]

    def invalidate_tablet(self, tablet_id):
        for key in self._by_tablet.pop(tablet_id, ()):
            del self.lru[key]

    def clear(self):
        super().clear()
        self._by_tablet.clear()


class ProbeScanner(Scanner):
    """The scanner with two pricing loops, one probe per block change."""

    def execute_range(self, start_key=None, end_key=None, limit=None):
        results = []
        remaining = limit
        charges = []
        prefix_len = self.cache.options.block_prefix_len
        probe = self.cache.probe
        for tablet in self.locator.tablets_in_range(start_key, end_key):
            if remaining is not None and remaining <= 0:
                break
            cold = warm = 0
            current_block = current_source = None
            block_warm = False
            if not tablet.runs:
                scanned = (
                    (key, row, MEMTABLE_SOURCE)
                    for key, row in tablet.rows.scan(start_key, end_key, remaining)
                )
            else:
                scanned = tablet.merged_scan(start_key, end_key, remaining)
            for row_key, row, source in scanned:
                block = row_key[:prefix_len]
                if block != current_block or source != current_source:
                    current_block = block
                    current_source = source
                    block_warm = probe(tablet.tablet_id, block, source)
                if block_warm:
                    warm += 1
                else:
                    cold += 1
                results.append((row_key, row))
                if remaining is not None:
                    remaining -= 1
            charges.append((tablet, cold, warm))
        cold_total = sum(cold for _, cold, _ in charges)
        warm_total = sum(warm for _, _, warm in charges)
        self.counter.record(
            OpKind.SCAN, rows=cold_total if cold_total + warm_total > 0 else 1
        )
        if warm_total > 0:
            self.counter.record(OpKind.CACHE_READ, rows=warm_total)
        # Each tablet's share, record by record, as the scanner charged
        # it before one ledger call took the whole scan.
        for tablet, cold, warm in charges:
            tablet.counter.record(OpKind.SCAN, rows=cold if cold + warm > 0 else 1)
            if warm > 0:
                tablet.counter.record(OpKind.CACHE_READ, rows=warm)
        return results


def newest_values(row, family):
    return {
        qualifier: chain[1] for qualifier, chain in (row.get(family) or {}).items() if chain
    }


class ProbeTable(Table):
    """The table priced through the probe twins, projecting after the scan
    and charging batch reads through a re-locating :class:`_TabletTally`."""

    def __init__(self, name, families, options, cache_options):
        super().__init__(name, families, options=options, cache_options=cache_options)
        self.cache = ProbeBlockCache(cache_options)
        self._scanner = ProbeScanner(self.counter, self._tablets, self.cache)

    def scan(self, start_key=None, end_key=None, limit=None, family=None, versions=False):
        scanned = self._scanner.execute_range(start_key, end_key, limit)
        if family is None:
            return [(row_key, row.cells()) for row_key, row in scanned]
        self.family(family)
        if versions:
            return [(row_key, row.version_cells(family)) for row_key, row in scanned]
        return [(row_key, newest_values(row, family)) for row_key, row in scanned]

    def batch_read(self, row_keys, family=None):
        if family is not None:
            self.family(family)
        results = {}
        tally = _TabletTally()
        for row_key in row_keys:
            tablet = self._tablets.locate(row_key)
            tally.add(tablet)
            row = tablet.live_row(row_key)
            if row is not None:
                results[row_key] = (
                    row.cells() if family is None else newest_values(row, family)
                )
        self.counter.record(OpKind.BATCH_READ, rows=max(len(row_keys), 1))
        tally.charge(self._tablets, OpKind.BATCH_READ)
        return results


FAMILIES = [ColumnFamily("a", max_versions=2), ColumnFamily("b", max_versions=3)]


def make_pair(capacity, prefix_len, flush_rows):
    options = TabletOptions(
        split_threshold=8,
        merge_threshold=3,
        memtable_flush_rows=flush_rows,
        compaction_max_runs=2,
    )
    cache_options = BlockCacheOptions(capacity_blocks=capacity, block_prefix_len=prefix_len)
    return (
        Table("t", FAMILIES, options=options, cache_options=cache_options),
        ProbeTable("t", FAMILIES, options, cache_options),
    )


def observe(table):
    """What the cache and the ledgers show, compared with ``==``."""
    cache = table.cache

    def ledger(counter):
        return (
            list(counter.counts.items()),
            list(counter.rows.items()),
            counter.simulated_seconds,
            counter.read_seconds,
            counter.write_seconds,
            counter.durability_seconds,
        )

    return {
        "lru": list(cache.lru),
        "hits": list(cache._hits.items()),
        "misses": list(cache._misses.items()),
        "snapshot": pack_value(cache.export_state()),
        "cold_warm": [
            (t.tablet_id, t.counter.rows.get(OpKind.SCAN), t.counter.rows.get(OpKind.CACHE_READ))
            for t in table.tablets()
        ],
        "shared": ledger(table.counter),
        "tablets": [(t.tablet_id, t.start_key, ledger(t.counter)) for t in table.tablets()],
    }


# Three-character keys over a small alphabet: with a one- or two-character
# block prefix, blocks hold several rows and tablets split inside a block.
_KEYS = st.tuples(
    st.sampled_from("abcd"), st.sampled_from("xyz"), st.sampled_from("0123")
).map("".join)
_BOUNDS = st.one_of(st.none(), _KEYS)
_FAMILY = st.sampled_from(["a", "b"])
_OPS = st.one_of(
    st.tuples(st.just("write"), _KEYS, _FAMILY, st.integers(0, 2)),
    st.tuples(st.just("write"), _KEYS, _FAMILY, st.integers(0, 2)),
    st.tuples(st.just("delete_cell"), _KEYS, _FAMILY, st.integers(0, 2)),
    st.tuples(st.just("delete_row"), _KEYS),
    st.tuples(st.just("flush")),
    st.tuples(st.just("compact"), st.booleans()),
    st.tuples(st.just("recover_tablet"), st.integers(0, 20)),
    st.tuples(
        st.just("scan"), _BOUNDS, _BOUNDS, st.one_of(st.none(), st.integers(0, 9)),
        st.one_of(st.none(), _FAMILY), st.booleans(),
    ),
    st.tuples(st.just("scan"), st.none(), st.none(), st.none(), _FAMILY, st.just(False)),
    st.tuples(st.just("batch_read"), st.lists(_KEYS, max_size=8), st.one_of(st.none(), _FAMILY)),
)


def apply(table, op, step):
    kind = op[0]
    if kind == "write":
        _, key, family, qualifier = op
        table.write(key, family, f"q{qualifier}", step, float(step))
    elif kind == "delete_cell":
        _, key, family, qualifier = op
        return table.delete_cell(key, family, f"q{qualifier}")
    elif kind == "delete_row":
        return table.delete_row(op[1])
    elif kind == "flush":
        return table.flush_memtables()
    elif kind == "compact":
        return table.compact_runs(major=op[1])
    elif kind == "recover_tablet":
        tablets = table.tablets()
        return table.recover_tablet(tablets[op[1] % len(tablets)]).log_records_replayed
    elif kind == "scan":
        _, start, end, limit, family, versions = op
        return table.scan(start, end, limit, family=family, versions=versions)
    else:
        _, keys, family = op
        found = table.batch_read(keys, family=family)
        return list(found.items())


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.sampled_from([1, 2, 5, 64]),
    prefix_len=st.sampled_from([1, 2]),
    flush_rows=st.sampled_from([None, 3, 6]),
    ops=st.lists(_OPS, max_size=60),
)
# A scan over runs from two sources inside one block, with a one-block LRU:
# every source change is a lookup, and each evicts the last.
@example(
    capacity=1,
    prefix_len=1,
    flush_rows=None,
    ops=[
        ("write", "ax0", "a", 0), ("write", "ax2", "a", 0), ("flush",),
        ("write", "ax1", "a", 0), ("write", "ax3", "b", 1),
        ("scan", None, None, None, "a", False),
        ("scan", "ax1", None, 3, None, False),
    ],
)
def test_slice_pricing_matches_the_per_row_probe(capacity, prefix_len, flush_rows, ops):
    table, reference = make_pair(capacity, prefix_len, flush_rows)
    for step, op in enumerate(ops):
        assert apply(table, op, step) == apply(reference, op, step)
        assert observe(table) == observe(reference)


def test_the_program_reaches_runs_splits_merges_and_warm_rows():
    """The strategy's ground: one fixed program of the kind it draws takes
    the table through all the states the comparison is about."""
    table, reference = make_pair(capacity=64, prefix_len=2, flush_rows=3)
    keys = [a + b + c for a in "abcd" for b in "xyz" for c in "0123"]
    ops = [("write", key, "a", 0) for key in keys]
    ops += [("scan", "ay0", "cz3", None, "a", False)] * 2
    ops += [("batch_read", keys[::5], "a"), ("recover_tablet", 3)]
    ops += [("delete_row", key) for key in keys[6:40]]
    ops += [("compact", True), ("scan", None, None, 7, "a", False)]
    for step, op in enumerate(ops):
        assert apply(table, op, step) == apply(reference, op, step)
        assert observe(table) == observe(reference)
    assert table._tablets.splits and table._tablets.merges
    assert table.counter.rows.get(OpKind.CACHE_READ)
    assert table.counter.durability_count(OpKind.COMPACTION_WRITE)


def test_batch_read_charges_each_routed_tablet_once_with_its_key_count():
    table, _ = make_pair(capacity=4, prefix_len=1, flush_rows=None)
    for index, key in enumerate(a + b for a in "abcd" for b in "0123456789"):
        table.write(key, "a", "q", index, 0.0)
    assert table.tablet_count() > 2
    table.reset_tablet_counters()
    keys = ["d1", "a0", "zz", "a0", "b5", "c9", "a3"]
    expected = _TabletTally()
    for key in keys:
        expected.add(table.tablet_for_key(key))
    table.batch_read(keys, family="a")
    charged = {
        t.tablet_id: t.counter.rows[OpKind.BATCH_READ]
        for t in table.tablets()
        if t.counter.counts.get(OpKind.BATCH_READ, 0)
    }
    assert charged == expected._rows
    assert all(t.counter.counts.get(OpKind.BATCH_READ, 0) <= 1 for t in table.tablets())
    assert sum(charged.values()) == len(keys)
