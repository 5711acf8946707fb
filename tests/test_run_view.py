"""The run view against the per-run reads it replaced.

A tablet reads its SSTable runs through one lazily built run view: a dict
of every key's newest run version for point reads, and sorted live columns
that range reads slice and merge the memtable into.  Before it, a point read
probed the runs newest-first, each behind its own Bloom filter, and a range
read heap-merged one stream per run with the memtable.  :class:`TwinTablet`
and :class:`TwinScanner` keep those reads as they were, so a
hypothesis-driven program of writes, deletes, flushes, minor and major
compactions, splits, merges, crash recoveries and disk restores can run
against a table and its twin.  After every step both tables must show the
same results, block-cache LRU order, tallies and ledgers, and within the
table every view read must return the very row objects (and sources) the
per-run reads find.

The bound test drives ``federation_disk``-shaped rounds through the
worker's own dispatch and checks that no view entry outlives the runs it
was built from, and that each shard's exactly-once slot stays one entry.
"""

import random
import tempfile
from bisect import bisect_left
from heapq import merge as heap_merge
from itertools import groupby
from operator import itemgetter
from zlib import crc32

import pytest
from hypothesis import given, settings, strategies as st

from repro.bigtable.cost import OpKind
from repro.bigtable.lsm import MEMTABLE_SOURCE, TOMBSTONE
from repro.bigtable.scan import BlockCacheOptions, Scanner
from repro.bigtable.table import ColumnFamily, Table
from repro.bigtable.tablet import Tablet, TabletOptions
from repro.codec.values import pack_value
from repro.disk.store import ShardStore
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import UpdateMessage, format_object_id
from repro.server import rpc
from repro.server.worker import ShardRecipe, dispatch_request, shard_of
from repro.workload.queries import NNQuery


# --------------------------------------------------------------------------
# The twin: per-run Bloom probes and the per-scan heap merge
# --------------------------------------------------------------------------
class BloomFilter:
    """Two CRC-derived probes over a run's keys, eight bits per key."""

    def __init__(self, keys):
        size = 64
        while size < max(len(keys), 1) * 8:
            size <<= 1
        self.mask = size - 1
        self.bits = bytearray(size >> 3)
        for key in keys:
            for bit in self._probes(key):
                self.bits[bit >> 3] |= 1 << (bit & 7)

    def _probes(self, key):
        h1 = crc32(key.encode("utf-8"))
        return h1 & self.mask, ((h1 * 0x9E3779B1) >> 7) & self.mask

    def might_contain(self, key):
        return all(self.bits[bit >> 3] & (1 << (bit & 7)) for bit in self._probes(key))


#: One filter per backing key array, shared by its slices; the entry holds
#: the array, so its id cannot be reused while the filter is cached.
_BLOOMS = {}


def run_get(run, key):
    """A run's version of ``key`` (row or TOMBSTONE), or ``None``."""
    keys = run._keys
    entry = _BLOOMS.get(id(keys))
    if entry is None:
        entry = _BLOOMS[id(keys)] = (keys, BloomFilter(keys))
    if not entry[1].might_contain(key):
        return None
    index = bisect_left(keys, key, run._lo, run._hi)
    if index < run._hi and keys[index] == key:
        return run._values[index]
    return None


def run_scan(run, start, end):
    keys = run._keys
    lo = run._lo if start is None else bisect_left(keys, start, run._lo, run._hi)
    hi = run._hi if end is None else bisect_left(keys, end, run._lo, run._hi)
    for index in range(lo, hi):
        yield keys[index], run._values[index]


def twin_run_lookup(tablet, key):
    for run in tablet.runs:
        value = run_get(run, key)
        if value is not None:
            return value
    return None


def twin_merged_scan(tablet, start=None, end=None, limit=None):
    if not tablet.runs:
        for key, row in tablet.rows.scan(start, end, limit):
            yield key, row, MEMTABLE_SOURCE
        return

    def decorate(rank, stream):
        return ((key, rank, value) for key, value in stream)

    streams = [decorate(0, tablet.rows.scan(start, end))] + [
        decorate(rank, run_scan(run, start, end))
        for rank, run in enumerate(tablet.runs, 1)
    ]
    sources = [MEMTABLE_SOURCE] + [run.run_id for run in tablet.runs]
    yielded = 0
    last_key = None
    for key, rank, value in heap_merge(*streams):
        if key == last_key:
            continue
        last_key = key
        if value is TOMBSTONE:
            continue
        yield key, value, sources[rank]
        yielded += 1
        if limit is not None and yielded >= limit:
            return


def twin_live_keys(tablet, start=None, end=None):
    return [key for key, _, _ in twin_merged_scan(tablet, start, end)]


def twin_median_key(tablet):
    if not tablet.runs:
        return tablet.rows.key_at(len(tablet.rows) // 2)
    keys = twin_live_keys(tablet)
    return keys[len(keys) // 2]


def twin_count_run_live(tablet):
    seen = {}
    for run in tablet.runs:
        for key, value in run_scan(run, None, None):
            seen.setdefault(key, value is not TOMBSTONE)
    return sum(seen.values())


class TwinTablet(Tablet):
    """A tablet reading its runs one by one; it never builds a view."""

    __slots__ = ()

    run_lookup = twin_run_lookup
    merged_scan = twin_merged_scan
    median_key = twin_median_key
    _count_run_live = twin_count_run_live

    def iter_live_keys(self, start=None, end=None):
        return iter(twin_live_keys(self, start, end))

    def merged_count_range(self, start=None, end=None):
        return len(twin_live_keys(self, start, end))

    def _build_view(self):
        raise AssertionError("the twin reads its runs one by one")


class TwinScanner(Scanner):
    """The scanner pricing the heap-merged triples, one slice per
    consecutive source."""

    def execute_range(
        self, start_key=None, end_key=None, limit=None, project=None, trace=None
    ):
        # No trace is recorded: a reader memoising on it finds none and
        # reads live every time, which is all the twin is compared on.
        results = []
        remaining = limit
        charges = []
        price = self.cache.price
        for tablet in self.locator.tablets_in_range(start_key, end_key):
            if remaining is not None and remaining <= 0:
                break
            tablet_id = tablet.tablet_id
            if not tablet.runs:
                keys, rows = tablet.rows.scan_columns(start_key, end_key, remaining)
                warm = price(tablet_id, MEMTABLE_SOURCE, keys)
            else:
                scanned = list(tablet.merged_scan(start_key, end_key, remaining))
                keys = [entry[0] for entry in scanned]
                rows = [entry[1] for entry in scanned]
                warm = 0
                for source, run in groupby(scanned, itemgetter(2)):
                    warm += price(tablet_id, source, [entry[0] for entry in run])
            charges.append((tablet, len(keys) - warm, warm))
            if remaining is not None:
                remaining -= len(keys)
            results.extend(zip(keys, rows if project is None else project(rows)))
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


def make_twin(table):
    """Turn ``table`` into the twin: every tablet, present and future, a
    :class:`TwinTablet`, and its scans priced by :class:`TwinScanner`."""
    locator = table._tablets
    for tablet in locator.tablets():
        tablet.__class__ = TwinTablet

    def new_tablet(start_key, _make=locator._new_tablet):
        tablet = _make(start_key)
        tablet.__class__ = TwinTablet
        return tablet

    locator._new_tablet = new_tablet
    table._scanner = TwinScanner(table.counter, locator, table.cache)
    return table


# --------------------------------------------------------------------------
# The program
# --------------------------------------------------------------------------
FAMILIES = [ColumnFamily("a", max_versions=2), ColumnFamily("b", max_versions=3)]
CACHE = BlockCacheOptions(capacity_blocks=6, block_prefix_len=2)
KEYS = [a + b + c for a in "abcd" for b in "xyz" for c in "012345"]
#: Range bounds every view read is checked over, inside and across tablets.
BOUNDS = [(None, None), ("b", None), (None, "c"), ("ay", "cz2")]

_KEY = st.sampled_from(KEYS)
_BOUND = st.one_of(st.none(), _KEY)
_FAMILY = st.sampled_from(["a", "b"])
_OPS = st.one_of(
    st.tuples(st.just("write"), _KEY, _FAMILY, st.integers(0, 2)),
    st.tuples(st.just("write"), _KEY, _FAMILY, st.integers(0, 2)),
    st.tuples(st.just("write_run"), st.integers(0, len(KEYS) - 1), st.integers(2, 16)),
    st.tuples(st.just("write_run"), st.integers(0, len(KEYS) - 1), st.integers(2, 16)),
    st.tuples(st.just("delete_cell"), _KEY, _FAMILY, st.integers(0, 2)),
    st.tuples(st.just("delete_row"), _KEY),
    st.tuples(st.just("delete_run"), st.integers(0, len(KEYS) - 1), st.integers(2, 36)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("compact"), st.booleans()),
    st.tuples(st.just("recover")),
    st.tuples(st.just("recover_tablet"), st.integers(0, 20)),
    st.tuples(st.just("restore")),
    st.tuples(
        st.just("scan"), _BOUND, _BOUND, st.one_of(st.none(), st.integers(1, 9)),
        st.one_of(st.none(), _FAMILY),
    ),
    st.tuples(st.just("count"), _BOUND, _BOUND),
    st.tuples(st.just("batch_read"), st.lists(_KEY, max_size=8), _FAMILY),
)


class Program:
    """One table driven through the program, restorable from its own
    store directory."""

    def __init__(self, options, root, twin):
        self.root = root
        self.twin = twin
        self.restores = 0
        self.table = Table("t", FAMILIES, options=options, cache_options=CACHE)
        if twin:
            make_twin(self.table)

    def restore(self):
        """A kill and respawn: snapshot, rebuild from the files."""
        table = self.table
        root = f"{self.root}/{self.restores}"
        self.restores += 1
        ShardStore(root).snapshot({"t": table}, None)
        self.table = ShardStore(root).load().restore_table(
            "t", FAMILIES, table.counter, cache_options=CACHE
        )
        if self.twin:
            make_twin(self.table)

    def apply(self, op, step):
        table = self.table
        kind = op[0]
        if kind == "write":
            _, key, family, qualifier = op
            table.write(key, family, f"q{qualifier}", step, float(step))
        elif kind == "write_run":
            _, first, width = op
            table.batch_write(
                [(key, "a", "q0", step, float(step)) for key in KEYS[first : first + width]]
            )
        elif kind == "delete_cell":
            _, key, family, qualifier = op
            return table.delete_cell(key, family, f"q{qualifier}")
        elif kind == "delete_row":
            return table.delete_row(op[1])
        elif kind == "delete_run":
            _, first, width = op
            return [table.delete_row(key) for key in KEYS[first : first + width]]
        elif kind == "flush":
            return table.flush_memtables()
        elif kind == "compact":
            return table.compact_runs(major=op[1])
        elif kind == "recover":
            return table.recover().log_records_replayed
        elif kind == "recover_tablet":
            tablets = table.tablets()
            return table.recover_tablet(tablets[op[1] % len(tablets)]).log_records_replayed
        elif kind == "restore":
            self.restore()
        elif kind == "scan":
            _, start, end, limit, family = op
            return table.scan(start, end, limit, family=family)
        elif kind == "count":
            return table.count_range(op[1], op[2])
        else:
            _, keys, family = op
            return sorted(table.batch_read(keys, family=family).items())


def observe(table):
    """What the cache and the ledgers show, compared with ``==``."""
    cache = table.cache

    def ledger(counter):
        return (
            list(counter.counts.items()),
            list(counter.rows.items()),
            list(counter.durability_rows.items()),
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
        "shared": ledger(table.counter),
        "tablets": [
            (t.tablet_id, t.start_key, t.row_count, [r.run_id for r in t.runs], ledger(t.counter))
            for t in table.tablets()
        ],
    }


def check_views(table):
    """Every view read of every tablet against the per-run reads, by row
    identity; returns what the tablets' runs held, for the reach test."""
    reached = set()
    for tablet in table.tablets():
        for key in KEYS + ["", "zz"]:
            version = twin_run_lookup(tablet, key)
            assert tablet.run_lookup(key) is version, key
            row = tablet.rows.get(key, version)
            assert tablet.live_row(key) is (None if row is TOMBSTONE else row), key
        for start, end in BOUNDS:
            for limit in (None, 2):
                assert [
                    (key, id(row), source)
                    for key, row, source in tablet.merged_scan(start, end, limit)
                ] == [
                    (key, id(row), source)
                    for key, row, source in twin_merged_scan(tablet, start, end, limit)
                ]
            live = twin_live_keys(tablet, start, end)
            assert list(tablet.iter_live_keys(start, end)) == live
            assert tablet.merged_count_range(start, end) == len(live)
        if tablet.row_count:
            assert tablet.median_key() == twin_median_key(tablet)
        assert tablet._count_run_live() == twin_count_run_live(tablet)
        if len(tablet.runs) > 1:
            reached.add("runs")
        if any(
            value is TOMBSTONE for run in tablet.runs for value in run.columns()[1]
        ):
            reached.add("run tombstone")
    return reached


def run_program(options, ops):
    """Run ``ops`` on a table and its twin, comparing after every step;
    returns the states the program reached."""
    _BLOOMS.clear()
    reached = set()
    with tempfile.TemporaryDirectory() as root:
        subject = Program(options, f"{root}/subject", twin=False)
        twin = Program(options, f"{root}/twin", twin=True)
        for step, op in enumerate(ops):
            assert subject.apply(op, step) == twin.apply(op, step), (step, op)
            assert observe(subject.table) == observe(twin.table), (step, op)
            reached |= check_views(subject.table)
        locator = subject.table._tablets
        if locator.splits:
            reached.add("split")
        if locator.merges:
            reached.add("merge")
    return reached


def options_for(flush_rows, max_runs):
    return TabletOptions(
        split_threshold=20,
        merge_threshold=10,
        memtable_flush_rows=flush_rows,
        compaction_max_runs=max_runs,
    )


@pytest.mark.parametrize("max_runs", [1, 2, 4])
@pytest.mark.parametrize("flush_rows", [4, 16])
@settings(max_examples=15, deadline=None)
@given(ops=st.lists(_OPS, min_size=20, max_size=50))
def test_view_reads_equal_the_per_run_reads(flush_rows, max_runs, ops):
    run_program(options_for(flush_rows, max_runs), ops)


@pytest.mark.parametrize("max_runs", [1, 2, 4])
@pytest.mark.parametrize("flush_rows", [4, 16])
def test_the_program_reaches_runs_tombstones_splits_and_merges(flush_rows, max_runs):
    """The strategy's ground: one fixed program of the kind it draws takes
    the table through every state the comparison is about."""
    ops = [("write_run", first, 12) for first in range(0, len(KEYS), 12)]
    ops += [("flush",), ("scan", None, None, None, "a"), ("delete_run", 6, 12)]
    ops += [("write", key, "b", 1) for key in KEYS[20:44:3]]
    ops += [("flush",), ("scan", "ay0", "cz5", 7, None), ("restore",)]
    ops += [("delete_run", first, 12) for first in range(12, len(KEYS), 12)]
    ops += [("recover",), ("flush",), ("compact", False), ("count", "b", None)]
    ops += [("recover_tablet", 1), ("compact", True), ("scan", None, None, 3, "b")]
    reached = run_program(options_for(flush_rows, max_runs), ops)
    # With one run, every compaction reaches the oldest run and drops the
    # tombstones it merges.
    expected = {"split", "merge"} | ({"runs", "run tombstone"} if max_runs > 1 else set())
    assert expected <= reached


# --------------------------------------------------------------------------
# The bound: no view entry outlives its runs over a long run
# --------------------------------------------------------------------------
SHARDS = 8
OBJECTS = 3000


def _round(rng, services, request_id, index):
    """One ``federation_disk`` round: four 256-update batches partitioned
    by shard, then 64 k=10 queries broadcast to every shard."""
    for batch in range(4):
        buckets = [[] for _ in range(SHARDS)]
        for _ in range(256):
            object_id = format_object_id(rng.randrange(OBJECTS))
            buckets[shard_of(object_id, SHARDS)].append(
                UpdateMessage(
                    object_id,
                    Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)),
                    Vector(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
                    1.0 + index * 4 + batch,
                )
            )
        request_id += 1
        for shard_id, messages in enumerate(buckets):
            body = rpc.encode_update_batch(messages)
            dispatch_request(services, shard_id, rpc.OP_UPDATE_BATCH, body, request_id)
    queries = [
        NNQuery(Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)), 10)
        for _ in range(64)
    ]
    request_id += 1
    body = rpc.encode_query_batch(queries)
    for shard_id in range(SHARDS):
        dispatch_request(services, shard_id, rpc.OP_QUERY_BATCH, body, request_id)
    return request_id


def _views_match_their_runs(services):
    """Each built view holds exactly its tablet's current run keys, and its
    columns exactly the live ones; returns how many views were built."""
    built = 0
    for service in services.values():
        assert len(service.export_state()) == 1  # the exactly-once slot
        emulator = service.cluster.indexer.emulator
        for name in emulator.table_names():
            for tablet in emulator.table(name).tablets():
                view = tablet._view
                if view is None:
                    continue
                newest = {}
                for run in reversed(tablet.runs):
                    newest.update(zip(*run.columns()))
                assert view.index == newest, tablet.tablet_id
                live = sorted(key for key, value in newest.items() if value is not TOMBSTONE)
                assert view.keys == live, tablet.tablet_id
                built += 1
    return built


def test_views_hold_only_their_runs_over_n_and_4n_rounds():
    rng = random.Random(59)
    services = {}
    for shard_id in range(SHARDS):
        recipe = ShardRecipe(
            num_objects=OBJECTS,
            num_shards=SHARDS,
            shard_id=shard_id,
            seed=59,
            num_servers=2,
            tablet_options=TabletOptions(memtable_flush_rows=128, compaction_max_runs=4),
        )
        call = rpc.encode_call("build_indexer", (recipe,), {})
        dispatch_request(services, shard_id, rpc.OP_CALL, call, 1)
    request_id = 1
    rounds = 2
    for index in range(rounds):
        request_id = _round(rng, services, request_id, index)
    built_n = _views_match_their_runs(services)
    for index in range(rounds, 4 * rounds):
        request_id = _round(rng, services, request_id, index)
    built_4n = _views_match_their_runs(services)
    assert built_n and built_4n
