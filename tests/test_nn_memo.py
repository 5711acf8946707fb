"""The searcher's cross-batch candidate-block memo changes no observable.

A memo hit builds no block and reads no row, but replays every charge the
live path pays: the scan's block-cache lookups and ledger records, the
Follower Info batch read over the leaders the batch has not fetched yet, and
the sharing tallies.  The differential program below interleaves every kind
of table change — moves, deletes, flushes, compactions, splits and merges, a
whole-table and a one-tablet recovery, aging and an in-place restore of the
tables' soft state — with NN batches, and runs it against a twin whose memo
is emptied before every batch.  Results, tallies, both tables' ledgers, the
block caches and the shared ledger must be equal after every step.

A block's first hit compiles its Follower Info read into a plan; a hit
charges the plan when the batch has fetched none of the block's leaders
and reads the missing ones live when it has fetched some.  So the batches
mix NN levels around the schools (a coarse cell replayed after one of its
children finds some leaders fetched), some steps run their queries without
a batch context, and every batch runs five times: each entry is hit at
least three times after the hit that compiled it.
"""

import os
import random
import shutil

from hypothesis import given, settings, strategies as st

from repro.bigtable.tablet import TabletOptions
from repro.core.moist import MoistIndexer
from repro.core.nn_search import NNQueryStats, QueryBatchContext
from repro.geometry.point import Point
from repro.server import rpc
from repro.server.worker import dispatch_request
from repro.spatial.cell import CellId
from repro.tables.affiliation_table import LF_AGED_FAMILY, LF_FAMILY
from repro.workload.queries import NNQuery

from helpers import make_update
from shard_harness import accounting
from test_core_nn_search import SCHOOL_CONFIG
from test_persistence_path import RESPAWN_ID, _build, _queries, _recipe

#: Small tablets, so writes and deletes split and merge them, and a flush
#: threshold, so scans read memtable and runs together.
OPTIONS = TabletOptions(
    split_threshold=10, merge_threshold=4, memtable_flush_rows=12, compaction_max_runs=2
)
NUM_OBJECTS = 60


def school_indexer() -> MoistIndexer:
    """Schools of three plus loners on small tablets, clustered, so leaders
    carry Follower Info."""
    indexer = MoistIndexer(SCHOOL_CONFIG, tablet_options=OPTIONS)
    rng = random.Random(31)
    for number in range(NUM_OBJECTS):
        if number < 36:
            school = number // 3
            x, y = 10.0 + 6.5 * (school % 12), 12.0 + 7.0 * (school % 7)
            x, y = x + rng.uniform(-1.0, 1.0), y + rng.uniform(-1.0, 1.0)
            vx, vy = 0.5, -0.25
        else:
            x, y = rng.uniform(1.0, 99.0), rng.uniform(1.0, 99.0)
            vx, vy = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        indexer.update(make_update(number, x, y, vx=vx, vy=vy))
    indexer.run_clustering(now=0.5)
    return indexer


def tables(indexer):
    return (indexer.spatial_table.table, indexer.affiliation_table.table)


def observe(indexer) -> tuple:
    """Everything a memo hit could move: the shared ledger and both tables'
    tablets and block caches, residency in LRU order included."""
    counter = indexer.emulator.counter
    return (
        dict(counter.counts),
        dict(counter.rows),
        counter.simulated_seconds,
        [
            (table.tablet_stats(), table.cache_stats(), list(table.cache.lru))
            for table in tables(indexer)
        ],
    )


def apply(indexer, op, step: int) -> None:
    kind = op[0]
    table = tables(indexer)[op[1] % 2] if len(op) > 1 else None
    if kind == "move":
        _, number, x, y = op
        indexer.update(make_update(number, x, y, t=1.0 + step))
    elif kind == "delete":
        keys = table.all_keys()
        if keys:
            table.delete_row(keys[op[2] % len(keys)])
    elif kind == "flush":
        table.flush_memtables()
    elif kind == "compact":
        table.compact_runs(major=op[2])
    elif kind == "recover":
        table.recover()
    elif kind == "recover_tablet":
        tablets = table.tablets()
        table.recover_tablet(tablets[op[2] % len(tablets)])
    elif kind == "age_out":
        indexer.affiliation_table.table.age_out(LF_FAMILY, LF_AGED_FAMILY, op[2])
    elif kind == "restore":
        indexer.emulator.install_state(indexer.emulator.export_state())
    else:  # pragma: no cover - strategy guard
        raise AssertionError(op)


def run_batch(indexer, queries, include_followers: bool, batched: bool = True):
    """``(query, nn_level)`` pairs through :meth:`query` — sharing one batch
    context, as ``query_many`` does, or each on its own without one."""
    searcher = indexer.searcher
    stats = [NNQueryStats() for _ in queries]
    context = QueryBatchContext() if batched else None
    results = [
        searcher.query(
            query.location,
            query.k,
            nn_level=level,
            range_limit=query.range_limit,
            include_followers=include_followers,
            stats=query_stats,
            context=context,
        )
        for (query, level), query_stats in zip(queries, stats)
    ]
    shared = None if context is None else (context.scans_shared, context.rows_shared)
    return results, stats, shared


_COORD = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
_TABLE = st.integers(0, 1)
_CHANGES = st.one_of(
    st.tuples(st.just("move"), st.integers(0, NUM_OBJECTS - 1), _COORD, _COORD),
    st.tuples(st.just("delete"), _TABLE, st.integers(0, 200)),
    st.tuples(st.just("flush"), _TABLE),
    st.tuples(st.just("compact"), _TABLE, st.booleans()),
    st.tuples(st.just("recover"), _TABLE),
    st.tuples(st.just("recover_tablet"), _TABLE, st.integers(0, 20)),
    st.tuples(st.just("age_out"), _TABLE, st.floats(0.0, 3.0)),
    st.tuples(st.just("restore"),),
)
#: Centres of four of :func:`school_indexer`'s schools.  Queries near them
#: at different NN levels visit nested cells: a coarse cell replayed after
#: one of its children was scanned finds some leaders' Follower Info
#: fetched.
_ANCHORS = [(10.0 + 6.5 * (school % 12), 12.0 + 7.0 * (school % 7)) for school in (1, 3, 5, 9)]
_JITTER = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
_LOCATION = st.one_of(
    st.builds(Point, _COORD, _COORD),
    st.builds(
        lambda anchor, dx, dy: Point(anchor[0] + dx, anchor[1] + dy),
        st.sampled_from(_ANCHORS), _JITTER, _JITTER,
    ),
)
#: ``None`` lets FLAG (or the default level) choose.
_LEVEL = st.one_of(st.none(), st.integers(1, 5))
_QUERIES = st.lists(
    st.tuples(
        st.builds(
            NNQuery,
            location=_LOCATION,
            k=st.integers(1, 8),
            range_limit=st.one_of(st.none(), st.floats(min_value=0.0, max_value=40.0)),
        ),
        _LEVEL,
    ),
    min_size=1,
    max_size=6,
)
#: ``(queries, include_followers, batched)``.
_BATCH = st.tuples(_QUERIES, st.booleans(), st.booleans())
#: The first pass finds the memo as the step's change left it; the second
#: compiles each entry's charge plan on its first hit, if the first did
#: not; the last three replay compiled plans.
PASSES = 5


@settings(max_examples=60, deadline=None)
@given(program=st.lists(st.tuples(_CHANGES, _BATCH), min_size=1, max_size=12))
def test_memo_hits_equal_live_builds_under_every_table_change(program):
    """Each step applies one change to both indexers, then runs one NN batch
    (or the same queries without a context) :data:`PASSES` times against
    the twin, whose memo is emptied before each."""
    subject, twin = school_indexer(), school_indexer()
    for step, (change, (queries, include_followers, batched)) in enumerate(program):
        apply(subject, change, step)
        apply(twin, change, step)
        for _ in range(PASSES):
            twin.searcher._memo.clear()
            assert run_batch(subject, queries, include_followers, batched) == run_batch(
                twin, queries, include_followers, batched
            ), (step, change)
            assert observe(subject) == observe(twin), (step, change)


def test_a_replayed_coarse_cell_charges_only_the_leaders_the_batch_lacks():
    """A fine cell scanned first leaves its leaders' Follower Info in the
    batch context; the coarse cell around it, replayed next, reads only the
    rest, live, and not from its compiled plan."""
    location = Point(*_ANCHORS[1])
    batch = [(NNQuery(location, 1), 5), (NNQuery(location, 1), 2)]
    subject, twin = school_indexer(), school_indexer()
    table = subject.affiliation_table.table
    live_reads = []
    charge = table.charge_batch_read

    def recording(row_keys):
        live_reads.append(list(row_keys))
        return charge(row_keys)

    table.charge_batch_read = recording
    for _ in range(PASSES):
        live_reads.clear()
        twin.searcher._memo.clear()
        assert run_batch(subject, batch, True) == run_batch(twin, batch, True)
        assert observe(subject) == observe(twin)
    coarse = CellId.from_point(location, 2, SCHOOL_CONFIG.world)
    block = subject.searcher._memo[(2, coarse.pos, True)][0]
    (partial,) = live_reads  # a hit pass reads the coarse cell's rest only
    assert 0 < len(partial) < block.n_leaders
    assert set(partial) < set(block.ids[: block.n_leaders])


def test_one_write_to_either_table_empties_the_memo():
    queries = [NNQuery(Point(20.0 + 9.0 * i, 30.0 + 5.0 * i), 4) for i in range(6)]
    probe = [NNQuery(Point(50.0, 50.0), 3)]
    for written in range(2):
        indexer = school_indexer()
        searcher = indexer.searcher
        searcher.query_many(queries)
        searcher.query_many(probe)
        held = len(searcher._memo)
        assert held > 0
        searcher.query_many(probe)  # all hits: nothing is dropped or added
        assert len(searcher._memo) == held
        tables(indexer)[written].write("zz-probe", "lf" if written else "id", "q", (1.0, 2.0), 9.0)
        stats = NNQueryStats()
        searcher.query_many(probe, stats_list=[stats])
        # Only the cells of the query after the write are left.
        assert len(searcher._memo) == stats.cells_visited < held


def test_predictive_queries_bypass_the_memo():
    indexer = school_indexer()
    indexer.searcher.query_many(
        [NNQuery(Point(40.0, 40.0), 5)], at_time=2.0
    )
    assert indexer.searcher._memo == {}


def _query_round(services: dict, request_id: int, seed: int) -> bytes:
    body = rpc.encode_query_batch(_queries(seed, count=12))
    return dispatch_request(services, 0, rpc.OP_QUERY_BATCH, body, request_id)


def _snapshot_bytes(service) -> bytes:
    service._snapshot()
    path = os.path.join(service.recipe.shard_storage_dir, "SNAPSHOT.bin")
    with open(path, "rb") as handle:
        return handle.read()


def test_a_restored_shard_answers_like_the_shard_that_kept_its_memo(tmp_path):
    """Two read-only rounds fill one shard's memo; a twin shard runs them
    with its memo emptied before each, and writes the same snapshot bytes
    and accounting state.  The snapshot restored into a fresh service starts
    with no memo; the third round must give the same reply frame and the
    same ``metrics`` record there as on the shard that kept its memo."""
    kept = _build(_recipe(tmp_path / "kept"))
    twin = _build(_recipe(tmp_path / "twin"))
    for request_id in (10, 11):
        twin[0].cluster.indexer.searcher._memo.clear()
        assert _query_round(kept, request_id, seed=4) == _query_round(
            twin, request_id, seed=4
        )
    service = kept[0]
    assert service.cluster.indexer.searcher._memo
    assert _snapshot_bytes(service) == _snapshot_bytes(twin[0])
    assert repr(service.accounting_state()) == repr(twin[0].accounting_state())
    shutil.copytree(tmp_path / "kept", tmp_path / "restored")
    restored = _build(_recipe(tmp_path / "restored"), RESPAWN_ID)
    assert restored[0].cluster.indexer.searcher._memo == {}
    assert _query_round(kept, 12, seed=4) == _query_round(restored, 12, seed=4)
    assert accounting(service) == accounting(restored[0])
