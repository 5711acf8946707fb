"""Heap budget: garbage-collector-tracked objects per stored leader and per
update.

A full collection walks every tracked object, so on the write-heavy stream
workloads its cost is set by how many objects the storage engine *retains* —
the heap, not the allocation rate.  The engine keeps every value as an exact
tuple of atoms (a location row is five floats, a spatial-index entry a pair,
an L/F row a code, a timestamp and three ``None``) inside version chains that
are themselves tuples — precisely so that a stored version costs the
collector nothing: CPython drops a tuple from its lists once it holds only
strings, numbers, ``None`` and other such tuples.
This test fails the next change that stores an object again (a ``Point``, a
record instance, an ``Enum`` member, a list), instead of leaving it to a
benchmark to notice.  Run with ``-s`` to see the numbers (CI does, on every
interpreter of the matrix: untracking is CPython behaviour, and this is its
guard).

Per leader the budget covers three rows — Location, Affiliation and Spatial
Index, a row dict and a qualifier dict each — and their share of tablets;
no value, no chain and no cache entry (the write path keeps none).  Per
update it covers nothing: the new row and the new chain are invisible to the
collector, and the commit log keeps a count per row key, not a record per
write.

The NN searcher's cross-batch memo is held to the same rule: a memoised cell
keeps its block and charge trace as tuples of atoms — ids, coordinates, the
scanned row keys — so what the collector sees per cell is its entry and its
block, whatever the cell holds.  And the memo grows with the distinct cells
the queries visit, not with the number of rounds.
"""

import gc
import random

from repro import (
    BoundingBox,
    MoistConfig,
    MoistIndexer,
    Point,
    UpdateMessage,
    Vector,
    format_object_id,
)
from repro.workload.queries import NNQuery

LEADERS = 2000
#: Measured 24.1 and 6.0 with a ``Cell`` per version and a tuple per log
#: record, 15.1 and 3.0 with flat list chains holding record objects, 5.13 and
#: 0.00 with rows at rest in tuple chains; without a location -> cell memo on
#: the write path it measures 3.13 and 0.00 (the budget is that plus 0.5).
MAX_TRACKED_PER_LEADER = 3.63
MAX_TRACKED_PER_UPDATE = 0.25


def tracked_objects():
    gc.collect()
    return len(gc.get_objects())


def position(number, timestamp):
    return Point((number * 7.3 + timestamp * 11.0) % 1000.0, (number * 3.1) % 1000.0)


def report_all(indexer, timestamp):
    """Every leader reports once, at a position that depends on the time."""
    for start in range(0, LEADERS, 256):
        batch = [
            UpdateMessage(
                format_object_id(number),
                position(number, timestamp),
                Vector(1.0, -1.0),
                timestamp,
            )
            for number in range(start, min(start + 256, LEADERS))
        ]
        indexer.update_many(batch)


CONFIG = MoistConfig(
    world=BoundingBox(0.0, 0.0, 1000.0, 1000.0),
    storage_level=12,
    enable_schools=False,
    deviation_threshold=0.0,
)


def test_tracked_objects_per_leader_and_per_update():
    config = CONFIG
    indexer = MoistIndexer(config)
    report_all(indexer, 0.0)  # warm every lazily built table and cache
    indexer = MoistIndexer(config)
    empty = tracked_objects()
    report_all(indexer, 0.0)
    preloaded = tracked_objects()
    report_all(indexer, 1.0)
    updated = tracked_objects()
    per_leader = (preloaded - empty) / LEADERS
    per_update = (updated - preloaded) / LEADERS
    print(
        f"\ntracked objects: {per_leader:.2f} per preloaded leader "
        f"(budget {MAX_TRACKED_PER_LEADER}), {per_update:.2f} per update "
        f"(budget {MAX_TRACKED_PER_UPDATE})"
    )
    assert indexer.object_count == LEADERS
    assert per_leader <= MAX_TRACKED_PER_LEADER
    assert per_update <= MAX_TRACKED_PER_UPDATE


#: Measured 2.04 per memoised cell (its entry tuple and its block; 7.30 while
#: the trace held arrays and tuples naming tablets); the budget is that plus
#: 0.5.
MAX_TRACKED_PER_MEMOISED_CELL = 2.54


def query_pool(count, seed=3):
    rng = random.Random(seed)
    return [
        NNQuery(Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)), 10)
        for _ in range(count)
    ]


def test_tracked_objects_per_memoised_cell():
    indexer = MoistIndexer(CONFIG)
    report_all(indexer, 0.0)
    pool = query_pool(96)
    for _ in range(4):  # a read-only stretch: every pass after the first hits
        indexer.nearest_neighbors_batch(pool)
    memo = indexer.searcher._memo
    held = len(memo)
    with_memo = tracked_objects()
    memo.clear()
    per_cell = (with_memo - tracked_objects()) / held
    print(
        f"\ntracked objects: {per_cell:.2f} per memoised cell over {held} cells "
        f"(budget {MAX_TRACKED_PER_MEMOISED_CELL})"
    )
    assert per_cell <= MAX_TRACKED_PER_MEMOISED_CELL


def test_memo_grows_with_the_cells_visited_not_the_rounds(monkeypatch):
    indexer = MoistIndexer(CONFIG)
    report_all(indexer, 0.0)
    searcher = indexer.searcher
    visited = set()
    build = searcher._candidate_block

    def recording(cell, *args, **kwargs):
        visited.add(cell)
        return build(cell, *args, **kwargs)

    monkeypatch.setattr(searcher, "_candidate_block", recording)
    pool = query_pool(48, seed=11)
    rng = random.Random(5)
    sizes = []
    for rounds in (4, 12):  # N rounds, then 3N more
        for _ in range(rounds):
            indexer.nearest_neighbors_batch(rng.sample(pool, 12))
        sizes.append(len(searcher._memo))
        # Read-only: every cell visited so far is memoised, once.
        assert sizes[-1] == len(visited)
    print(f"\nmemo after N and 4N read-only rounds: {sizes} cells")
    # Three times the rounds add less than the first N did: the pool's
    # cells are all seen, and seen cells add nothing.
    assert sizes[1] - sizes[0] < sizes[0]
