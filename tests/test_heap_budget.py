"""Heap budget: garbage-collector-tracked objects per stored leader and per
update.

A full collection walks every tracked object, so on the write-heavy stream
workloads its cost is set by how many objects the storage engine *retains* —
the heap, not the allocation rate.  The engine keeps every value as an exact
tuple of atoms (a location row is five floats, a spatial-index entry a pair,
an L/F row a code, a timestamp and three ``None``) inside version chains that
are themselves tuples, next to typed-array log columns — precisely so that a
stored version costs the collector nothing: CPython drops a tuple from its
lists once it holds only strings, numbers, ``None`` and other such tuples.
This test fails the next change that stores an object again (a ``Point``, a
record instance, an ``Enum`` member, a list), instead of leaving it to a
benchmark to notice.  Run with ``-s`` to see the numbers (CI does, on every
interpreter of the matrix: untracking is CPython behaviour, and this is its
guard).

Per leader the budget covers three rows — Location, Affiliation and Spatial
Index, a row dict and a qualifier dict each — and their share of tablets;
no value, no chain and no cache entry (the write path keeps none).  Per
update it covers nothing: the new row, the new chain and the commit log's
record of the write (never truncated by default) are all invisible to the
collector.
"""

import gc

from repro import (
    BoundingBox,
    MoistConfig,
    MoistIndexer,
    Point,
    UpdateMessage,
    Vector,
    format_object_id,
)

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


def test_tracked_objects_per_leader_and_per_update():
    config = MoistConfig(
        world=BoundingBox(0.0, 0.0, 1000.0, 1000.0),
        storage_level=12,
        enable_schools=False,
        deviation_threshold=0.0,
    )
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
