"""Ledger golden: the update path's simulated accounting, pinned bit for bit.

Two seeded streams run through ``ServerCluster(indexer, 5)``:

* ``schools_off`` — uniform leaders, schools disabled: new leaders and
  leader moves only, with small split thresholds so the tables fan out over
  several tablets;
* ``schools_on`` — the road-network school scenario: followers are shed and
  promoted, clustering rewrites the Affiliation Table in batches, and small
  memtables push rows into runs, so flushes and compactions are charged too.

What is pinned is ``repr()`` of every :class:`~repro.bigtable.cost.OpCounter`
field (the cost model aside) on the shared ledger and on every tablet ledger,
every front-end's busy seconds and the cluster makespan.  ``repr`` of a float
is exact, and of a dict it includes key order, so a change that reorders,
merges or re-associates a single ledger addition fails here.  The expected
values live in ``ledger_golden.json`` beside this file (``accounting()`` of
each scenario, dumped as JSON at the commit before the one-call ledger entry
points); they are the accounting of the emulator as calibrated, not
something to regenerate when a refactor disagrees with them.
"""

from __future__ import annotations

import json
import random
from dataclasses import fields
from pathlib import Path

import pytest

from repro.bigtable.cost import OpCounter
from repro.bigtable.tablet import TabletOptions
from repro.core.config import MoistConfig
from repro.core.moist import MoistIndexer
from repro.experiments.common import dense_road_config, school_config
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import UpdateMessage, format_object_id
from repro.server.cluster import ServerCluster
from repro.workload.generator import RoadNetworkWorkload

GOLDEN = Path(__file__).with_name("ledger_golden.json")

LEDGER_FIELDS = [field.name for field in fields(OpCounter) if field.name != "model"]


def schools_off() -> ServerCluster:
    rng = random.Random(59)
    config = MoistConfig(
        world=BoundingBox(0.0, 0.0, 1000.0, 1000.0),
        storage_level=12,
        enable_schools=False,
        deviation_threshold=0.0,
    )
    options = TabletOptions(split_threshold=96, merge_threshold=12)
    cluster = ServerCluster(MoistIndexer(config, tablet_options=options), 5)
    for t in range(6):
        cluster.submit_update_batch(
            [
                UpdateMessage(
                    format_object_id(rng.randrange(600)),
                    Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)),
                    Vector(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
                    float(t),
                )
                for _ in range(256)
            ]
        )
    return cluster


def schools_on() -> ServerCluster:
    road = RoadNetworkWorkload(dense_road_config(240, seed=59))
    options = TabletOptions(
        split_threshold=64, merge_threshold=8, memtable_flush_rows=40
    )
    indexer = MoistIndexer(school_config(300.0), tablet_options=options)
    cluster = ServerCluster(indexer, 5)
    for step in range(1, 25):
        cluster.submit_update_batch(road.advance_to(float(step)))
        indexer.run_due_clustering(float(step))
    return cluster


SCENARIOS = {"schools_off": schools_off, "schools_on": schools_on}


def ledger_reprs(counter: OpCounter) -> dict:
    return {name: repr(getattr(counter, name)) for name in LEDGER_FIELDS}


def accounting(cluster: ServerCluster) -> dict:
    """Everything the golden pins, as ``repr`` strings."""
    indexer = cluster.indexer
    tables = (
        indexer.location_table.table,
        indexer.spatial_table.table,
        indexer.affiliation_table.table,
    )
    return {
        "shared": ledger_reprs(indexer.emulator.counter),
        "tablets": {
            f"{table.name}/{tablet.tablet_id}": ledger_reprs(tablet.counter)
            for table in tables
            for tablet in table.tablets()
        },
        "busy_seconds": [repr(server.busy_seconds) for server in cluster.servers],
        "makespan_seconds": repr(cluster.makespan_seconds()),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_ledgers_match_the_golden(scenario, golden):
    expected = golden[scenario]
    actual = accounting(SCENARIOS[scenario]())
    assert actual["shared"] == expected["shared"]
    assert list(actual["tablets"]) == list(expected["tablets"])
    for tablet_key, ledger in expected["tablets"].items():
        assert actual["tablets"][tablet_key] == ledger, tablet_key
    assert actual["busy_seconds"] == expected["busy_seconds"]
    assert actual["makespan_seconds"] == expected["makespan_seconds"]


def test_scenarios_exercise_every_update_branch():
    off = schools_off().indexer.update_stats
    assert off.new_leaders and off.leader_updates
    assert not off.shed
    on = schools_on().indexer
    assert on.update_stats.shed and on.update_stats.promotions
    assert on.location_table.table.run_count()
