"""Tests for history queries across memory, disk columns and the archive."""

import pytest

from repro.core.history import HistoryQueryEngine
from repro.errors import QueryError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point

from helpers import make_update


def feed_trajectory(indexer, object_index=1, steps=6, start=(10.0, 10.0)):
    """Drive one object along +x, one update per second."""
    for step in range(steps):
        indexer.update(
            make_update(object_index, start[0] + step, start[1], vx=1.0, vy=0.0, t=float(step))
        )


class TestObjectHistory:
    def test_recent_history_in_memory(self, indexer):
        feed_trajectory(indexer, steps=4)
        history = indexer.object_history("obj0000000001")
        assert len(history) == 4
        assert [record.timestamp for record in history] == [0.0, 1.0, 2.0, 3.0]

    def test_time_window_filtering(self, indexer):
        feed_trajectory(indexer, steps=6)
        window = indexer.object_history("obj0000000001", start_time=2.0, end_time=4.0)
        assert [record.timestamp for record in window] == [2.0, 3.0, 4.0]

    def test_invalid_window_rejected(self, indexer):
        with pytest.raises(QueryError):
            indexer.object_history("obj0000000001", start_time=5.0, end_time=1.0)

    def test_unknown_object_has_empty_history(self, indexer):
        assert indexer.object_history("objMISSING") == []

    def test_history_survives_aging_to_disk_column(self, indexer):
        feed_trajectory(indexer, steps=6)
        aging = indexer.config.aging_interval_s
        counts = indexer.archive_aged(now=aging + 3.0)
        assert counts["aged_to_disk"] > 0
        history = indexer.object_history("obj0000000001")
        assert len(history) == 6

    def test_history_survives_archiving_to_ppp(self, indexer):
        feed_trajectory(indexer, steps=6)
        aging = indexer.config.aging_interval_s
        indexer.archive_aged(now=aging + 3.0)
        counts = indexer.archive_aged(now=2 * aging + 5.0)
        assert counts["archived"] > 0
        indexer.archiver.flush_all(now=2 * aging + 6.0)
        history = indexer.object_history("obj0000000001")
        assert len(history) == 6
        # The archived records really live in the PPP archive now.
        assert indexer.archiver.stats.records_archived > 0


class TestRegionHistory:
    def test_region_history_after_archiving(self, indexer):
        feed_trajectory(indexer, steps=6, start=(10.0, 10.0))
        feed_trajectory(indexer, object_index=2, steps=6, start=(80.0, 80.0))
        aging = indexer.config.aging_interval_s
        indexer.archive_aged(now=aging + 10.0)
        indexer.archive_aged(now=2 * aging + 10.0)
        indexer.archiver.flush_all(now=2 * aging + 11.0)
        region = BoundingBox(0.0, 0.0, 40.0, 40.0)
        records = indexer.region_history(region)
        assert records
        assert all(region.contains_point(record.location) for record in records)
        assert {record.object_id for record in records} == {"obj0000000001"}

    def test_region_history_without_archiver(self, small_config):
        from repro.core.moist import MoistIndexer

        indexer = MoistIndexer(small_config)
        engine = HistoryQueryEngine(small_config, indexer.location_table, archiver=None)
        assert engine.region_history(BoundingBox(0.0, 0.0, 10.0, 10.0)) == []
        assert engine.popular_cells(level=3) == []


class TestPopularCells:
    def test_popular_cells_ranked_by_visits(self, indexer):
        # Object 1 lingers around (10, 10); object 2 visits (80, 80) once.
        feed_trajectory(indexer, object_index=1, steps=8, start=(10.0, 10.0))
        indexer.update(make_update(2, 80.0, 80.0, t=0.0))
        aging = indexer.config.aging_interval_s
        indexer.archive_aged(now=aging + 10.0)
        indexer.archive_aged(now=2 * aging + 10.0)
        indexer.archiver.flush_all(now=2 * aging + 11.0)
        popular = indexer.history.popular_cells(level=3, top_n=2)
        assert popular
        top = popular[0]
        assert top["visits"] >= popular[-1]["visits"]
        # The lingering object dominates: the hottest cell lies on its
        # trajectory, not at the one-off visit of object 2.
        assert top["visits"] > 1
        assert not top["cell"].to_box(indexer.config.world).contains_point(Point(80.0, 80.0))

    def test_top_n_must_be_positive(self, indexer):
        with pytest.raises(QueryError):
            indexer.history.popular_cells(level=3, top_n=0)
