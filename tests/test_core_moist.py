"""Integration-level tests of the MoistIndexer facade."""

import pytest

from repro.core.moist import MoistIndexer
from repro.core.update import UpdateOutcome
from repro.errors import QueryError
from repro.geometry.point import Point

from helpers import make_update


class TestFacadeBasics:
    def test_default_construction(self):
        indexer = MoistIndexer()
        assert indexer.object_count == 0
        assert indexer.school_count == 0
        assert indexer.simulated_seconds == 0.0

    def test_tables_created_with_prefix(self, small_config):
        indexer = MoistIndexer(small_config, table_prefix="x_")
        names = indexer.emulator.table_names()
        assert "x_location" in names
        assert "x_spatial_index" in names
        assert "x_affiliation" in names

    def test_flag_can_be_disabled(self, small_config):
        indexer = MoistIndexer(small_config, enable_flag=False)
        assert indexer.flag is None
        indexer.update(make_update(1, 10.0, 10.0))
        # Queries still work through the default NN level.
        assert len(indexer.nearest_neighbors(Point(10.0, 10.0), 1)) == 1

    def test_simulated_time_accumulates(self, indexer):
        indexer.update(make_update(1, 10.0, 10.0))
        first = indexer.simulated_seconds
        indexer.update(make_update(2, 20.0, 20.0))
        assert indexer.simulated_seconds > first


class TestLocationOf:
    def test_unknown_object_raises(self, indexer):
        with pytest.raises(QueryError):
            indexer.location_of("objMISSING")

    def test_leader_location(self, indexer):
        indexer.update(make_update(1, 10.0, 10.0, vx=2.0, vy=0.0, t=0.0))
        assert indexer.location_of("obj0000000001") == Point(10.0, 10.0)

    def test_leader_location_extrapolated(self, indexer):
        indexer.update(make_update(1, 10.0, 10.0, vx=2.0, vy=0.0, t=0.0))
        assert indexer.location_of("obj0000000001", at_time=3.0) == Point(16.0, 10.0)

    def test_follower_location_estimated_from_leader(self, indexer):
        indexer.update(make_update(1, 10.0, 10.0, vx=1.0, vy=0.0, t=0.0))
        indexer.update(make_update(2, 13.0, 10.0, vx=1.0, vy=0.0, t=0.0))
        indexer.run_clustering(now=0.0)
        estimated = indexer.location_of("obj0000000002", at_time=0.0)
        assert estimated.distance_to(Point(13.0, 10.0)) < 1e-6
        # And moves with the leader when extrapolated.
        later = indexer.location_of("obj0000000002", at_time=4.0)
        assert later.distance_to(Point(17.0, 10.0)) < 1e-6


class TestShedRatioLifecycle:
    def test_shedding_after_clustering(self, indexer):
        """End-to-end: two co-moving objects, cluster, then shed updates."""
        indexer.update(make_update(1, 10.0, 10.0, vx=1.0, vy=0.0, t=0.0))
        indexer.update(make_update(2, 12.0, 10.0, vx=1.0, vy=0.0, t=0.0))
        indexer.run_clustering(now=0.0)
        shed_before = indexer.update_stats.shed
        # Both objects keep co-moving for a few seconds.
        for t in (1.0, 2.0, 3.0):
            outcome_1 = indexer.update(make_update(1, 10.0 + t, 10.0, vx=1.0, vy=0.0, t=t))
            outcome_2 = indexer.update(make_update(2, 12.0 + t, 10.0, vx=1.0, vy=0.0, t=t))
            assert UpdateOutcome.SHED in (outcome_1.outcome, outcome_2.outcome)
        assert indexer.update_stats.shed > shed_before
        assert indexer.shed_ratio() > 0.0

    def test_update_many(self, indexer):
        messages = [make_update(i, 10.0 + i, 10.0) for i in range(5)]
        stats = indexer.update_many(messages)
        assert stats.total == 5
        assert indexer.object_count == 5


class TestArchiveAged:
    def test_archive_aged_counts(self, indexer):
        for t in range(4):
            indexer.update(make_update(1, 10.0 + t, 10.0, t=float(t)))
        aging = indexer.config.aging_interval_s
        first = indexer.archive_aged(now=aging + 10.0)
        assert first["aged_to_disk"] == 4
        assert first["archived"] == 0
        second = indexer.archive_aged(now=2 * aging + 20.0)
        assert second["archived"] == 4

    def test_archiver_registration_on_first_update(self, indexer):
        message = make_update(1, 10.0, 10.0)
        indexer.update(message)
        assert message.object_id in indexer.archiver._home_disk


class TestEndToEndScenario:
    def test_realistic_small_scenario(self, small_config):
        """A miniature end-to-end run exercising update, clustering, NN
        search, history and archiving together."""
        indexer = MoistIndexer(small_config)
        # A convoy of 5 objects moving east along y=50, plus one loner.
        for t in range(10):
            for index in range(5):
                indexer.update(
                    make_update(index, 10.0 + 2 * index + t, 50.0, vx=1.0, vy=0.0, t=float(t))
                )
            indexer.update(make_update(99, 90.0, 5.0, vx=0.0, vy=1.0, t=float(t)))
            indexer.run_due_clustering(now=float(t))

        # The convoy collapsed into few schools and shed updates.
        assert indexer.school_count < 6
        assert indexer.update_stats.shed > 0

        # NN query near the convoy returns convoy members first.
        results = indexer.nearest_neighbors(Point(20.0, 50.0), 3)
        assert len(results) == 3
        assert all(r.object_id != "obj0000000099" for r in results)

        # The loner is still individually queryable.
        loner = indexer.location_of("obj0000000099")
        assert loner.distance_to(Point(90.0, 5.0)) < 1e-6

        # History is available for every object.
        assert len(indexer.object_history("obj0000000000")) > 0
