"""Tests for the update procedure (Algorithm 1)."""

import pytest

from repro.core.update import UpdateOutcome, UpdateStats, UpdateResult
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import UpdateMessage
from repro.tables.affiliation_table import Role

from helpers import cell_for, make_update


class TestNewObjects:
    def test_first_update_creates_leader(self, indexer):
        result = indexer.update(make_update(1, 10.0, 10.0))
        assert result.outcome is UpdateOutcome.NEW_LEADER
        assert indexer.affiliation_table.role_of(result.object_id).role is Role.LEADER
        assert indexer.location_table.latest(result.object_id) is not None

    def test_new_leader_is_spatially_indexed(self, indexer):
        message = make_update(1, 10.0, 10.0)
        indexer.update(message)
        cell = cell_for(indexer.spatial_table, message.location)
        assert message.object_id in indexer.spatial_table.objects_in_cell(cell)

    def test_object_and_school_counters(self, indexer):
        indexer.update(make_update(1, 10.0, 10.0))
        indexer.update(make_update(2, 20.0, 20.0))
        assert indexer.object_count == 2
        assert indexer.school_count == 2


class TestLeaderUpdates:
    def test_leader_update_moves_spatial_entry(self, indexer):
        indexer.update(make_update(1, 10.0, 10.0, t=0.0))
        result = indexer.update(make_update(1, 90.0, 90.0, t=1.0))
        assert result.outcome is UpdateOutcome.LEADER_UPDATED
        old_cell = cell_for(indexer.spatial_table, Point(10.0, 10.0))
        new_cell = cell_for(indexer.spatial_table, Point(90.0, 90.0))
        assert "obj0000000001" not in indexer.spatial_table.objects_in_cell(old_cell)
        assert "obj0000000001" in indexer.spatial_table.objects_in_cell(new_cell)

    def test_leader_update_appends_location_history(self, indexer):
        indexer.update(make_update(1, 10.0, 10.0, t=0.0))
        indexer.update(make_update(1, 11.0, 10.0, t=1.0))
        history = indexer.location_table.recent_history("obj0000000001")
        assert len(history) == 2
        assert history[0].timestamp == 1.0

    def test_leader_count_unchanged_by_leader_update(self, indexer):
        indexer.update(make_update(1, 10.0, 10.0, t=0.0))
        indexer.update(make_update(1, 11.0, 10.0, t=1.0))
        assert indexer.school_count == 1


def build_school(indexer, leader_pos=(10.0, 10.0), follower_offset=(2.0, 0.0)):
    """Create a two-member school: leader obj1, follower obj2."""
    leader = make_update(1, *leader_pos, vx=1.0, vy=0.0, t=0.0)
    follower_pos = (leader_pos[0] + follower_offset[0], leader_pos[1] + follower_offset[1])
    follower = make_update(2, *follower_pos, vx=1.0, vy=0.0, t=0.0)
    indexer.update(leader)
    indexer.update(follower)
    indexer.run_clustering(now=0.5)
    return leader, follower


class TestFollowerUpdates:
    def test_clustering_creates_follower(self, indexer):
        build_school(indexer)
        roles = {
            oid: indexer.affiliation_table.role_of(oid).role
            for oid in ("obj0000000001", "obj0000000002")
        }
        assert list(roles.values()).count(Role.LEADER) == 1
        assert list(roles.values()).count(Role.FOLLOWER) == 1
        assert indexer.school_count == 1

    def test_follower_update_within_threshold_is_shed(self, indexer):
        build_school(indexer)
        # Followers co-move with the leader: at t=2 the leader (v=1,0) is
        # expected at x+2, the follower reports exactly its displaced spot.
        follower_role = indexer.affiliation_table.role_of("obj0000000002")
        if follower_role.role is Role.LEADER:
            follower_id, leader_id = "obj0000000001", "obj0000000002"
        else:
            follower_id, leader_id = "obj0000000002", "obj0000000001"
        leader_record = indexer.location_table.latest(leader_id)
        displacement = indexer.affiliation_table.role_of(follower_id).displacement
        expected = leader_record.extrapolated(2.0).displaced(displacement)
        message = UpdateMessage(follower_id, expected, Vector(1.0, 0.0), 2.0)
        result = indexer.update(message)
        assert result.outcome is UpdateOutcome.SHED
        assert result.estimation_error == pytest.approx(0.0, abs=1e-9)

    def test_shed_update_writes_nothing(self, indexer):
        build_school(indexer)
        follower_role = indexer.affiliation_table.role_of("obj0000000002")
        follower_id = "obj0000000002" if follower_role.role is Role.FOLLOWER else "obj0000000001"
        leader_id = "obj0000000001" if follower_id == "obj0000000002" else "obj0000000002"
        history_before = len(indexer.location_table.recent_history(follower_id))
        leader_record = indexer.location_table.latest(leader_id)
        displacement = indexer.affiliation_table.role_of(follower_id).displacement
        expected = leader_record.extrapolated(2.0).displaced(displacement)
        indexer.update(UpdateMessage(follower_id, expected, Vector(1.0, 0.0), 2.0))
        assert len(indexer.location_table.recent_history(follower_id)) == history_before

    def test_follower_departing_is_promoted(self, indexer):
        build_school(indexer)
        follower_role = indexer.affiliation_table.role_of("obj0000000002")
        follower_id = "obj0000000002" if follower_role.role is Role.FOLLOWER else "obj0000000001"
        leader_id = "obj0000000001" if follower_id == "obj0000000002" else "obj0000000002"
        # Report a position far away from the estimate (beyond epsilon=5).
        result = indexer.update(
            UpdateMessage(follower_id, Point(80.0, 80.0), Vector(-1.0, 0.0), 2.0)
        )
        assert result.outcome is UpdateOutcome.PROMOTED
        assert indexer.affiliation_table.role_of(follower_id).role is Role.LEADER
        assert follower_id not in indexer.affiliation_table.followers_of(leader_id)
        assert indexer.school_count == 2

    def test_promoted_follower_is_spatially_indexed(self, indexer):
        build_school(indexer)
        follower_role = indexer.affiliation_table.role_of("obj0000000002")
        follower_id = "obj0000000002" if follower_role.role is Role.FOLLOWER else "obj0000000001"
        indexer.update(UpdateMessage(follower_id, Point(80.0, 80.0), Vector(0.0, 0.0), 2.0))
        cell = cell_for(indexer.spatial_table, Point(80.0, 80.0))
        assert follower_id in indexer.spatial_table.objects_in_cell(cell)

    def test_schools_disabled_never_sheds(self, small_config):
        from repro.baselines.no_school import build_no_school_indexer

        indexer = build_no_school_indexer(small_config)
        build_school(indexer)
        follower_role = indexer.affiliation_table.role_of("obj0000000002")
        # With schools disabled the update path still works, but a follower
        # created by an explicit clustering pass departs immediately.
        if follower_role.role is Role.FOLLOWER:
            result = indexer.update(
                UpdateMessage("obj0000000002", Point(12.0, 10.0), Vector(1.0, 0.0), 1.0)
            )
            assert result.outcome is UpdateOutcome.PROMOTED


class TestUpdateStats:
    def test_stats_accumulate(self, indexer):
        indexer.update(make_update(1, 10.0, 10.0))
        indexer.update(make_update(1, 11.0, 10.0, t=1.0))
        stats = indexer.update_stats
        assert stats.total == 2
        assert stats.new_leaders == 1
        assert stats.leader_updates == 1
        assert stats.shed_ratio == 0.0

    def test_shed_ratio_and_mean_error(self):
        stats = UpdateStats()
        stats.record(UpdateResult("a", UpdateOutcome.SHED, estimation_error=2.0))
        stats.record(UpdateResult("b", UpdateOutcome.LEADER_UPDATED))
        assert stats.shed_ratio == pytest.approx(0.5)
        assert stats.error_sum / stats.error_samples == pytest.approx(2.0)

    def test_empty_stats(self):
        stats = UpdateStats()
        assert stats.shed_ratio == 0.0
        assert stats.error_samples == 0
