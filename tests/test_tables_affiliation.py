"""Tests for the Affiliation Table wrapper."""

import pytest

from repro.bigtable.emulator import BigtableEmulator
from repro.errors import SchemaError
from repro.geometry.vector import Vector
from repro.tables.affiliation_table import AffiliationTable, LFRecord, Role


@pytest.fixture
def table():
    return AffiliationTable(BigtableEmulator())


class TestLFRecord:
    def test_follower_requires_leader_and_displacement(self):
        with pytest.raises(SchemaError):
            LFRecord(role=Role.FOLLOWER, timestamp=0.0)

    def test_leader_must_not_carry_follower_fields(self):
        with pytest.raises(SchemaError):
            LFRecord(role=Role.LEADER, timestamp=0.0, leader_id="x")

    def test_valid_records(self):
        leader = LFRecord(role=Role.LEADER, timestamp=1.0)
        follower = LFRecord(
            role=Role.FOLLOWER, timestamp=1.0, leader_id="L", displacement=Vector(1.0, 0.0)
        )
        assert leader.role is Role.LEADER
        assert follower.leader_id == "L"


class TestRoles:
    def test_unknown_object_has_no_role(self, table):
        assert table.role_of("nope") is None

    def test_set_leader(self, table):
        table.set_leader("L", timestamp=1.0)
        record = table.role_of("L")
        assert record.role is Role.LEADER
        assert record.timestamp == 1.0

    def test_set_follower(self, table):
        table.set_follower("F", "L", Vector(2.0, 3.0), timestamp=1.0)
        record = table.role_of("F")
        assert record.role is Role.FOLLOWER
        assert record.leader_id == "L"
        assert record.displacement == Vector(2.0, 3.0)

    def test_self_follow_rejected(self, table):
        with pytest.raises(SchemaError):
            table.set_follower("x", "x", Vector(0.0, 0.0), timestamp=0.0)
        with pytest.raises(SchemaError):
            table.add_follower("x", "x", Vector(0.0, 0.0), timestamp=0.0)

    def test_role_transition_follower_to_leader(self, table):
        table.set_follower("F", "L", Vector(1.0, 0.0), timestamp=1.0)
        table.set_leader("F", timestamp=2.0)
        assert table.role_of("F").role is Role.LEADER

    def test_batch_roles(self, table):
        table.set_leader("L", timestamp=1.0)
        table.set_follower("F", "L", Vector(1.0, 0.0), timestamp=1.0)
        roles = table.batch_roles(["L", "F", "missing"])
        assert set(roles) == {"L", "F"}
        assert roles["L"].role is Role.LEADER

    def test_leader_ids(self, table):
        table.set_leader("L1", timestamp=1.0)
        table.set_leader("L2", timestamp=1.0)
        table.set_follower("F", "L1", Vector(1.0, 0.0), timestamp=1.0)
        assert sorted(table.leader_ids()) == ["L1", "L2"]


class TestFollowerInfo:
    def test_add_and_list_followers(self, table):
        table.add_follower("L", "F1", Vector(1.0, 0.0), timestamp=1.0)
        table.add_follower("L", "F2", Vector(0.0, 1.0), timestamp=1.0)
        followers = table.followers_of("L")
        assert followers == {"F1": Vector(1.0, 0.0), "F2": Vector(0.0, 1.0)}

    def test_followers_of_unknown_leader_is_empty(self, table):
        assert table.followers_of("nobody") == {}

    def test_remove_follower(self, table):
        table.add_follower("L", "F1", Vector(1.0, 0.0), timestamp=1.0)
        assert table.remove_follower("L", "F1")
        assert not table.remove_follower("L", "F1")
        assert table.followers_of("L") == {}

    def test_batch_followers(self, table):
        table.add_follower("L1", "F1", Vector(1.0, 0.0), timestamp=1.0)
        table.add_follower("L2", "F2", Vector(0.0, 1.0), timestamp=1.0)
        info = table.batch_followers(["L1", "L2"])
        assert info["L1"] == {"F1": (1.0, 0.0)}
        assert info["L2"] == {"F2": (0.0, 1.0)}

    def test_batch_apply(self, table):
        table.set_leader("L1", timestamp=0.0)
        table.set_leader("L2", timestamp=0.0)
        table.add_follower("L2", "F1", Vector(1.0, 0.0), timestamp=0.0)
        # Merge L2 (and its follower F1) into L1.
        lf_updates = [
            ("L2", LFRecord(Role.FOLLOWER, 1.0, "L1", Vector(2.0, 0.0))),
            ("F1", LFRecord(Role.FOLLOWER, 1.0, "L1", Vector(3.0, 0.0))),
        ]
        follower_updates = [
            ("L1", "L2", Vector(2.0, 0.0)),
            ("L1", "F1", Vector(3.0, 0.0)),
        ]
        follower_deletes = [("L2", "F1")]
        table.batch_apply(lf_updates, follower_updates, follower_deletes, timestamp=1.0)
        assert table.role_of("L2").leader_id == "L1"
        assert table.role_of("F1").leader_id == "L1"
        assert set(table.followers_of("L1")) == {"L2", "F1"}
        assert table.followers_of("L2") == {}
        assert table.object_count() >= 3
