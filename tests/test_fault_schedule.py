"""The one fault schedule: its seeded draws, its order and its faults.

``GOLDEN`` pins, in firing order, every seeded schedule the chaos, master
supervision and window suites run, as the two schedulers it replaced drew
and fired them: per batch, the simulated faults, then the process faults.
``FaultSchedule.seeded`` must reproduce each list exactly, or the
byte-identical reports of those suites are compared against a different
workload.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import uniform_leader_indexer
from repro.server.cluster import ServerCluster
from repro.server.faults import (
    CORRUPT_BITFLIP,
    CRASH_AFTER_FLUSH,
    CRASH_AFTER_HANDOFF,
    CRASH_SERVER,
    KILL_WORKER,
    MIGRATION_CRASH,
    REVIVE_SERVER,
    STOP_WORKER,
    Fault,
    FaultSchedule,
)
from repro.server.loadtest import LoadTest

#: The simulated half of the master supervision suite's schedule.
MASTER_SUITE = dict(migration_crashes=1, server_crashes=1, num_servers=2)

GOLDEN = [
    ((29, 4), dict(num_workers=1, kills=1), [
        "batch 3: sigkill worker 0",
    ]),
    ((29, 4), dict(num_workers=2, kills=2), [
        "batch 1: sigkill worker 1",
        "batch 3: sigkill worker 0",
    ]),
    ((29, 4), dict(num_workers=4, kills=4), [
        "batch 1: sigkill worker 1",
        "batch 2: sigkill worker 2",
        "batch 3: sigkill worker 0",
        "batch 3: sigkill worker 3",
    ]),
    ((31, 4), dict(num_workers=2, stops=2), [
        "batch 1: sigstop worker 1",
        "batch 1: sigstop worker 1",
    ]),
    ((37, 4), dict(num_workers=2, corruptions=2), [
        "batch 3: corrupt_bitflip worker 0",
        "batch 3: corrupt_truncate worker 0",
    ]),
    ((47, 4), dict(num_workers=1, kills=1, **MASTER_SUITE), [
        "batch 2: crash_server server 0",
        "batch 3: migration_crash (after_handoff)",
        "batch 3: revive_server server 0",
        "batch 3: sigkill worker 0",
        "batch 3: sigkill worker 0",
    ]),
    ((47, 4), dict(num_workers=2, kills=2, **MASTER_SUITE), [
        "batch 2: crash_server server 0",
        "batch 2: sigkill worker 1",
        "batch 3: migration_crash (after_handoff)",
        "batch 3: revive_server server 0",
        "batch 3: sigkill worker 0",
        "batch 3: sigkill worker 0",
    ]),
    ((47, 4), dict(num_workers=4, kills=4, **MASTER_SUITE), [
        "batch 2: crash_server server 0",
        "batch 2: sigkill worker 1",
        "batch 2: sigkill worker 2",
        "batch 3: migration_crash (after_handoff)",
        "batch 3: revive_server server 0",
        "batch 3: sigkill worker 0",
        "batch 3: sigkill worker 0",
        "batch 3: sigkill worker 3",
    ]),
    ((5, 10), dict(num_workers=3, kills=4, stops=2, corruptions=2), [
        "batch 1: sigstop worker 0",
        "batch 2: corrupt_bitflip worker 1",
        "batch 4: sigstop worker 2",
        "batch 5: sigkill worker 0",
        "batch 6: sigkill worker 1",
        "batch 8: sigkill worker 0",
        "batch 8: corrupt_truncate worker 0",
        "batch 9: sigkill worker 2",
    ]),
    ((11, 5), dict(num_workers=2, kills=3, stops=3, corruptions=3), [
        "batch 1: corrupt_truncate worker 1",
        "batch 2: sigstop worker 0",
        "batch 2: corrupt_bitflip worker 0",
        "batch 2: sigkill worker 1",
        "batch 2: sigstop worker 1",
        "batch 4: sigkill worker 0",
        "batch 4: corrupt_bitflip worker 0",
        "batch 4: sigkill worker 1",
        "batch 4: sigstop worker 1",
    ]),
    ((29, 9), dict(num_workers=2, kills=2), [
        "batch 2: sigkill worker 0",
        "batch 6: sigkill worker 1",
    ]),
]


def _describe(faults):
    return [fault.describe() for fault in faults]


# --------------------------------------------------------------------------
# The golden table
# --------------------------------------------------------------------------
@pytest.mark.parametrize(
    "args,kwargs,expected",
    GOLDEN,
    ids=[
        "-".join([f"seed{args[0]}", f"batches{args[1]}"] + [f"{k}{v}" for k, v in kw.items()])
        for args, kw, _ in GOLDEN
    ],
)
def test_seeded_reproduces_the_golden_schedule(args, kwargs, expected):
    assert _describe(FaultSchedule.seeded(*args, **kwargs)) == expected


def test_simulated_half_is_the_worker_free_schedule():
    # No workers, no process faults: what is left is the simulated half of
    # every master-suite row, drawn identically.
    simulated = _describe(FaultSchedule.seeded(47, 4, **MASTER_SUITE))
    assert simulated == [
        "batch 2: crash_server server 0",
        "batch 3: migration_crash (after_handoff)",
        "batch 3: revive_server server 0",
    ]
    for args, kwargs, expected in GOLDEN:
        if args[0] == 47:
            assert [line for line in expected if "worker" not in line] == simulated


# --------------------------------------------------------------------------
# Schedule mechanics
# --------------------------------------------------------------------------
class TestFaultSchedule:
    def test_seeded_schedules_are_reproducible(self):
        kwargs = dict(num_workers=3, kills=4, stops=2, corruptions=2)
        first = FaultSchedule.seeded(5, 10, **kwargs)
        assert first == FaultSchedule.seeded(5, 10, **kwargs)
        assert len(first) == 8
        simulated = dict(num_servers=5, server_crashes=2, migration_crashes=1)
        assert FaultSchedule.seeded(7, 20, **simulated) == FaultSchedule.seeded(
            7, 20, **simulated
        )

    def test_kill_every_worker_guarantee(self):
        for seed in range(10):
            faults = FaultSchedule.seeded(seed, 6, num_workers=4, kills=4)
            assert {fault.target for fault in faults} == {0, 1, 2, 3}

    def test_faults_never_fire_at_batch_zero(self):
        faults = FaultSchedule.seeded(
            11, 5, num_workers=2, kills=3, stops=3, corruptions=3,
            num_servers=2, server_crashes=2, migration_crashes=2,
        )
        assert all(fault.at_batch >= 1 for fault in faults)

    def test_migration_crashes_pair_a_kill_only_with_workers(self):
        alone = FaultSchedule.seeded(3, 6, migration_crashes=2)
        assert {fault.kind for fault in alone} == {MIGRATION_CRASH}
        paired = FaultSchedule.seeded(3, 6, num_workers=2, migration_crashes=2)
        kills = [fault for fault in paired if fault.kind == KILL_WORKER]
        assert [fault.target for fault in kills] == [0, 1]
        assert sorted(f.at_batch for f in kills) == sorted(f.at_batch for f in alone)

    def test_at_groups_by_batch_in_firing_order(self):
        faults = FaultSchedule(
            [
                Fault(2, KILL_WORKER, 1),
                Fault(2, STOP_WORKER, 0),
                Fault(4, CORRUPT_BITFLIP, 0),
                Fault(2, REVIVE_SERVER, 1),
                Fault(1, MIGRATION_CRASH),
                Fault(2, CRASH_SERVER, 0),
            ]
        )
        assert [fault.at_batch for fault in faults] == [1, 2, 2, 2, 2, 4]
        assert _describe(faults.at(2)) == [
            "batch 2: crash_server server 0",
            "batch 2: revive_server server 1",
            "batch 2: sigstop worker 0",
            "batch 2: sigkill worker 1",
        ]
        assert faults.at(3) == ()
        assert len(faults.at(4)) == 1

    def test_plane_follows_the_kind(self):
        assert Fault(1, CRASH_SERVER, 0).plane == "simulated"
        assert Fault(1, MIGRATION_CRASH).plane == "simulated"
        assert Fault(1, CORRUPT_BITFLIP, 0).plane == "process"

    def test_describe_renders_the_report_strings(self):
        assert Fault(3, REVIVE_SERVER, 1).describe() == "batch 3: revive_server server 1"
        assert (
            Fault(1, MIGRATION_CRASH, crash_point=CRASH_AFTER_FLUSH).describe()
            == "batch 1: migration_crash (after_flush)"
        )
        assert Fault(2, KILL_WORKER, 0).describe() == "batch 2: sigkill worker 0"

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            Fault(0, "meteor_strike")
        with pytest.raises(ConfigurationError, match="at_batch"):
            Fault(-1, MIGRATION_CRASH)
        with pytest.raises(ConfigurationError, match="target"):
            Fault(0, CRASH_SERVER)
        with pytest.raises(ConfigurationError, match="target"):
            Fault(0, KILL_WORKER, -1)
        with pytest.raises(ConfigurationError, match="crash point"):
            Fault(0, MIGRATION_CRASH, crash_point="mid_air")
        with pytest.raises(ConfigurationError, match="two batches"):
            FaultSchedule.seeded(1, 1, num_workers=2, kills=1)
        with pytest.raises(ConfigurationError, match="num_workers"):
            FaultSchedule.seeded(1, 4, kills=1)


# --------------------------------------------------------------------------
# A wrongly shaped fault is refused when it is built, not when it fires
# --------------------------------------------------------------------------
class TestFaultShape:
    def test_migration_crash_takes_no_target(self):
        # A stray server id once made the master skip the crash on a
        # cluster smaller than the id.
        with pytest.raises(ConfigurationError, match="no target"):
            Fault(0, MIGRATION_CRASH, target=5)

    def test_server_faults_take_no_crash_point(self):
        with pytest.raises(ConfigurationError, match="no crash_point"):
            Fault(0, CRASH_SERVER, target=1, crash_point=CRASH_AFTER_FLUSH)
        with pytest.raises(ConfigurationError, match="no crash_point"):
            Fault(0, KILL_WORKER, target=0, crash_point=CRASH_AFTER_HANDOFF)

    def test_migration_crash_names_the_crash_point_it_fires(self):
        fault = Fault(1, MIGRATION_CRASH)
        assert fault.crash_point == CRASH_AFTER_HANDOFF
        assert fault.describe() == "batch 1: migration_crash (after_handoff)"


# --------------------------------------------------------------------------
# LoadTest: one fault argument, one boundary order
# --------------------------------------------------------------------------
class _RecordingCluster:
    """Just enough cluster to watch a batch boundary's calls."""

    has_master = True
    supervisor = object()

    def __init__(self):
        self.calls = []

    def apply_fault(self, fault):
        self.calls.append(("apply_fault", fault.describe()))
        return [fault.describe()]

    def rebalance(self):
        self.calls.append(("rebalance",))

    def apply_chaos_event(self, fault):
        self.calls.append(("apply_chaos_event", fault.describe()))


class TestLoadTestFaults:
    def test_boundary_fires_simulated_then_rebalance_then_process(self):
        cluster = _RecordingCluster()
        faults = FaultSchedule(
            [
                Fault(4, KILL_WORKER, 1),
                Fault(4, MIGRATION_CRASH, crash_point=CRASH_AFTER_FLUSH),
                Fault(4, KILL_WORKER, 0),
                Fault(4, CRASH_SERVER, 1),
            ]
        )
        test = LoadTest(cluster, rebalance_every=2, faults=faults)
        test._control_step(3)
        assert cluster.calls == []
        test._control_step(4)
        assert cluster.calls == [
            ("apply_fault", "batch 4: crash_server server 1"),
            ("apply_fault", "batch 4: migration_crash (after_flush)"),
            ("rebalance",),
            ("apply_chaos_event", "batch 4: sigkill worker 0"),
            ("apply_chaos_event", "batch 4: sigkill worker 1"),
        ]
        # Only the simulated faults reach the report's log.
        assert test._faults_applied == [
            "batch 4: crash_server server 1",
            "batch 4: migration_crash (after_flush)",
        ]

    def test_simulated_faults_require_master(self):
        cluster = ServerCluster(uniform_leader_indexer(50, seed=1), num_servers=2)
        with pytest.raises(ConfigurationError, match="tablet master"):
            LoadTest(cluster, faults=FaultSchedule([Fault(1, CRASH_SERVER, 0)]))
        with pytest.raises(ConfigurationError, match="tablet master"):
            LoadTest(cluster, rebalance_every=4)
        with pytest.raises(ConfigurationError, match="supervised"):
            LoadTest(cluster, faults=FaultSchedule([Fault(1, KILL_WORKER, 0)]))
        # An empty schedule asks nothing of the cluster.
        assert LoadTest(cluster, faults=FaultSchedule()).faults == ()
