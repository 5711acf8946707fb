"""Supervised masters: control-plane state survives SIGKILL, byte for byte.

The headline property: a seeded :class:`FaultSchedule` that puts simulated
control-plane faults (a migration aborted mid-flight, a server crash and
revival) on the same timeline as real SIGKILLs — including a kill at the
*same batch boundary* as the migration crash, i.e. the worker dies right
after checkpointing the aborted hand-off — completes with a ``to_report()``
rendering byte-identical to the run of its simulated half alone, at every
worker count.  The accounting checkpoint carries the tablet master's
decision history (migration/replication/failover records) alongside the
routing overrides, so a respawned shard's master continues exactly where
the dead one stopped.

The simulated half is drawn *before* the process faults, so it depends only
on the seed and its own counts — never on the worker count — which is what
lets one simulated-only in-process reference serve every matrix point.
"""

import dataclasses
import random

import pytest

from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import UpdateMessage, format_object_id
from repro.server import rpc
from repro.server.faults import (
    CRASH_AFTER_FLUSH,
    KILL_WORKER,
    MIGRATION_CRASH,
    Fault,
    FaultSchedule,
)
from repro.server.loadtest import LoadTest
from repro.server.master import MasterOptions
from repro.server.scaleout import ScaleOutCluster
from repro.bigtable.process_backend import make_scaleout_backend
from repro.workload.queries import NNQuery

from helpers import KillBeforeAck

NUM_SHARDS = 4
NUM_OBJECTS = 200
NUM_ROUNDS = 4  # 400 messages / batch_size 128
PLAN_SEED = 47
MASTER_OPTIONS = MasterOptions(replicate_read_share=0.10)


def make_messages(count, num_objects, seed=99):
    rng = random.Random(seed)
    return [
        UpdateMessage(
            object_id=format_object_id(rng.randrange(num_objects)),
            location=Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)),
            velocity=Vector(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
            timestamp=float(index),
        )
        for index in range(count)
    ]


def make_queries(count, seed=7, k=5):
    rng = random.Random(seed)
    return [
        NNQuery(
            location=Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)),
            k=k,
        )
        for _ in range(count)
    ]


MESSAGES = make_messages(400, NUM_OBJECTS)
QUERIES = make_queries(80)


def _schedule(workers):
    """The acceptance-criteria schedule: every worker SIGKILLed at least
    once, one migration aborted mid-flight with a paired same-batch kill,
    one server crashed and revived.  ``_schedule(0)`` is its simulated half."""
    return FaultSchedule.seeded(
        PLAN_SEED,
        NUM_ROUNDS,
        num_workers=workers,
        kills=workers,
        migration_crashes=1,
        server_crashes=1,
        num_servers=2,
    )


def _cluster(backend, workers, policy=None, retry=None, **kwargs):
    kwargs.setdefault("with_master", True)
    kwargs.setdefault("master_options", MASTER_OPTIONS)
    return ScaleOutCluster.build(
        NUM_SHARDS,
        backend=backend,
        num_workers=workers,
        supervision_policy=policy,
        retry_policy=retry,
        num_objects=NUM_OBJECTS,
        seed=17,
        num_servers=2,
        **kwargs,
    )


def _run(cluster, faults):
    test = LoadTest(
        cluster,
        failure_probability=0.01,
        seed=404,
        rebalance_every=2,
        faults=faults,
    )
    return test.run_mixed_batches(MESSAGES, QUERIES, batch_size=128)


@pytest.fixture(scope="module")
def reference():
    """The in-process run every supervised run must reproduce: its report,
    master action counts and per-shard simulated seconds.  The *simulated*
    faults are part of the deterministic workload, so the reference runs
    them too — the schedule's simulated half, without any process fault."""
    cluster = _cluster("inprocess", 1)
    try:
        report = _run(cluster, _schedule(0)).to_report()
        return (
            report,
            cluster.master_action_counts(),
            cluster.backend.scatter("simulated_seconds"),
        )
    finally:
        cluster.close()


@pytest.fixture(scope="module")
def reference_report(reference):
    """The rendering every supervised run must reproduce byte for byte."""
    return reference[0]


# --------------------------------------------------------------------------
# The acceptance property
# --------------------------------------------------------------------------
class TestMasterSupervisionLossless:
    def test_simulated_half_is_worker_count_independent(self):
        # One reference serves every matrix point only because the
        # simulated half of the schedule never depends on the worker count.
        baseline = _schedule(0)
        assert baseline  # the schedule actually holds simulated faults
        assert {fault.plane for fault in baseline} == {"simulated"}
        for workers in (1, 2, 4):
            simulated = [f for f in _schedule(workers) if f.plane == "simulated"]
            assert tuple(simulated) == baseline

    def test_kill_lands_on_the_migration_batch(self):
        # The pairing under test: some SIGKILL shares a batch boundary
        # with the migration crash, so the worker dies mid-migration.
        faults = _schedule(2)
        migration_batches = {
            fault.at_batch for fault in faults if fault.kind == MIGRATION_CRASH
        }
        kill_batches = {
            fault.at_batch for fault in faults if fault.kind == KILL_WORKER
        }
        assert migration_batches
        assert migration_batches & kill_batches

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sigkill_mid_migration_is_byte_invisible(
        self, workers, reference_report
    ):
        cluster = _cluster(
            "disk",
            workers,
            policy="respawn",
            retry=rpc.RetryPolicy(call_deadline_s=15.0),
        )
        try:
            result = _run(cluster, _schedule(workers))
            assert result.to_report() == reference_report
            snapshot = cluster.supervisor.metrics_snapshot()
            assert snapshot["policy"] == "respawn"
            assert snapshot["recoveries"] >= 1
            assert snapshot["lossless_recoveries"] == snapshot["recoveries"]
            assert snapshot["lost_updates"] == 0
        finally:
            cluster.close()

    def test_supervised_masters_fault_free_matches_unsupervised(
        self, reference_report
    ):
        # With no chaos the supervised master-bearing cluster (checkpointed
        # decision history included) changes no simulated number.
        cluster = _cluster(
            "disk",
            2,
            policy="respawn",
            retry=rpc.RetryPolicy(call_deadline_s=30.0),
        )
        try:
            report = _run(cluster, _schedule(0)).to_report()
            assert report == reference_report
            assert cluster.supervisor.metrics_snapshot()["recoveries"] == 0
        finally:
            cluster.close()


# --------------------------------------------------------------------------
# The mechanism: master decision history rides the accounting checkpoint
# --------------------------------------------------------------------------
class TestMasterStateSurvivesRespawn:
    def test_master_actions_survive_kill_and_heal(self):
        cluster = _cluster(
            "disk",
            1,
            policy="respawn",
            retry=rpc.RetryPolicy(call_deadline_s=15.0),
        )
        try:
            cluster.submit_update_batch(MESSAGES[:128])
            cluster.submit_query_batch(QUERIES[:20])
            # Force a recorded control-plane decision on every shard: the
            # aborted migration appends a MigrationRecord.
            cluster.apply_fault(
                Fault(0, MIGRATION_CRASH, crash_point=CRASH_AFTER_FLUSH)
            )
            cluster.rebalance()
            before = cluster.master_action_counts()
            assert sum(before) > 0
            cluster.backend.pool.kill_worker(0)
            # The next round — here the read-only ``metrics`` CALL behind
            # the counts — meets the dead worker and heals it.
            assert cluster.master_action_counts() == before
            snapshot = cluster.supervisor.metrics_snapshot()
            assert snapshot["recoveries"] == 1
            assert snapshot["lost_updates"] == 0
        finally:
            cluster.close()

    def test_respawn_before_any_checkpointed_master_state(self):
        # A worker killed before its shards ever checkpointed still heals:
        # the restore path tolerates a checkpoint without master history.
        cluster = _cluster(
            "disk",
            1,
            policy="respawn",
            retry=rpc.RetryPolicy(call_deadline_s=15.0),
        )
        try:
            cluster.backend.pool.kill_worker(0)
            assert cluster.master_action_counts() == (0, 0, 0)
            assert cluster.submit_update_batch(MESSAGES[:32]) > 0
        finally:
            cluster.close()


    def test_kill_before_the_ack_of_a_mutating_call_replays_it(
        self, reference, tmp_path, monkeypatch
    ):
        # The worker applies the scheduled MIGRATION_CRASH, records and
        # checkpoints it, and dies before its ack: the resend must come back
        # from the slot, not abort a second migration.
        kill = KillBeforeAck(
            monkeypatch,
            str(tmp_path),
            rpc.OP_CALL,
            lambda result: isinstance(result, str) and MIGRATION_CRASH in result,
        )
        cluster = _cluster(
            "disk", 2, policy="respawn", retry=rpc.RetryPolicy(call_deadline_s=15.0)
        )
        try:
            kill.arm()  # the preload is over
            result = _run(cluster, _schedule(0))
            assert kill.killed().endswith(f" {rpc.OP_CALL}\n")
            assert kill.replayed() == kill.killed()
            assert result.to_report() == reference[0]
            assert cluster.master_action_counts() == reference[1]
            assert cluster.backend.scatter("simulated_seconds") == reference[2]
            snapshot = cluster.supervisor.metrics_snapshot()
            assert snapshot["recoveries"] == snapshot["lossless_recoveries"] == 1
        finally:
            cluster.close()


# --------------------------------------------------------------------------
# Satellite 1: the parent reads shard 0's recipe for the whole federation
# --------------------------------------------------------------------------
class TestMixedFleetGuard:
    def test_mixed_fleet_is_rejected_at_build_time(self):
        backend = make_scaleout_backend(
            "inprocess",
            NUM_SHARDS,
            num_objects=NUM_OBJECTS,
            seed=17,
            num_servers=2,
        )
        try:
            backend.recipes = list(backend.recipes)
            backend.recipes[2] = dataclasses.replace(
                backend.recipes[2], with_master=True
            )
            with pytest.raises(ConfigurationError, match="mixed fleet"):
                ScaleOutCluster(backend)
        finally:
            backend.close()

    def test_uniform_fleet_still_builds(self):
        cluster = _cluster("inprocess", 1)
        try:
            assert cluster.has_master
        finally:
            cluster.close()


# --------------------------------------------------------------------------
# Satellite 2: real p99 across the RPC boundary, worker-count independent
# --------------------------------------------------------------------------
class TestServiceTimePercentile:
    @pytest.fixture(scope="class")
    def p99_reference(self):
        cluster = _cluster("inprocess", 1, record_service_times=True)
        try:
            result = _run(cluster, _schedule(0))
            return result.p99_service_time_s, result.to_report()
        finally:
            cluster.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_p99_is_real_and_worker_count_independent(
        self, workers, p99_reference
    ):
        reference_p99, reference_report = p99_reference
        assert reference_p99 > 0.0
        cluster = _cluster(
            "disk",
            workers,
            policy="respawn",
            retry=rpc.RetryPolicy(call_deadline_s=15.0),
            record_service_times=True,
        )
        try:
            result = _run(cluster, _schedule(workers))
            assert result.p99_service_time_s == reference_p99
            assert result.to_report() == reference_report
        finally:
            cluster.close()

    def test_p99_is_zero_without_recording(self):
        cluster = _cluster("inprocess", 1)
        try:
            cluster.submit_update_batch(MESSAGES[:64])
            assert cluster.service_time_percentile(0.99) == 0.0
        finally:
            cluster.close()

    def test_quantile_validation(self):
        cluster = _cluster("inprocess", 1)
        try:
            with pytest.raises(ConfigurationError, match="quantile"):
                cluster.service_time_percentile(0.0)
            with pytest.raises(ConfigurationError, match="quantile"):
                cluster.service_time_percentile(1.5)
        finally:
            cluster.close()


# --------------------------------------------------------------------------
# Seeded-schedule guards
# --------------------------------------------------------------------------
class TestSeededGuards:
    def test_server_crashes_need_num_servers(self):
        with pytest.raises(ConfigurationError, match="num_servers"):
            FaultSchedule.seeded(1, 4, num_workers=2, server_crashes=1)

    def test_plain_seeded_schedules_hold_only_process_faults(self):
        faults = FaultSchedule.seeded(29, 4, num_workers=2, kills=2)
        assert {fault.plane for fault in faults} == {"process"}
