"""Process-level chaos: supervised runs heal losslessly, byte for byte.

The headline property: a seeded :class:`FaultSchedule` whose process
faults SIGKILL every worker at least once mid-workload — or freezes them with SIGSTOP, or
corrupts their frames — completes with a ``to_report()`` rendering
byte-identical to the fault-free run's.  The disk backend's journal + the
accounting checkpoints + the exactly-once retry protocol together make a
worker death invisible to every simulated number.
"""

import os
import signal

import pytest

from repro.errors import (
    ConfigurationError,
    StaleRequestError,
    WorkerCircuitOpenError,
)
from repro.codec.wire import NeighborStreamDecoder
from repro.disk.store import DiskTableStore
from repro.server import rpc
from repro.server.faults import KILL_WORKER, Fault, FaultSchedule
from repro.server.loadtest import LoadTest
from repro.server.scaleout import ScaleOutCluster
from repro.server.worker import ShardRecipe, dispatch_request

from helpers import KillBeforeAck, TearCheckpoint, make_messages, make_queries

NUM_SHARDS = 4
NUM_OBJECTS = 200
NUM_ROUNDS = 4  # 400 messages / batch_size 128

MESSAGES = make_messages(400, NUM_OBJECTS)
QUERIES = make_queries(80)


def _cluster(backend, workers, policy=None, retry=None, breaker=5, **kwargs):
    return ScaleOutCluster.build(
        NUM_SHARDS,
        backend=backend,
        num_workers=workers,
        supervision_policy=policy,
        retry_policy=retry,
        max_consecutive_failures=breaker,
        num_objects=NUM_OBJECTS,
        seed=17,
        num_servers=2,
        **kwargs,
    )


def _run(cluster, faults=None, messages=MESSAGES, queries=QUERIES, batch_size=128):
    test = LoadTest(cluster, failure_probability=0.01, seed=404, faults=faults)
    return test.run_mixed_batches(messages, queries, batch_size=batch_size)


@pytest.fixture(scope="module")
def reference():
    """The fault-free, unsupervised in-process run every chaos run must
    reproduce: its report and each shard's simulated seconds."""
    cluster = _cluster("inprocess", 1)
    try:
        report = _run(cluster).to_report()
        return report, cluster.backend.scatter("simulated_seconds")
    finally:
        cluster.close()


@pytest.fixture(scope="module")
def reference_report(reference):
    """The rendering every chaos run must reproduce byte for byte."""
    return reference[0]


# --------------------------------------------------------------------------
# The acceptance property
# --------------------------------------------------------------------------
class TestChaosLossless:
    def test_supervised_fault_free_matches_unsupervised(self, reference_report):
        # Supervision is pure mechanism: with no chaos the supervised
        # dispatch path (pinned request ids, per-call deadlines, durable
        # accounting checkpoints) changes no simulated number.
        cluster = _cluster(
            "disk", 2, policy="respawn", retry=rpc.RetryPolicy(call_deadline_s=30.0)
        )
        try:
            assert _run(cluster).to_report() == reference_report
            assert cluster.supervisor.metrics_snapshot()["recoveries"] == 0
        finally:
            cluster.close()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sigkill_every_worker_is_byte_invisible(
        self, workers, reference_report
    ):
        faults = FaultSchedule.seeded(
            29, NUM_ROUNDS, num_workers=workers, kills=workers
        )
        assert {fault.target for fault in faults} == set(range(workers))
        cluster = _cluster(
            "disk",
            workers,
            policy="respawn",
            retry=rpc.RetryPolicy(call_deadline_s=15.0),
        )
        try:
            result = _run(cluster, faults=faults)
            assert result.to_report() == reference_report
            snapshot = cluster.supervisor.metrics_snapshot()
            assert snapshot["policy"] == "respawn"
            assert snapshot["recoveries"] == workers
            assert snapshot["lossless_recoveries"] == workers
            assert snapshot["lost_updates"] == 0
            assert snapshot["recovery_seconds_total"] > 0.0
            assert snapshot["recovery_seconds_max"] >= (
                snapshot["recovery_seconds_mean"]
            )
        finally:
            cluster.close()

    def test_sigkill_on_a_finer_stream_is_byte_invisible(self):
        # Nine 64-message rounds, so the kills land on other batch
        # boundaries than the four-round schedule above allows.
        stream = dict(
            messages=make_messages(576, NUM_OBJECTS), queries=QUERIES[:60], batch_size=64
        )
        reference = _cluster("inprocess", 1)
        try:
            expected = _run(reference, **stream).to_report()
        finally:
            reference.close()
        faults = FaultSchedule.seeded(29, 9, num_workers=2, kills=2)
        cluster = _cluster(
            "disk", 2, policy="respawn", retry=rpc.RetryPolicy(call_deadline_s=15.0)
        )
        try:
            assert _run(cluster, faults=faults, **stream).to_report() == expected
            snapshot = cluster.supervisor.metrics_snapshot()
            assert snapshot["recoveries"] == 2
            assert snapshot["lost_updates"] == 0
            # Regression: the raise site wraps OS errors once; recovery
            # reasons must never read "send failed: send failed: ...".
            for reason in snapshot["reasons"]:
                assert "send failed: send failed" not in reason
                assert "receive failed: receive failed" not in reason
        finally:
            cluster.close()

    def test_sigkill_inside_the_durability_barrier_is_byte_invisible(
        self, reference_report, tmp_path, monkeypatch
    ):
        # Scheduled faults fire between rounds, when the victim is idle.  This
        # kill lands *inside* a request: the first worker to reach the
        # second commit point of an update batch — barrier open, the batch
        # half applied, none of it in a journal — SIGKILLs itself, once.
        armed, fired = str(tmp_path / "armed"), str(tmp_path / "fired")
        real_commit = DiskTableStore.journal_commit
        commits = []

        def dying_commit(store):
            assert store._barrier.barrier_open  # no worker commits outside one
            if os.path.exists(armed):
                commits.append(store.root)
                if len(commits) == 2:
                    try:
                        os.close(os.open(fired, os.O_CREAT | os.O_EXCL))
                    except FileExistsError:
                        pass  # a respawned worker, or the other one won
                    else:
                        os.kill(os.getpid(), signal.SIGKILL)
            real_commit(store)

        # Workers are forked, so they (and their respawns) inherit the patch.
        monkeypatch.setattr(DiskTableStore, "journal_commit", dying_commit)
        cluster = _cluster(
            "disk", 2, policy="respawn", retry=rpc.RetryPolicy(call_deadline_s=15.0)
        )
        try:
            open(armed, "w").close()  # the preload is over: arm the kill
            result = _run(cluster)
            assert os.path.exists(fired)
            assert result.to_report() == reference_report
            snapshot = cluster.supervisor.metrics_snapshot()
            assert snapshot["recoveries"] == snapshot["lossless_recoveries"] == 1
            assert snapshot["lost_updates"] == 0
        finally:
            cluster.close()

    def test_sigstop_hung_workers_are_byte_invisible(self, reference_report):
        # Frozen workers are alive by waitpid; only the ping/response
        # deadline can catch them.  Keep it short so the test stays fast.
        faults = FaultSchedule.seeded(31, NUM_ROUNDS, num_workers=2, stops=2)
        cluster = _cluster(
            "disk", 2, policy="respawn", retry=rpc.RetryPolicy(call_deadline_s=1.25)
        )
        try:
            result = _run(cluster, faults=faults)
            assert result.to_report() == reference_report
            snapshot = cluster.supervisor.metrics_snapshot()
            assert snapshot["recoveries"] >= 1
            assert snapshot["lost_updates"] == 0
        finally:
            cluster.close()

    def test_corrupted_frames_are_byte_invisible(self, reference_report):
        # One bitflipped frame (worker exits on the crc mismatch) and one
        # truncated frame (worker blocks mid-frame until the deadline).
        faults = FaultSchedule.seeded(
            37, NUM_ROUNDS, num_workers=2, corruptions=2
        )
        cluster = _cluster(
            "disk", 2, policy="respawn", retry=rpc.RetryPolicy(call_deadline_s=5.0)
        )
        try:
            result = _run(cluster, faults=faults)
            assert result.to_report() == reference_report
            snapshot = cluster.supervisor.metrics_snapshot()
            assert snapshot["recoveries"] == 2
            assert all("injected" in reason for reason in snapshot["reasons"])
        finally:
            cluster.close()


# --------------------------------------------------------------------------
# Policies short of lossless
# --------------------------------------------------------------------------
class TestLossyAndFailFast:
    def test_respawn_lossy_counts_the_updates_it_forfeits(self):
        faults = FaultSchedule([Fault(2, KILL_WORKER, 0)])
        cluster = _cluster(
            "process",
            2,
            policy="respawn_lossy",
            retry=rpc.RetryPolicy(call_deadline_s=15.0),
        )
        try:
            result = _run(cluster, faults=faults)
            assert result.total_requests > 0
            snapshot = cluster.supervisor.metrics_snapshot()
            assert snapshot["policy"] == "respawn_lossy"
            assert snapshot["recoveries"] == 1
            assert snapshot["lossless_recoveries"] == 0
            # Two rounds of acked updates on the killed worker's shards
            # were silently reset by the re-preload — the ledger says so.
            assert snapshot["lost_updates"] > 0
        finally:
            cluster.close()

    def test_repeated_lossy_respawns_do_not_double_count_lost_updates(self):
        # The loss ledger pops a shard's acked-update count on heal; a
        # second heal of the same worker with no acks in between must
        # forfeit zero, not re-charge what the first heal already counted.
        cluster = _cluster(
            "process",
            1,
            policy="respawn_lossy",
            retry=rpc.RetryPolicy(call_deadline_s=15.0),
        )
        try:
            acked = cluster.submit_update_batch(MESSAGES[:64])
            assert acked > 0
            supervisor = cluster.supervisor
            first = supervisor.handle_worker_failure(0, "first lossy heal")
            assert first.lost_updates == acked
            second = supervisor.handle_worker_failure(0, "second lossy heal")
            assert second.lost_updates == 0
            assert supervisor.metrics_snapshot()["lost_updates"] == acked
        finally:
            cluster.close()

    def test_circuit_breaker_trips_after_consecutive_failures(self):
        cluster = _cluster("disk", 1, policy="respawn", breaker=1)
        try:
            supervisor = cluster.supervisor
            supervisor.handle_worker_failure(0, "first")
            with pytest.raises(WorkerCircuitOpenError):
                supervisor.handle_worker_failure(0, "second")
        finally:
            cluster.close()

    def test_success_closes_the_circuit(self):
        cluster = _cluster("disk", 1, policy="respawn", breaker=1)
        try:
            supervisor = cluster.supervisor
            supervisor.handle_worker_failure(0, "first")
            supervisor.notify_success(0)
            record = supervisor.handle_worker_failure(0, "after reset")
            assert record.lossless
            # The cluster still serves after two heals.
            assert cluster.submit_update_batch(MESSAGES[:32]) > 0
        finally:
            cluster.close()


# --------------------------------------------------------------------------
# Configuration guards
# --------------------------------------------------------------------------
class TestSupervisionGuards:
    def test_supervision_requires_the_process_backend(self):
        with pytest.raises(ConfigurationError, match="process backend"):
            _cluster("inprocess", 1, policy="respawn_lossy")

    def test_lossless_respawn_requires_durable_disk_state(self):
        with pytest.raises(ConfigurationError, match="respawn_lossy"):
            _cluster("process", 1, policy="respawn")

    def test_lossless_respawn_accepts_masters(self):
        # PR 10: master decision state rides the accounting checkpoint, so
        # the old refusal is gone — a master-bearing recipe builds under
        # lossless supervision (the property suite proves the healing in
        # tests/test_master_supervision_property.py).
        cluster = _cluster("disk", 1, policy="respawn", with_master=True)
        try:
            assert cluster.has_master
            assert cluster.supervisor is not None
            assert cluster.supervisor.policy == "respawn"
        finally:
            cluster.close()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="policy"):
            _cluster("process", 1, policy="reboot")

    def test_process_faults_need_a_supervised_cluster(self):
        cluster = _cluster("inprocess", 1)
        try:
            with pytest.raises(ConfigurationError, match="supervised"):
                LoadTest(cluster, faults=FaultSchedule([Fault(1, KILL_WORKER, 0)]))
        finally:
            cluster.close()


# --------------------------------------------------------------------------
# The worker-side exactly-once slot, driven directly through dispatch_request
# --------------------------------------------------------------------------
def _built_service():
    services = {}
    recipe = ShardRecipe(
        num_shards=1, shard_id=0, num_objects=50, seed=3, num_servers=1
    )
    dispatch_request(
        services, 0, rpc.OP_CALL, rpc.encode_call("build_indexer", (recipe,), {}), 1
    )
    return services


class TestExactlyOnceSlot:
    def test_update_replay_returns_recorded_result_without_reapplying(self):
        services = _built_service()
        body = rpc.encode_update_batch(make_messages(20, 50))
        first = dispatch_request(services, 0, rpc.OP_UPDATE_BATCH, body, 10)
        charged = services[0].call("simulated_seconds")
        replay = dispatch_request(services, 0, rpc.OP_UPDATE_BATCH, body, 10)
        assert replay == first
        assert services[0].call("simulated_seconds") == charged  # no double charge

    def test_stale_request_ids_are_rejected(self):
        services = _built_service()
        body = rpc.encode_update_batch(make_messages(10, 50))
        dispatch_request(services, 0, rpc.OP_UPDATE_BATCH, body, 10)
        with pytest.raises(StaleRequestError):
            dispatch_request(services, 0, rpc.OP_UPDATE_BATCH, body, 9)

    def test_replay_with_mismatched_opcode_is_rejected(self):
        services = _built_service()
        dispatch_request(
            services,
            0,
            rpc.OP_UPDATE_BATCH,
            rpc.encode_update_batch(make_messages(10, 50)),
            10,
        )
        with pytest.raises(StaleRequestError):
            dispatch_request(
                services,
                0,
                rpc.OP_QUERY_BATCH,
                rpc.encode_query_batch(make_queries(4)),
                10,
            )

    def test_query_replay_reencodes_identical_results(self):
        services = _built_service()
        queries = make_queries(6)
        body = rpc.encode_query_batch(queries)
        first = dispatch_request(services, 0, rpc.OP_QUERY_BATCH, body, 20)
        charged = services[0].call("simulated_seconds")
        replay = dispatch_request(services, 0, rpc.OP_QUERY_BATCH, body, 20)
        assert services[0].call("simulated_seconds") == charged
        # The replay is re-encoded through the stateful stream encoder, so
        # the bytes differ — but a decoder tracking the stream recovers the
        # exact same results.
        decoder = NeighborStreamDecoder()
        import struct

        makespan_size = struct.calcsize("!d")
        decoded_first = decoder.decode(memoryview(first)[makespan_size:], queries)
        decoded_replay = decoder.decode(memoryview(replay)[makespan_size:], queries)
        assert decoded_first == decoded_replay

    def test_the_slot_replays_the_newest_of_several_requests(self):
        services = _built_service()
        bodies = [
            rpc.encode_update_batch(make_messages(10, 50, seed=index))
            for index in range(3)
        ]
        firsts = [
            dispatch_request(services, 0, rpc.OP_UPDATE_BATCH, body, 10 + index)
            for index, body in enumerate(bodies)
        ]
        charged = services[0].call("simulated_seconds")
        replay = dispatch_request(services, 0, rpc.OP_UPDATE_BATCH, bodies[2], 12)
        assert replay == firsts[2]
        assert services[0].call("simulated_seconds") == charged

    def test_every_id_older_than_the_slot_is_stale(self):
        services = _built_service()
        bodies = [
            rpc.encode_update_batch(make_messages(5, 50, seed=index))
            for index in range(3)
        ]
        for index, body in enumerate(bodies):
            dispatch_request(services, 0, rpc.OP_UPDATE_BATCH, body, 10 + index)
        charged = services[0].call("simulated_seconds")
        for index in (1, 0):  # right behind the slot, and further back
            with pytest.raises(StaleRequestError):
                dispatch_request(
                    services, 0, rpc.OP_UPDATE_BATCH, bodies[index], 10 + index
                )
        assert services[0].call("simulated_seconds") == charged
        dispatch_request(services, 0, rpc.OP_UPDATE_BATCH, bodies[2], 12)  # slot intact

    def test_a_mutating_call_replays_from_the_slot(self):
        services = _built_service()
        body = rpc.encode_call("nn_signature", (make_queries(4),), {})
        first = dispatch_request(services, 0, rpc.OP_CALL, body, 10)
        charged = services[0].call("simulated_seconds")
        assert dispatch_request(services, 0, rpc.OP_CALL, body, 10) == first
        assert services[0].call("simulated_seconds") == charged  # not re-run
        with pytest.raises(StaleRequestError):
            dispatch_request(services, 0, rpc.OP_CALL, body, 9)

    def test_a_read_only_call_neither_records_nor_is_stale_checked(self):
        services = _built_service()
        update = rpc.encode_update_batch(make_messages(10, 50))
        first = dispatch_request(services, 0, rpc.OP_UPDATE_BATCH, update, 10)
        slot = services[0]._slot
        read = rpc.encode_call("tablet_count", (), {})
        # An id older than the slot runs; the same id resent runs again.
        answers = [dispatch_request(services, 0, rpc.OP_CALL, read, 5) for _ in range(2)]
        assert answers[0] == answers[1] == rpc.encode_result(
            services[0].call("tablet_count")
        )
        assert services[0]._slot is slot
        assert dispatch_request(services, 0, rpc.OP_UPDATE_BATCH, update, 10) == first


# --------------------------------------------------------------------------
# Kill after apply, before the ack: the resend replays the recorded result
# --------------------------------------------------------------------------
class TestKillBeforeAck:
    @pytest.mark.parametrize(
        "opcode", [rpc.OP_UPDATE_BATCH, rpc.OP_QUERY_BATCH], ids=["update", "query"]
    )
    def test_the_resend_replays_and_charges_nothing_twice(
        self, reference, tmp_path, monkeypatch, opcode
    ):
        kill = KillBeforeAck(monkeypatch, str(tmp_path), opcode)
        cluster = _cluster(
            "disk", 2, policy="respawn", retry=rpc.RetryPolicy(call_deadline_s=15.0)
        )
        try:
            kill.arm()  # the preload is over
            result = _run(cluster)
            assert kill.killed().endswith(f" {opcode}\n")
            assert kill.replayed() == kill.killed()
            assert result.to_report() == reference[0]
            assert cluster.backend.scatter("simulated_seconds") == reference[1]
            snapshot = cluster.supervisor.metrics_snapshot()
            assert snapshot["recoveries"] == snapshot["lossless_recoveries"] == 1
        finally:
            cluster.close()


# --------------------------------------------------------------------------
# Kill mid-checkpoint: a torn slot restores the older one, the resend applies
# --------------------------------------------------------------------------
def test_a_checkpoint_torn_by_a_kill_restores_the_older_slot(
    reference, tmp_path, monkeypatch
):
    # The torn slot is an update's: the older slot is the shard after its
    # last acknowledged request, and its watermark drops the update's
    # journal records, so the resend applies the update afresh.
    tear = TearCheckpoint(monkeypatch, str(tmp_path), rpc.OP_UPDATE_BATCH)
    cluster = _cluster(
        "disk", 2, policy="respawn", retry=rpc.RetryPolicy(call_deadline_s=15.0)
    )
    try:
        tear.arm()
        result = _run(cluster)
        assert tear.fired()
        assert result.to_report() == reference[0]
        assert cluster.backend.scatter("simulated_seconds") == reference[1]
        snapshot = cluster.supervisor.metrics_snapshot()
        assert snapshot["recoveries"] == snapshot["lossless_recoveries"] == 1
    finally:
        cluster.close()