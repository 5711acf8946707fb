"""Pipelined windows: byte-identical reports at any in-flight depth.

The headline property of the windowed scatter-gather engine: the in-flight
window size ``W`` is a pure wall-clock knob.  Every simulated number — the
whole ``to_report()`` rendering — must stay byte-identical across
``W ∈ {1, 2, 8}``, worker counts, backends, and chaos, because per-shard
FIFO order is preserved and makespans are resolved against the round that
produced them.  The machine-independent overlap counters are pinned here
too: ``blocking_waits`` must equal ``ceil(rounds / W)``, which is what
makes the "waits per batch fall like 1/W" claim testable on any host.
"""

import random

import pytest

from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import UpdateMessage, format_object_id
from repro.server import rpc
from repro.server.chaos import ChaosPlan
from repro.server.loadtest import LoadTest
from repro.server.scaleout import ScaleOutCluster
from repro.server.worker import ShardRecipe, dispatch_request
from repro.workload.queries import NNQuery

NUM_SHARDS = 4
NUM_OBJECTS = 200
BATCH_SIZE = 64
NUM_ROUNDS = 9  # 576 messages / batch 64 — W=8 leaves a 1-round tail


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


MESSAGES = make_messages(NUM_ROUNDS * BATCH_SIZE, NUM_OBJECTS)
QUERIES = make_queries(60)


def _cluster(backend, workers, window=1, policy=None, retry=None, **kwargs):
    return ScaleOutCluster.build(
        NUM_SHARDS,
        backend=backend,
        num_workers=workers,
        window=window,
        supervision_policy=policy,
        retry_policy=retry,
        num_objects=NUM_OBJECTS,
        seed=17,
        num_servers=2,
        **kwargs,
    )


def _run_updates(cluster, chaos_plan=None):
    test = LoadTest(
        cluster, failure_probability=0.0, seed=404, chaos_plan=chaos_plan
    )
    return test.run_update_batches(MESSAGES, batch_size=BATCH_SIZE)


def _run_mixed(cluster, chaos_plan=None):
    test = LoadTest(
        cluster, failure_probability=0.01, seed=404, chaos_plan=chaos_plan
    )
    return test.run_mixed_batches(MESSAGES, QUERIES, batch_size=BATCH_SIZE)


@pytest.fixture(scope="module")
def update_reference():
    """Unpipelined, unsupervised, in-process update-only rendering."""
    cluster = _cluster("inprocess", 1, window=1)
    try:
        return _run_updates(cluster).to_report()
    finally:
        cluster.close()


@pytest.fixture(scope="module")
def mixed_reference():
    """Unpipelined mixed rendering (query rounds barrier the window)."""
    cluster = _cluster("inprocess", 1, window=1)
    try:
        return _run_mixed(cluster).to_report()
    finally:
        cluster.close()


# --------------------------------------------------------------------------
# The acceptance property: W is invisible to every simulated number
# --------------------------------------------------------------------------
class TestWindowByteIdentical:
    @pytest.mark.parametrize("window", [2, 8])
    @pytest.mark.parametrize(
        "backend,workers",
        [("inprocess", 1), ("process", 1), ("process", 2), ("process", 4)],
    )
    def test_update_stream_matches_window1(
        self, backend, workers, window, update_reference
    ):
        cluster = _cluster(backend, workers, window=window)
        try:
            assert _run_updates(cluster).to_report() == update_reference
        finally:
            cluster.close()

    @pytest.mark.parametrize("window", [2, 8])
    def test_disk_backend_matches_window1(self, window, update_reference):
        cluster = _cluster("disk", 2, window=window)
        try:
            assert _run_updates(cluster).to_report() == update_reference
        finally:
            cluster.close()

    @pytest.mark.parametrize("window", [2, 8])
    def test_mixed_stream_matches_window1(self, window, mixed_reference):
        cluster = _cluster("process", 2, window=window)
        try:
            assert _run_mixed(cluster).to_report() == mixed_reference
        finally:
            cluster.close()


# --------------------------------------------------------------------------
# Machine-independent overlap counters
# --------------------------------------------------------------------------
class TestOverlapCounters:
    @pytest.mark.parametrize(
        "window,expected_waits", [(1, 9), (2, 5), (8, 2)]
    )
    def test_blocking_waits_are_ceil_rounds_over_window(
        self, window, expected_waits
    ):
        # ceil(9 / W): the drain count is a pure function of the batch
        # stream and W, so this asserts identically on any host.
        cluster = _cluster("process", 2, window=window)
        try:
            _run_updates(cluster)
            pipeline = cluster.metrics_snapshot()
            assert pipeline["rounds_enqueued"] == NUM_ROUNDS
            assert pipeline["blocking_waits"] == expected_waits
            assert pipeline["inflight_rounds"] == 0
        finally:
            cluster.close()

    def test_query_broadcasts_barrier_the_window(self):
        cluster = _cluster("process", 2, window=8)
        try:
            cluster.enqueue_update_batch(MESSAGES[:BATCH_SIZE], round_index=0)
            assert cluster.metrics_snapshot()["inflight_rounds"] == 1
            cluster.submit_query_batch(QUERIES[:8])
            pipeline = cluster.metrics_snapshot()
            assert pipeline["inflight_rounds"] == 0
            assert pipeline["barrier_drains"] == 1
        finally:
            cluster.close()

    def test_window_snapshot_reports_configured_depth(self):
        cluster = _cluster("process", 1, window=2)
        try:
            assert cluster.metrics_snapshot()["window"] == 2
            cluster.set_window(1)
            assert cluster.metrics_snapshot()["window"] == 1
        finally:
            cluster.close()

    def test_set_window_validates_against_dedup_depth(self):
        from repro.errors import ConfigurationError

        cluster = _cluster("process", 1, window=1)
        try:
            with pytest.raises(ConfigurationError):
                cluster.set_window(0)
            with pytest.raises(ConfigurationError):
                # The worker-side dedup window (depth 8 by default) must be
                # able to replay a full in-flight window.
                cluster.set_window(64)
        finally:
            cluster.close()


# --------------------------------------------------------------------------
# Chaos × window: SIGKILL mid-window replays the whole window exactly once
# --------------------------------------------------------------------------
class TestWindowChaos:
    @pytest.mark.parametrize("window", [1, 2, 8])
    def test_sigkill_every_worker_is_byte_invisible_at_any_window(
        self, window, mixed_reference
    ):
        workers = 2
        num_batches = max(
            -(-len(MESSAGES) // BATCH_SIZE), -(-len(QUERIES) // BATCH_SIZE), 2
        )
        plan = ChaosPlan.seeded(
            29, num_batches=num_batches, num_workers=workers, kills=workers
        )
        cluster = _cluster(
            "disk",
            workers,
            window=window,
            policy="respawn",
            retry=rpc.RetryPolicy(call_deadline_s=15.0),
        )
        try:
            result = _run_mixed(cluster, chaos_plan=plan)
            assert result.to_report() == mixed_reference
            snapshot = cluster.supervisor.metrics_snapshot()
            assert snapshot["recoveries"] == workers
            assert snapshot["lost_updates"] == 0
            # Regression: the raise site wraps OS errors once; recovery
            # reasons must never read "send failed: send failed: ...".
            for reason in snapshot["reasons"]:
                assert "send failed: send failed" not in reason
                assert "receive failed: receive failed" not in reason
        finally:
            cluster.close()

    def test_kill_with_full_window_in_flight_replays_exactly_once(self):
        # SIGKILL the worker while four rounds are genuinely in flight (no
        # barrier first), then keep enqueueing and drain: the supervisor
        # heals the worker and the engine resends the *whole* uncollected
        # window with the original pinned request ids, so the replay is
        # exactly-once — every update lands, none twice.
        cluster = _cluster(
            "disk",
            1,
            window=8,
            policy="respawn",
            retry=rpc.RetryPolicy(call_deadline_s=15.0),
        )
        try:
            batches = [
                MESSAGES[start : start + BATCH_SIZE]
                for start in range(0, len(MESSAGES), BATCH_SIZE)
            ]
            for index, batch in enumerate(batches):
                cluster.enqueue_update_batch(batch, round_index=index)
                if index == 3:
                    assert cluster.metrics_snapshot()["inflight_rounds"] == 4
                    cluster.backend.pool.kill_worker(0)
            cluster.drain_update_window()
            snapshot = cluster.supervisor.metrics_snapshot()
            assert snapshot["recoveries"] == 1
            assert snapshot["lost_updates"] == 0
            assert cluster.pipeline_processed == len(MESSAGES)
        finally:
            cluster.close()


# --------------------------------------------------------------------------
# Worker-side dedup depth: sized to replay a whole window
# --------------------------------------------------------------------------
def _built_service(**recipe_kwargs):
    services = {}
    recipe = ShardRecipe(
        num_shards=1,
        shard_id=0,
        num_objects=50,
        seed=3,
        num_servers=1,
        **recipe_kwargs,
    )
    dispatch_request(
        services, 0, rpc.OP_CALL, rpc.encode_call("build_indexer", (recipe,), {}), 1
    )
    return services


class TestDedupDepth:
    def test_window_deep_replay_returns_recorded_results(self):
        # Apply eight batches (a full default window), then replay every
        # one of them — each must come back recorded, none re-applied.
        services = _built_service()
        bodies = [
            rpc.encode_update_batch(make_messages(10, 50, seed=index))
            for index in range(8)
        ]
        firsts = [
            dispatch_request(services, 0, rpc.OP_UPDATE_BATCH, body, 10 + index)
            for index, body in enumerate(bodies)
        ]
        charged = services[0].call("simulated_seconds")
        for index, body in enumerate(bodies):
            replay = dispatch_request(
                services, 0, rpc.OP_UPDATE_BATCH, body, 10 + index
            )
            assert replay == firsts[index]
        assert services[0].call("simulated_seconds") == charged

    def test_requests_fall_out_of_a_bounded_window(self):
        from repro.errors import StaleRequestError

        services = _built_service(dedup_window=2)
        for index in range(4):
            dispatch_request(
                services,
                0,
                rpc.OP_UPDATE_BATCH,
                rpc.encode_update_batch(make_messages(5, 50, seed=index)),
                10 + index,
            )
        # Ids 12 and 13 are still in the depth-2 window; 10 fell out.
        dispatch_request(
            services,
            0,
            rpc.OP_UPDATE_BATCH,
            rpc.encode_update_batch(make_messages(5, 50, seed=2)),
            12,
        )
        with pytest.raises(StaleRequestError):
            dispatch_request(
                services,
                0,
                rpc.OP_UPDATE_BATCH,
                rpc.encode_update_batch(make_messages(5, 50, seed=0)),
                10,
            )

    def test_build_sizes_dedup_to_the_window(self):
        cluster = _cluster("inprocess", 1, window=16)
        try:
            assert all(
                recipe.dedup_window >= 16 for recipe in cluster.recipes
            )
        finally:
            cluster.close()

    def test_dedup_window_must_hold_at_least_one_request(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ShardRecipe(num_objects=10, dedup_window=0)
