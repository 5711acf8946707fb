"""Lockstep rounds: every scale-out round has settled when its call returns.

``ScaleOutCluster.submit_update_batch`` / ``submit_query_batch`` each run
one scatter-gather round and commit its results before returning, so the
cluster-wide makespan a caller reads right after a call is final.  The load
test's timeline relies on exactly that: a bucket emits its point the moment
it fills, reading ``makespan_seconds()`` then.  This suite pins the
contract at three levels — the timeline bucket alone, one cluster round,
and whole ``to_report()`` renderings on a nine-round stream whose last
timeline bucket is partial — across backends and worker counts.
"""

import pytest

from repro.bigtable.process_backend import zero_phase
from repro.server.loadtest import BUCKET_BATCHES, LoadTest, _TimelineBucket
from repro.server.scaleout import ScaleOutCluster
from repro.server.worker import WORKER_PHASES, shard_of

from helpers import make_messages, make_queries

NUM_SHARDS = 4
NUM_OBJECTS = 200
BATCH_SIZE = 64
NUM_ROUNDS = 9  # two full timeline buckets of four rounds and a 1-round tail

MESSAGES = make_messages(NUM_ROUNDS * BATCH_SIZE, NUM_OBJECTS)
QUERIES = make_queries(60)
BATCHES = [
    MESSAGES[start : start + BATCH_SIZE]
    for start in range(0, len(MESSAGES), BATCH_SIZE)
]

#: ``(backend, num_workers)`` points compared against the in-process run.
FEDERATIONS = pytest.mark.parametrize(
    "backend,workers",
    [("process", 1), ("process", 2), ("process", 4), ("disk", 2)],
)


def _cluster(backend, workers):
    return ScaleOutCluster.build(
        NUM_SHARDS,
        backend=backend,
        num_workers=workers,
        num_objects=NUM_OBJECTS,
        seed=17,
        num_servers=2,
    )


def _run_updates(cluster):
    test = LoadTest(cluster, failure_probability=0.0, seed=404)
    return test.run_update_batches(MESSAGES, batch_size=BATCH_SIZE)


def _run_mixed(cluster):
    test = LoadTest(cluster, failure_probability=0.01, seed=404)
    return test.run_mixed_batches(MESSAGES, QUERIES, batch_size=BATCH_SIZE)


def _trajectory(cluster):
    """The cluster-wide makespan read right after each call of a mixed
    stream, plus every call's return value."""
    cluster.reset_metrics()
    makespans, returned = [], []
    for index, batch in enumerate(BATCHES):
        returned.append(cluster.submit_update_batch(batch))
        makespans.append(cluster.makespan_seconds())
        queries = QUERIES[index * 8 : index * 8 + 8]
        if queries:
            merged = cluster.submit_query_batch(queries)
            returned.append(
                [tuple((n.object_id, n.distance) for n in hits) for hits in merged]
            )
            makespans.append(cluster.makespan_seconds())
    return makespans, returned


@pytest.fixture(scope="module")
def in_process_runs():
    """Update-only report, mixed report and call trajectory of the
    one-worker in-process federation — the zero-transport reference."""
    runs = {}
    for name, drive in (
        ("updates", _run_updates),
        ("mixed", _run_mixed),
        ("trajectory", _trajectory),
    ):
        cluster = _cluster("inprocess", 1)
        try:
            runs[name] = drive(cluster)
        finally:
            cluster.close()
    return runs


# --------------------------------------------------------------------------
# The timeline bucket: a point per full bucket, read when it fills
# --------------------------------------------------------------------------
class FakeMakespan:
    """A makespan clock that returns the scripted readings in order."""

    def __init__(self, *readings):
        self.readings = list(readings)
        self.reads = 0

    def __call__(self):
        self.reads += 1
        return self.readings.pop(0)


class TestTimelineBucket:
    def test_a_full_bucket_emits_a_point_at_the_makespan_read_then(self):
        clock = FakeMakespan(2.0, 5.0)
        bucket = _TimelineBucket(2, clock)
        bucket.add(3, 1)
        bucket.tick()
        assert bucket.points == [] and clock.reads == 0
        bucket.add(5, 0)
        bucket.tick()
        bucket.add(6, 0)
        bucket.tick()
        bucket.add(0, 2)
        bucket.tick()
        # Each point's rates are over the makespan growth since the last.
        assert [(p.time_s, p.qps, p.failed_qps) for p in bucket.points] == [
            (2.0, 8 / 2.0, 1 / 2.0),
            (5.0, 6 / 3.0, 2 / 3.0),
        ]
        assert clock.reads == 2

    def test_finish_emits_the_partial_tail_bucket_once(self):
        clock = FakeMakespan(1.0, 1.5)
        bucket = _TimelineBucket(BUCKET_BATCHES, clock)
        for _ in range(BUCKET_BATCHES + 1):
            bucket.add(4, 0)
            bucket.tick()
        bucket.finish()
        bucket.finish()  # nothing left to emit
        assert [(p.time_s, p.qps) for p in bucket.points] == [
            (1.0, 4 * BUCKET_BATCHES / 1.0),
            (1.5, 4 / 0.5),
        ]
        assert clock.reads == 2

    def test_a_tail_of_only_failures_emits_no_point(self):
        clock = FakeMakespan()
        bucket = _TimelineBucket(BUCKET_BATCHES, clock)
        bucket.add(0, 3)
        bucket.tick()
        bucket.finish()
        assert bucket.points == [] and clock.reads == 0

    def test_a_bucket_without_makespan_growth_does_not_divide_by_zero(self):
        bucket = _TimelineBucket(1, FakeMakespan(0.0))
        bucket.add(2, 1)
        bucket.tick()
        (point,) = bucket.points
        assert point.time_s == 0.0
        assert point.qps == 2 / 1e-12 and point.failed_qps == 1 / 1e-12


# --------------------------------------------------------------------------
# One round: settled, counted and framed when its call returns
# --------------------------------------------------------------------------
class TestRoundSettlesOnReturn:
    @pytest.mark.parametrize(
        "backend,workers", [("inprocess", 1), ("process", 2)]
    )
    def test_an_update_round_returns_every_message_it_processed(
        self, backend, workers
    ):
        cluster = _cluster(backend, workers)
        try:
            assert [cluster.submit_update_batch(b) for b in BATCHES] == [
                len(b) for b in BATCHES
            ]
        finally:
            cluster.close()

    @pytest.mark.parametrize(
        "backend,workers", [("process", 1), ("process", 2), ("disk", 2)]
    )
    def test_makespan_after_every_call_matches_in_process(
        self, backend, workers, in_process_runs
    ):
        makespans, returned = in_process_runs["trajectory"]
        # Makespans never fall, which is what lets a timeline point read
        # the current makespan instead of a running maximum.
        assert makespans == sorted(makespans) and makespans[0] > 0.0
        cluster = _cluster(backend, workers)
        try:
            assert _trajectory(cluster) == (makespans, returned)
        finally:
            cluster.close()

    def test_a_round_sends_one_frame_per_request_and_nothing_more(self):
        cluster = _cluster("process", 2)
        try:
            owners = {shard_of(m.object_id, NUM_SHARDS) for m in BATCHES[0]}
            frames = cluster.backend.rpc_frame_count()
            cluster.submit_update_batch(BATCHES[0])
            assert cluster.backend.rpc_frame_count() - frames == len(owners)
            frames = cluster.backend.rpc_frame_count()
            cluster.submit_query_batch(QUERIES[:8])
            assert cluster.backend.rpc_frame_count() - frames == NUM_SHARDS
        finally:
            cluster.close()

    @pytest.mark.parametrize("backend", ["inprocess", "process"])
    def test_empty_batches_send_nothing_and_leave_the_makespan(self, backend):
        cluster = _cluster(backend, 2)
        try:
            cluster.submit_update_batch(BATCHES[0])
            makespan = cluster.makespan_seconds()
            frames = cluster.backend.rpc_frame_count()
            assert cluster.submit_update_batch([]) == 0
            assert cluster.submit_query_batch([]) == []
            assert cluster.backend.rpc_frame_count() == frames
            assert cluster.makespan_seconds() == makespan
        finally:
            cluster.close()

    @pytest.mark.parametrize("backend", ["inprocess", "process"])
    def test_metrics_snapshot_is_the_phase_timers_and_worker_phase(
        self, backend
    ):
        cluster = _cluster(backend, 2)
        try:
            timers = set(zero_phase())
            snapshot = cluster.metrics_snapshot()
            assert set(snapshot) == timers | {"worker_phase"}
            assert snapshot["worker_phase"] is None  # no metrics round yet
            assert all(snapshot[name] == 0.0 for name in timers)
            cluster.submit_update_batch(BATCHES[0])
            cluster.submit_query_batch(QUERIES[:8])
            cluster.metrics()
            snapshot = cluster.metrics_snapshot()
            assert set(snapshot["worker_phase"]) == set(WORKER_PHASES)
            spent = sum(snapshot[name] for name in timers)
            # The in-process transport has nothing to time.
            assert spent > 0.0 if backend == "process" else spent == 0.0
            cluster.reset_metrics()
            snapshot = cluster.metrics_snapshot()
            assert all(snapshot[name] == 0.0 for name in timers)
        finally:
            cluster.close()


# --------------------------------------------------------------------------
# Whole reports: byte-identical for every backend and worker count
# --------------------------------------------------------------------------
class TestLockstepReportsByteIdentical:
    def test_timeline_points_read_the_makespan_of_the_filling_round(
        self, in_process_runs
    ):
        result = in_process_runs["updates"]
        cluster = _cluster("inprocess", 1)
        try:
            cluster.reset_metrics()
            makespans = []
            for batch in BATCHES:
                cluster.submit_update_batch(batch)
                makespans.append(cluster.makespan_seconds())
        finally:
            cluster.close()
        # Rounds 4 and 8 fill a bucket; round 9 is the finished tail.
        assert [point.time_s for point in result.timeline] == [
            makespans[3],
            makespans[7],
            makespans[8],
        ]
        assert result.simulated_seconds == makespans[-1]
        starts = [0.0] + [point.time_s for point in result.timeline[:-1]]
        assert [
            point.qps * (point.time_s - start)
            for point, start in zip(result.timeline, starts)
        ] == pytest.approx([4 * BATCH_SIZE, 4 * BATCH_SIZE, BATCH_SIZE])

    @FEDERATIONS
    def test_update_stream_matches_in_process(
        self, backend, workers, in_process_runs
    ):
        cluster = _cluster(backend, workers)
        try:
            report = _run_updates(cluster).to_report()
        finally:
            cluster.close()
        assert report == in_process_runs["updates"].to_report()

    @pytest.mark.parametrize("backend,workers", [("process", 2), ("disk", 2)])
    def test_mixed_stream_matches_in_process(
        self, backend, workers, in_process_runs
    ):
        cluster = _cluster(backend, workers)
        try:
            report = _run_mixed(cluster).to_report()
        finally:
            cluster.close()
        assert report == in_process_runs["mixed"].to_report()
