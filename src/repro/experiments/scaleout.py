"""Scale-out experiment: tablet-routed batched updates across cluster sizes.

This experiment extends Figure 13's BigTable stress test along the axis the
tablet layer opens up: instead of round-robining single updates into one
monolithic store, the cluster partitions each update batch by the Location
Table tablet that owns the row and pins every tablet to one front-end
server.  Three quantities are reported per cluster size:

* update QPS through the batched group-commit path;
* the number of tablets the tables sharded into (driven purely by the
  default split threshold — no tuning);
* the hottest tablet's share of storage time, the skew figure that feeds
  the tablet-aware contention model.

The qualitative claim under test is the paper's Section 4.3.3 scaling
story: because Z-curve-keyed updates spread over row-range tablets, adding
front-end servers keeps dividing the work with only mild contention loss.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import uniform_leader_indexer
from repro.experiments.report import FigureResult, tablet_load_report
from repro.server.cluster import ServerCluster
from repro.server.loadtest import LoadTest, LoadTestResult


def _batched_harness(
    num_objects: int,
    num_servers: int,
    num_updates: int,
    num_clients: int,
    failure_probability: float,
    seed: int,
):
    """Shared setup of every scale-out run: a preloaded leader indexer, a
    tablet-routing cluster and the client fleet's update stream."""
    indexer = uniform_leader_indexer(num_objects, seed=seed)
    cluster = ServerCluster(indexer, num_servers=num_servers)
    load_test = LoadTest.with_fleet(
        cluster,
        num_clients=num_clients,
        total_objects=num_objects,
        failure_probability=failure_probability,
        seed=seed,
    )
    messages = []
    timestamp = 1.0
    per_client = max(num_updates // max(len(load_test.clients), 1), 1)
    for client in load_test.clients:
        messages.extend(client.burst(timestamp, per_client))
    return indexer, load_test, messages


def measure_batched_update_qps(
    num_objects: int,
    num_servers: int = 1,
    num_updates: int = 5000,
    num_clients: int = 10,
    batch_size: int = 256,
    failure_probability: float = 0.0,
    seed: int = 59,
) -> LoadTestResult:
    """Preload ``num_objects`` leaders and drive batched updates through a
    tablet-routing cluster of ``num_servers`` front-ends."""
    _, load_test, messages = _batched_harness(
        num_objects, num_servers, num_updates, num_clients, failure_probability, seed
    )
    return load_test.run_update_batches(messages, batch_size=batch_size)


def run_scaleout(
    server_counts: Sequence[int] = (1, 2, 5, 10),
    num_objects: int = 20000,
    num_updates: int = 10000,
    batch_size: int = 256,
    seed: int = 59,
) -> FigureResult:
    """Batched update QPS, tablet count and hot-tablet share vs cluster size."""
    result = FigureResult(
        figure_id="scaleout",
        title="Tablet-routed batched update QPS vs cluster size",
        x_label="front-end servers",
        y_label="updates per second (simulated)",
    )
    qps_values = []
    tablet_counts = []
    hot_shares = []
    last_outcome = None
    for count in server_counts:
        outcome = measure_batched_update_qps(
            num_objects,
            num_servers=count,
            num_updates=num_updates,
            batch_size=batch_size,
            seed=seed,
        )
        qps_values.append(outcome.qps)
        tablet_counts.append(outcome.tablet_count)
        hot_shares.append(outcome.hot_tablet_share)
        last_outcome = outcome
    counts = list(server_counts)
    result.add_series("batched update QPS", counts, qps_values)
    result.add_series("tablets", counts, [float(value) for value in tablet_counts])
    result.add_series("hot tablet share", counts, hot_shares)
    if last_outcome is not None:
        result.add_note(
            f"tables sharded into {last_outcome.tablet_count} tablets at the "
            f"default split threshold; hottest tablet served "
            f"{last_outcome.hot_tablet_share:.1%} of storage time"
        )
    result.add_note(
        "updates are batched client-side, partitioned by owning Location "
        "Table tablet and pinned to that tablet's server (group-commit path)"
    )
    return result


# --------------------------------------------------------------------------
# Multiprocess scale-out (shared-nothing shard federation)
# --------------------------------------------------------------------------


def multiproc_streams(num_objects: int, num_requests: int, seed: int):
    """A reproducible 50/50 update/NN-query stream for the scale-out runs.

    Built parent-side from one seeded rng so every backend and worker count
    consumes exactly the same requests.
    """
    import random

    from repro.geometry.point import Point
    from repro.geometry.vector import Vector
    from repro.model import UpdateMessage, format_object_id
    from repro.workload.queries import NNQuery

    rng = random.Random(seed)
    num_updates = num_requests // 2
    num_queries = num_requests - num_updates
    messages = [
        UpdateMessage(
            object_id=format_object_id(rng.randrange(num_objects)),
            location=Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)),
            velocity=Vector(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
            timestamp=float(index) / 10.0,
        )
        for index in range(num_updates)
    ]
    queries = [
        NNQuery(
            location=Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)),
            k=10,
        )
        for _ in range(num_queries)
    ]
    return messages, queries


def multiproc_load_run(
    backend: str,
    num_workers: int,
    num_shards: int,
    num_objects: int,
    num_requests: int,
    seed: int = 59,
    batch_size: int = 256,
    num_servers: int = 2,
    window: int = 1,
):
    """One measured scale-out run: build, drive, account, tear down.

    Returns ``(outcome, wall_seconds, transport, report)`` where ``wall``
    covers only the request loop (builds are excluded, like every other
    bench harness), ``transport`` holds the merged-ledger and RPC-framing
    counters, and ``report`` is the byte-deterministic
    :meth:`~repro.server.loadtest.LoadTestResult.to_report` rendering the
    determinism guards compare across worker counts (and window sizes —
    ``window`` bounds the engine's in-flight update rounds).
    """
    import time

    from repro.server.scaleout import ScaleOutCluster

    cluster = ScaleOutCluster.build(
        num_shards,
        backend=backend,
        num_workers=num_workers,
        num_objects=num_objects,
        seed=seed,
        num_servers=num_servers,
        window=window,
    )
    try:
        messages, queries = multiproc_streams(num_objects, num_requests, seed)
        load_test = LoadTest(cluster, failure_probability=0.0, seed=seed)
        start = time.perf_counter()
        outcome = load_test.run_mixed_batches(
            messages, queries, batch_size=batch_size
        )
        wall = time.perf_counter() - start
        snapshot = cluster.backend.counter.snapshot()
        transport = {
            "storage_rpc_count": snapshot.storage_rpc_count(),
            "simulated_storage_seconds": snapshot.simulated_seconds,
            "serialized_bytes": cluster.backend.serialized_bytes(),
            "rpc_frames": cluster.backend.rpc_frame_count(),
        }
        report = outcome.to_report()
    finally:
        cluster.close()
    return outcome, wall, transport, report


def multiproc_window_run(
    backend: str,
    num_workers: int,
    num_shards: int,
    num_objects: int,
    num_updates: int,
    seed: int = 59,
    batch_size: int = 256,
    num_servers: int = 2,
    window: int = 1,
):
    """One measured *pipelined* run: update-only stream, windowed engine.

    The mixed stream barriers on every query broadcast, so the window axis
    is measured on a pure update stream where rounds can actually stay in
    flight.  Returns ``(outcome, wall_seconds, pipeline, report)`` where
    ``pipeline`` is the engine's :meth:`metrics_snapshot` — the per-phase
    encode/send/blocked-wait/decode breakdown plus the machine-independent
    ``blocking_waits`` / ``rounds_enqueued`` counters the overlap guard
    pins (blocking waits per round must fall like ``1/window``).
    """
    import time

    from repro.server.scaleout import ScaleOutCluster

    messages, _queries = multiproc_streams(num_objects, num_updates * 2, seed)
    cluster = ScaleOutCluster.build(
        num_shards,
        backend=backend,
        num_workers=num_workers,
        num_objects=num_objects,
        seed=seed,
        num_servers=num_servers,
        window=window,
    )
    try:
        load_test = LoadTest(cluster, failure_probability=0.0, seed=seed)
        start = time.perf_counter()
        outcome = load_test.run_update_batches(messages, batch_size=batch_size)
        wall = time.perf_counter() - start
        pipeline = cluster.metrics_snapshot()
        report = outcome.to_report()
    finally:
        cluster.close()
    return outcome, wall, pipeline, report


def multiproc_chaos_run(
    num_workers: int,
    num_shards: int,
    num_objects: int,
    num_requests: int,
    seed: int = 59,
    chaos_seed: int = 29,
    batch_size: int = 256,
    num_servers: int = 2,
    window: int = 1,
):
    """One measured self-healing run: every worker SIGKILLed mid-workload.

    Builds the disk-backed federation under ``respawn`` supervision, drives
    the same seeded mixed stream as :func:`multiproc_load_run`, and fires a
    seeded :class:`~repro.server.chaos.ChaosPlan` that kills each of the
    ``num_workers`` forked workers at least once at a batch boundary.
    Returns ``(outcome, wall_seconds, recovery, report, chaos_applied)``
    where ``recovery`` is the supervisor's wall-clock metrics snapshot and
    ``report`` is the byte-deterministic rendering the caller compares
    against a fault-free reference run.
    """
    import time

    from repro.server.chaos import ChaosPlan
    from repro.server.scaleout import ScaleOutCluster

    messages, queries = multiproc_streams(num_objects, num_requests, seed)
    #: ``run_mixed_batches`` takes one control step per round until both
    #: streams drain, so the round count is the longer stream's batch count.
    num_batches = max(
        -(-len(messages) // batch_size), -(-len(queries) // batch_size), 2
    )
    plan = ChaosPlan.seeded(
        chaos_seed,
        num_batches=num_batches,
        num_workers=num_workers,
        kills=num_workers,
    )
    cluster = ScaleOutCluster.build(
        num_shards,
        backend="disk",
        num_workers=num_workers,
        num_objects=num_objects,
        seed=seed,
        num_servers=num_servers,
        supervision_policy="respawn",
        window=window,
    )
    try:
        load_test = LoadTest(
            cluster, failure_probability=0.0, seed=seed, chaos_plan=plan
        )
        start = time.perf_counter()
        outcome = load_test.run_mixed_batches(
            messages, queries, batch_size=batch_size
        )
        wall = time.perf_counter() - start
        recovery = cluster.recovery_snapshot()
        report = outcome.to_report()
        chaos_applied = list(load_test.chaos_applied)
    finally:
        cluster.close()
    return outcome, wall, recovery, report, chaos_applied


def multiproc_master_chaos_run(
    num_workers: int,
    num_shards: int,
    num_objects: int,
    num_requests: int,
    seed: int = 59,
    chaos_seed: int = 47,
    batch_size: int = 256,
    num_servers: int = 2,
    window: int = 1,
    rebalance_every: int = 2,
):
    """One measured supervised-master run: SIGKILL mid-migration, heal.

    The PR 10 acceptance shape: master-bearing shards under ``respawn``
    supervision, driven by a seeded :class:`~repro.server.chaos.ChaosPlan`
    that folds simulated control-plane faults (one migration aborted
    mid-flight, one server crash + revival) into the same timeline as the
    real SIGKILLs — including a kill at the *same batch boundary* as the
    migration crash, so the worker dies right after checkpointing the
    aborted hand-off.  The fault half of the schedule is drawn before the
    chaos half and never depends on the worker count, so one fault-only
    in-process reference run serves every worker count.

    Both clusters record service times so the report carries a real
    ``p99_service_time_s`` merged across shards in fixed shard order —
    and the chaos run's value must still equal the reference's.

    Returns ``(outcome, wall_seconds, recovery, report, reference_report,
    chaos_applied)``; the caller asserts ``report == reference_report``.
    """
    import time

    from repro.server.chaos import ChaosPlan
    from repro.server.master import MasterOptions
    from repro.server.scaleout import ScaleOutCluster

    messages, queries = multiproc_streams(num_objects, num_requests, seed)
    num_batches = max(
        -(-len(messages) // batch_size), -(-len(queries) // batch_size), 2
    )
    plan = ChaosPlan.seeded(
        chaos_seed,
        num_batches=num_batches,
        num_workers=num_workers,
        kills=num_workers,
        migration_crashes=1,
        server_crashes=1,
        num_servers=num_servers,
    )
    master_options = MasterOptions(replicate_read_share=0.10)
    reference_cluster = ScaleOutCluster.build(
        num_shards,
        backend="inprocess",
        num_workers=1,
        num_objects=num_objects,
        seed=seed,
        num_servers=num_servers,
        with_master=True,
        master_options=master_options,
        record_service_times=True,
    )
    try:
        reference_report = (
            LoadTest(
                reference_cluster,
                failure_probability=0.0,
                seed=seed,
                rebalance_every=rebalance_every,
                fault_plan=plan.fault_plan,
            )
            .run_mixed_batches(messages, queries, batch_size=batch_size)
            .to_report()
        )
    finally:
        reference_cluster.close()
    cluster = ScaleOutCluster.build(
        num_shards,
        backend="disk",
        num_workers=num_workers,
        num_objects=num_objects,
        seed=seed,
        num_servers=num_servers,
        supervision_policy="respawn",
        window=window,
        with_master=True,
        master_options=master_options,
        record_service_times=True,
    )
    try:
        load_test = LoadTest(
            cluster,
            failure_probability=0.0,
            seed=seed,
            rebalance_every=rebalance_every,
            chaos_plan=plan,
        )
        start = time.perf_counter()
        outcome = load_test.run_mixed_batches(
            messages, queries, batch_size=batch_size
        )
        wall = time.perf_counter() - start
        recovery = cluster.recovery_snapshot()
        report = outcome.to_report()
        chaos_applied = list(load_test.chaos_applied)
    finally:
        cluster.close()
    return outcome, wall, recovery, report, reference_report, chaos_applied


def scaleout_tablet_report(
    num_objects: int = 20000,
    num_servers: int = 5,
    num_updates: int = 10000,
    num_clients: int = 10,
    batch_size: int = 256,
    seed: int = 59,
) -> str:
    """Per-tablet accounting table for one scale-out run (console report)."""
    indexer, load_test, messages = _batched_harness(
        num_objects, num_servers, num_updates, num_clients, 0.0, seed
    )
    load_test.run_update_batches(messages, batch_size=batch_size)
    return tablet_load_report(indexer.tablet_stats())
