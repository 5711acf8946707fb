"""Rebalance experiment: master-balanced vs static-affinity clusters under
hot-school skew.

MOIST's deployment claim is that a BigTable-style cluster absorbs skewed
load because hot tablets can be split *and moved*.  Sharding and splitting
are the data plane's; this experiment exercises the other half — the tablet
master (:mod:`repro.server.master`) migrating hot tablets between
front-ends and replicating read-hot tablets for query fan-out.

The workload models a *hot school*: a fraction ``hot_fraction`` of all
updates and NN queries concentrates on one small region (one school's worth
of co-moving objects and the users querying around it), the rest is uniform
over the map.  Location-table writes for the school cohort and
spatial-index reads around the school both pile onto a handful of tablets;
with static hash affinity those tablets pin one front-end forever, while
the master-balanced cluster migrates them apart and fans the hot reads
out.  Per skew level the harness reports, for both cluster modes:

* combined request throughput through the batched read+write paths;
* the simulated p99 per-request service time;
* the master's control actions (migrations, replications).

The acceptance claim: master-balanced throughput stays at parity with
static affinity on balanced workloads (the control plane never hurts) and
wins clearly once the workload is school-dominated — the benchmark guard
(``benchmarks/test_bench_rebalance``) locks the high-skew ratio in.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.common import uniform_leader_indexer
from repro.experiments.report import FigureResult
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import UpdateMessage, format_object_id
from repro.server.cluster import ServerCluster
from repro.server.faults import FaultSchedule
from repro.server.loadtest import LoadTest, LoadTestResult
from repro.server.master import MasterOptions, TabletMaster
from repro.workload.queries import NNQuery

#: Centre and half-width of the hot school's region (the 1000x1000 stress
#: map of the BigTable experiments).
_SCHOOL_CENTER = Point(120.0, 140.0)
_SCHOOL_RADIUS = 40.0

#: The master policy the rebalance experiments run with: the default
#: migration policy plus an aggressive replication threshold, so read
#: fan-out engages on the hot spatial/affiliation tablets this workload
#: produces (their read shares sit around 10-15%).
REBALANCE_MASTER_OPTIONS = MasterOptions(replicate_read_share=0.10)


def hot_school_streams(
    num_objects: int,
    num_requests: int,
    hot_fraction: float,
    region_size: float = 1000.0,
    k: int = 10,
    seed: int = 59,
) -> Tuple[List[UpdateMessage], List[NNQuery]]:
    """An update stream and a query stream skewed toward one hot school.

    ``hot_fraction`` of the updates move the school cohort (the first 5% of
    object ids — a contiguous Location-table key range) inside the school's
    region, and the same fraction of queries centre there; everything else
    is uniform.  Both streams are half of ``num_requests``.
    """
    if not 0.0 <= hot_fraction <= 1.0:
        raise ConfigurationError("hot_fraction must be in [0, 1]")
    rng = random.Random(seed)
    cohort = max(num_objects // 20, 1)

    def hot_point() -> Point:
        return Point(
            _SCHOOL_CENTER.x + rng.uniform(-_SCHOOL_RADIUS, _SCHOOL_RADIUS),
            _SCHOOL_CENTER.y + rng.uniform(-_SCHOOL_RADIUS, _SCHOOL_RADIUS),
        )

    def uniform_point() -> Point:
        return Point(rng.uniform(0.0, region_size), rng.uniform(0.0, region_size))

    half = num_requests // 2
    messages: List[UpdateMessage] = []
    for index in range(half):
        if rng.random() < hot_fraction:
            object_id = format_object_id(rng.randrange(cohort))
            location = hot_point()
        else:
            object_id = format_object_id(rng.randrange(num_objects))
            location = uniform_point()
        messages.append(
            UpdateMessage(
                object_id=object_id,
                location=location,
                velocity=Vector(1.0, 0.5),
                timestamp=float(index) / 10.0,
            )
        )
    queries = [
        NNQuery(
            location=hot_point() if rng.random() < hot_fraction else uniform_point(),
            k=k,
        )
        for _ in range(half)
    ]
    return messages, queries


def rebalance_harness(
    num_objects: int,
    num_servers: int,
    balanced: bool,
    seed: int = 59,
    rebalance_every: int = 4,
    faults: Optional[FaultSchedule] = None,
    record_service_times: bool = True,
):
    """A preloaded cluster in one of the two compared modes.

    ``balanced=False`` is a cluster without a control plane: tablet routing
    by static hash affinity.  ``balanced=True`` attaches a
    :class:`TabletMaster` that rebalances every ``rebalance_every`` batches
    (and fires ``faults`` when given).  Returns
    ``(indexer, cluster, master, load_test)``.
    """
    indexer = uniform_leader_indexer(num_objects, seed=seed)
    cluster = ServerCluster(
        indexer,
        num_servers=num_servers,
        record_service_times=record_service_times,
    )
    master = (
        TabletMaster(cluster, REBALANCE_MASTER_OPTIONS) if balanced else None
    )
    load_test = LoadTest(
        cluster,
        failure_probability=0.0,
        seed=seed,
        rebalance_every=rebalance_every if balanced else 0,
        faults=faults if balanced else None,
    )
    return indexer, cluster, master, load_test


def measure_rebalance(
    hot_fraction: float,
    balanced: bool,
    num_objects: int = 4000,
    num_servers: int = 5,
    num_requests: int = 4000,
    batch_size: int = 256,
    seed: int = 59,
) -> LoadTestResult:
    """One hot-school run in one cluster mode (simulated numbers only)."""
    _, _, _, load_test = rebalance_harness(
        num_objects, num_servers, balanced, seed=seed
    )
    messages, queries = hot_school_streams(
        num_objects, num_requests, hot_fraction, seed=seed
    )
    return load_test.run_mixed_batches(messages, queries, batch_size=batch_size)


def run_rebalance(
    hot_fractions: Sequence[float] = (0.0, 0.5, 0.9),
    num_objects: int = 4000,
    num_servers: int = 5,
    num_requests: int = 4000,
    batch_size: int = 256,
    seed: int = 59,
) -> FigureResult:
    """Throughput and p99 service time vs skew, static vs master-balanced."""
    result = FigureResult(
        figure_id="rebalance",
        title=(
            "Master-balanced vs static-affinity cluster under hot-school skew"
        ),
        x_label="hot-school request fraction",
        y_label="requests per second (simulated)",
    )
    static_qps: List[float] = []
    master_qps: List[float] = []
    static_p99: List[float] = []
    master_p99: List[float] = []
    migrations: List[float] = []
    replications: List[float] = []
    for fraction in hot_fractions:
        static = measure_rebalance(
            fraction,
            balanced=False,
            num_objects=num_objects,
            num_servers=num_servers,
            num_requests=num_requests,
            batch_size=batch_size,
            seed=seed,
        )
        master = measure_rebalance(
            fraction,
            balanced=True,
            num_objects=num_objects,
            num_servers=num_servers,
            num_requests=num_requests,
            batch_size=batch_size,
            seed=seed,
        )
        static_qps.append(static.qps)
        master_qps.append(master.qps)
        static_p99.append(static.p99_service_time_s * 1e3)
        master_p99.append(master.p99_service_time_s * 1e3)
        migrations.append(float(master.migrations))
        replications.append(float(master.replications))
    fractions = list(hot_fractions)
    result.add_series("static QPS", fractions, static_qps)
    result.add_series("master QPS", fractions, master_qps)
    result.add_series("static p99 ms", fractions, static_p99)
    result.add_series("master p99 ms", fractions, master_p99)
    result.add_series("migrations", fractions, migrations)
    result.add_series("replicas added", fractions, replications)
    if static_qps and master_qps:
        peak = max(
            master / static if static > 0 else 1.0
            for static, master in zip(static_qps, master_qps)
        )
        result.add_note(
            f"{num_servers} servers, {num_requests} mixed requests; the "
            f"master rebalances every 4 batches (migrate hot tablets, "
            f"replicate read-hot ones); peak master/static throughput "
            f"ratio {peak:.2f}x"
        )
    result.add_note(
        "hot-school workload: the skewed fraction of updates moves one 5% "
        "object cohort inside a 80x80 school region and the same fraction "
        "of NN queries centres there; migration costs are priced on the "
        "durability ledger, so per-request service times stay comparable"
    )
    return result
