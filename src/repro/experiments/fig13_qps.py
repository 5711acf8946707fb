"""Figure 13: update throughput of the BigTable-backed indexer.

* 13(a) — update QPS of a single front-end server against the number of
  indexed moving objects (the paper sweeps 400k-1M and reports ~7,875
  updates/s at 1M objects).
* 13(b) — update QPS over time with 5 servers sharing one BigTable.
* 13(c) — update QPS over time with 10 servers.
* 13(d) (extension) — mixed update/query throughput with the query
  fraction swept 0→1 through the batched read and write paths (see
  :mod:`repro.experiments.mixed`).

The experiments run MOIST in its worst-case configuration (schools disabled,
every object a leader) exactly as the paper does for its BigTable stress
tests.  QPS is simulated throughput: requests divided by the busiest
server's accumulated simulated service time (README *Architecture*).
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import uniform_leader_indexer
from repro.experiments.report import FigureResult
from repro.server.cluster import ServerCluster
from repro.server.loadtest import LoadTest, LoadTestResult


def measure_update_qps(
    num_objects: int,
    num_servers: int = 1,
    num_updates: int = 5000,
    num_clients: int = 10,
    failure_probability: float = 0.0,
    seed: int = 59,
) -> LoadTestResult:
    """Preload ``num_objects`` and measure update QPS over random updates."""
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
    return load_test.run_updates(messages, bucket_requests=max(num_updates // 40, 100))


def run_fig13a(
    object_counts: Sequence[int] = (20000, 50000, 100000),
    num_updates: int = 5000,
    seed: int = 59,
) -> FigureResult:
    """Single-server update QPS vs number of indexed objects."""
    result = FigureResult(
        figure_id="fig13a",
        title="Single-server update QPS vs indexed objects",
        x_label="indexed objects",
        y_label="updates per second (simulated)",
    )
    qps_values = []
    latency_values = []
    tablet_counts = []
    hot_shares = []
    for count in object_counts:
        outcome = measure_update_qps(
            count, num_servers=1, num_updates=num_updates, seed=seed
        )
        qps_values.append(outcome.qps)
        latency_values.append(outcome.mean_latency_s * 1e3)
        tablet_counts.append(float(outcome.tablet_count))
        hot_shares.append(outcome.hot_tablet_share)
    result.add_series("update QPS", list(object_counts), qps_values)
    result.add_series("mean latency (ms)", list(object_counts), latency_values)
    result.add_series("tablets", list(object_counts), tablet_counts)
    result.add_note(
        "population scaled down from the paper's 400k-1M for wall-clock reasons; "
        "QPS is nearly flat in the population size, which is the claim under test"
    )
    if hot_shares:
        result.add_note(
            f"tables shard under the default split threshold; hottest tablet served "
            f"{hot_shares[-1]:.1%} of storage time at the largest population"
        )
    return result


def run_fig13_multiserver(
    num_servers: int,
    num_objects: int = 50000,
    num_updates: int = 20000,
    num_clients: int = 50,
    failure_probability: float = 0.002,
    seed: int = 59,
) -> FigureResult:
    """Update QPS timeline for a multi-server deployment (Figures 13b/13c)."""
    outcome = measure_update_qps(
        num_objects,
        num_servers=num_servers,
        num_updates=num_updates,
        num_clients=num_clients,
        failure_probability=failure_probability,
        seed=seed,
    )
    result = FigureResult(
        figure_id=f"fig13-{num_servers}servers",
        title=f"Update QPS timeline with {num_servers} servers",
        x_label="simulated time (s)",
        y_label="updates per second",
    )
    times = [point.time_s for point in outcome.timeline]
    result.add_series("QPS", times, [point.qps for point in outcome.timeline])
    result.add_series(
        "failed QPS", times, [point.failed_qps for point in outcome.timeline]
    )
    result.add_series("average QPS", times, [outcome.qps] * len(times))
    result.add_note(
        f"overall average QPS = {outcome.qps:.0f}, "
        f"{outcome.failed_requests} failed requests excluded from the numerator"
    )
    return result


def run_fig13b(**kwargs) -> FigureResult:
    """Figure 13(b): five servers sharing one BigTable."""
    return run_fig13_multiserver(5, **kwargs)


def run_fig13c(**kwargs) -> FigureResult:
    """Figure 13(c): ten servers sharing one BigTable."""
    return run_fig13_multiserver(10, **kwargs)


def run_fig13d_mixed(
    query_fractions: Sequence[float] = (0.0, 0.5, 1.0),
    num_objects: int = 20000,
    num_requests: int = 5000,
    seed: int = 59,
) -> FigureResult:
    """Figure 13 extension: mixed update/query QPS through both batched
    paths, with the block-cache hit rate of the query side."""
    from repro.experiments.mixed import run_mixed

    result = run_mixed(
        query_fractions=query_fractions,
        num_objects=num_objects,
        num_requests=num_requests,
        seed=seed,
    )
    result.figure_id = "fig13d-mixed"
    return result


def measure_speedup(
    num_objects: int = 20000, num_updates: int = 5000, seed: int = 59
) -> FigureResult:
    """Speedup of 5- and 10-server clusters over a single server."""
    result = FigureResult(
        figure_id="fig13-speedup",
        title="Multi-server speedup over a single server",
        x_label="servers",
        y_label="speedup",
    )
    single = measure_update_qps(
        num_objects, num_servers=1, num_updates=num_updates, seed=seed
    )
    servers = [1, 5, 10]
    speedups = []
    qps_values = []
    for count in servers:
        if count == 1:
            outcome = single
        else:
            outcome = measure_update_qps(
                num_objects, num_servers=count, num_updates=num_updates, seed=seed
            )
        qps_values.append(outcome.qps)
        speedups.append(outcome.qps / single.qps if single.qps > 0 else 0.0)
    result.add_series("update QPS", servers, qps_values)
    result.add_series("speedup", servers, speedups)
    result.add_note("the paper reports close-to-optimal speedups (5x and ~8x-10x)")
    return result
