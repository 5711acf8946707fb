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
from repro.experiments.report import FigureResult
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
    """Setup of a scale-out run: a tablet-routing cluster over a preloaded
    leader indexer, and the client fleet's update stream."""
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
    return load_test, messages


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
    load_test, messages = _batched_harness(
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
