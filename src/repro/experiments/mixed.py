"""Mixed read/write scale-out experiment: the read path under load.

Figure 13 stresses the write path; this experiment extends it along the
axis the query execution layer opens up.  A cluster of front-end servers
serves interleaved batches of location updates (tablet-routed group
commits) and NN queries (tablet-pinned batches with shared cell scans),
with the query fraction swept from an all-write to an all-read workload.
Per fraction the harness reports:

* combined request QPS through both batched paths;
* the block-cache hit rate of the query side's cell scans;
* the hottest tablet's share of storage time, now fed by reads and writes
  symmetrically through the contention model.

The qualitative claims under test: queries ride the same tablet machinery
as updates without collapsing throughput (the paper's Section 4.3 mixed
workloads), and a spatially concentrated query stream is progressively
served from the block cache instead of re-scanning cold rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.common import uniform_leader_indexer
from repro.experiments.report import FigureResult, cache_hit_report
from repro.server.cluster import ServerCluster
from repro.server.loadtest import LoadTest
from repro.workload.queries import NNQueryWorkload


@dataclass(frozen=True)
class MixedSweepOutcome:
    """One mixed sweep: the figure plus the per-tablet cache report
    captured from the run whose query fraction was closest to one half."""

    figure: FigureResult
    cache_report: str


def _mixed_harness(
    num_objects: int,
    num_servers: int,
    num_requests: int,
    query_fraction: float,
    num_clients: int,
    k: int,
    seed: int,
):
    """Preloaded indexer, tablet-routing cluster and the two request
    streams whose relative sizes realise ``query_fraction``."""
    if not 0.0 <= query_fraction <= 1.0:
        raise ValueError("query_fraction must be in [0, 1]")
    indexer = uniform_leader_indexer(num_objects, seed=seed)
    cluster = ServerCluster(indexer, num_servers=num_servers)
    load_test = LoadTest.with_fleet(
        cluster,
        num_clients=num_clients,
        total_objects=num_objects,
        failure_probability=0.0,
        seed=seed,
    )
    num_queries = int(num_requests * query_fraction)
    num_updates = num_requests - num_queries
    messages = []
    if num_updates > 0:
        # Spread the exact update count over the fleet (remainder to the
        # first clients) so the realised mix matches ``query_fraction``.
        base, extra = divmod(num_updates, max(len(load_test.clients), 1))
        for index, client in enumerate(load_test.clients):
            count = base + (1 if index < extra else 0)
            if count > 0:
                messages.extend(client.burst(1.0, count))
    region = indexer.config.world
    queries = (
        NNQueryWorkload(region, k=k, seed=seed).batch(num_queries)
        if num_queries > 0
        else []
    )
    return indexer, load_test, messages, queries


def run_mixed_sweep(
    query_fractions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    num_objects: int = 20000,
    num_servers: int = 5,
    num_requests: int = 8000,
    num_clients: int = 10,
    batch_size: int = 256,
    k: int = 10,
    seed: int = 59,
) -> MixedSweepOutcome:
    """Mixed-workload QPS, cache hit rate and tablet skew vs query fraction.

    The per-tablet cache report is captured from the swept run whose query
    fraction lies closest to 0.5 (among fractions that issue any queries),
    so printing it costs no extra simulation.
    """
    result = FigureResult(
        figure_id="mixed",
        title="Mixed update/query QPS vs query fraction (batched read+write paths)",
        x_label="query fraction",
        y_label="requests per second (simulated)",
    )
    qps_values: List[float] = []
    hit_rates: List[float] = []
    hot_shares: List[float] = []
    report = "(no query fraction swept)\n"
    report_fraction = None
    for fraction in query_fractions:
        indexer, load_test, messages, queries = _mixed_harness(
            num_objects,
            num_servers,
            num_requests,
            fraction,
            num_clients,
            k,
            seed,
        )
        outcome = load_test.run_mixed_batches(
            messages, queries, batch_size=batch_size
        )
        qps_values.append(outcome.qps)
        hit_rates.append(outcome.cache_hit_rate)
        hot_shares.append(outcome.hot_tablet_share)
        if fraction > 0.0 and (
            report_fraction is None
            or abs(fraction - 0.5) < abs(report_fraction - 0.5)
        ):
            report_fraction = fraction
            report = cache_hit_report(indexer.emulator.block_cache_stats())
    fractions = list(query_fractions)
    result.add_series("mixed QPS", fractions, qps_values)
    result.add_series("cache hit rate", fractions, hit_rates)
    result.add_series("hot tablet share", fractions, hot_shares)
    result.add_note(
        f"{num_servers} servers; updates batch-routed by Location tablet, "
        f"queries batch-pinned to their Spatial Index tablet with shared "
        f"cell scans (batch size {batch_size}, k={k})"
    )
    if hit_rates:
        result.add_note(
            f"block-cache hit rate grows with the read share "
            f"(up to {max(hit_rates):.1%}); see `figures mixed` for the "
            f"per-tablet breakdown"
        )
    return MixedSweepOutcome(figure=result, cache_report=report)


def run_mixed(
    query_fractions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    num_objects: int = 20000,
    num_servers: int = 5,
    num_requests: int = 8000,
    batch_size: int = 256,
    k: int = 10,
    seed: int = 59,
) -> FigureResult:
    """Mixed-workload QPS, cache hit rate and tablet skew vs query fraction."""
    return run_mixed_sweep(
        query_fractions=query_fractions,
        num_objects=num_objects,
        num_servers=num_servers,
        num_requests=num_requests,
        batch_size=batch_size,
        k=k,
        seed=seed,
    ).figure
