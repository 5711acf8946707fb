"""Figure 11: influence of the clustering frequency on NN query throughput.

The paper's setup: 20k objects, initially 1k leaders; with every object
updating its location the number of leaders grows linearly back toward the
population size — reaching 20k in 30 s for setting A (highly dynamic) and in
60 s for setting B (relatively fixed).  A clustering pass collapses the
leaders back to the initial 1k.  More frequent clustering keeps the Spatial
Index Table small (faster NN queries) but spends more time clustering; the
figure shows NN QPS against the clustering frequency, with the no-clustering
throughput as a horizontal baseline.

We reproduce the experiment the same way the paper frames it: the *leader
growth* is the assumed linear process, while the NN query cost and the
clustering cost at any leader count are measured on a real index built with
that many leaders (sampled and interpolated).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.config import MoistConfig
from repro.experiments.common import uniform_leader_indexer
from repro.experiments.fig10_clustering import measure_clustering_latency
from repro.experiments.report import FigureResult
from repro.geometry.bbox import BoundingBox


def measure_nn_cost_per_leader_count(
    leader_counts: Sequence[int],
    k: int = 10,
    queries: int = 20,
    region_size: float = 1000.0,
    seed: int = 31,
) -> Dict[int, float]:
    """Simulated seconds per NN query for each indexed leader count."""
    costs: Dict[int, float] = {}
    config = MoistConfig(
        world=BoundingBox(0.0, 0.0, region_size, region_size), storage_level=12
    )
    for count in leader_counts:
        indexer = uniform_leader_indexer(count, region_size=region_size, seed=seed, config=config)
        rng_points = [
            indexer.config.world.center().translated(
                (index - queries / 2) * region_size / (queries * 2), 0.0
            )
            for index in range(queries)
        ]
        before = indexer.emulator.counter.simulated_seconds
        for point in rng_points:
            indexer.nearest_neighbors(point, k, use_flag=True)
        elapsed = indexer.emulator.counter.simulated_seconds - before
        costs[count] = elapsed / queries
    return costs


def _interpolate_cost(costs: Dict[int, float], leaders: float) -> float:
    """Piecewise-linear interpolation of the measured NN query cost."""
    points = sorted(costs.items())
    if leaders <= points[0][0]:
        return points[0][1]
    if leaders >= points[-1][0]:
        return points[-1][1]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= leaders <= x1:
            fraction = (leaders - x0) / (x1 - x0)
            return y0 + fraction * (y1 - y0)
    return points[-1][1]


def simulate_nn_qps(
    clustering_frequency_hz: float,
    growth_seconds: float,
    nn_costs: Dict[int, float],
    clustering_seconds: float,
    initial_leaders: int = 1000,
    total_objects: int = 20000,
    horizon_s: float = 60.0,
) -> float:
    """NN QPS over ``horizon_s`` for one clustering frequency.

    Between clusterings the leader count grows linearly from
    ``initial_leaders`` toward ``total_objects`` over ``growth_seconds``;
    each clustering costs ``clustering_seconds`` of server time and resets
    the leader count.  The server spends the rest of its time answering NN
    queries whose cost depends on the current leader count.
    """
    if clustering_frequency_hz < 0:
        raise ValueError("clustering_frequency_hz must be non-negative")
    growth_rate = (total_objects - initial_leaders) / growth_seconds
    if clustering_frequency_hz == 0:
        period = horizon_s
    else:
        period = 1.0 / clustering_frequency_hz
    time_left = horizon_s
    queries_answered = 0.0
    while time_left > 1e-9:
        interval = min(period, time_left)
        cluster_cost = clustering_seconds if clustering_frequency_hz > 0 else 0.0
        query_time = max(interval - cluster_cost, 0.0)
        # Integrate query throughput over the interval in 1-second slices as
        # the leader count (and therefore the per-query cost) drifts upward.
        elapsed = 0.0
        while elapsed < query_time - 1e-9:
            slice_s = min(1.0, query_time - elapsed)
            leaders = min(
                initial_leaders + growth_rate * elapsed, float(total_objects)
            )
            cost = _interpolate_cost(nn_costs, leaders)
            if cost > 0:
                queries_answered += slice_s / cost
            elapsed += slice_s
        time_left -= interval
    return queries_answered / horizon_s


def run_fig11(
    frequencies_hz: Sequence[float] = (0.0, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0),
    initial_leaders: int = 500,
    total_objects: int = 5000,
    k: int = 10,
) -> FigureResult:
    """NN QPS vs clustering frequency for settings A (30 s) and B (60 s).

    Scaled to 5k objects / 500 initial leaders so the harness runs in
    seconds; the growth-time ratio between the two settings (and therefore
    the position of the optimum) matches the paper's 30 s vs 60 s setup.
    """
    sample_counts = sorted(
        {
            initial_leaders,
            (initial_leaders + total_objects) // 4,
            (initial_leaders + total_objects) // 2,
            total_objects,
        }
    )
    nn_costs = measure_nn_cost_per_leader_count(sample_counts, k=k)
    clustering_report = measure_clustering_latency(
        pre_leaders=total_objects, post_leaders=initial_leaders
    )
    clustering_seconds = clustering_report.total_seconds

    result = FigureResult(
        figure_id="fig11",
        title="NN QPS vs clustering frequency",
        x_label="clusterings per second",
        y_label="NN QPS (simulated)",
    )
    for label, growth_seconds in (("setting A (30s growth)", 30.0), ("setting B (60s growth)", 60.0)):
        ys: List[float] = []
        for frequency in frequencies_hz:
            ys.append(
                simulate_nn_qps(
                    frequency,
                    growth_seconds,
                    nn_costs,
                    clustering_seconds,
                    initial_leaders=initial_leaders,
                    total_objects=total_objects,
                )
            )
        result.add_series(label, list(frequencies_hz), ys)
    baseline = simulate_nn_qps(
        0.0,
        30.0,
        nn_costs,
        clustering_seconds,
        initial_leaders=total_objects,
        total_objects=total_objects,
    )
    result.add_series("no clustering", list(frequencies_hz), [baseline] * len(frequencies_hz))
    result.add_note(
        f"scaled to {total_objects} objects / {initial_leaders} initial leaders; "
        "NN cost per leader count and clustering latency are measured on real indexes"
    )
    return result
