"""Figure 9: impact of parameters on the average number of object schools.

* 9(a) — average #OSes vs the deviation threshold ε, for three speed
  distributions (the paper plots three curves for different speed settings).
* 9(b) — average #OSes vs the total number of objects.
* 9(c) — #OSes over time, showing the variance stays bounded with a
  clustering interval of Tc = 10 s.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.core.moist import MoistIndexer
from repro.experiments.common import (
    dense_road_config,
    drive_indexer,
    mean,
    school_config,
)
from repro.experiments.report import FigureResult
from repro.workload.generator import RoadNetworkWorkload

#: The three speed distributions plotted in Figure 9(a): pedestrians only,
#: an even mix, and cars only.
SPEED_DISTRIBUTIONS = (
    ("pedestrians (0-1 u/s)", 1.0),
    ("mixed (50% cars)", 0.5),
    ("cars (1-2 u/s)", 0.0),
)


def average_school_count(
    num_objects: int,
    deviation_threshold: float,
    pedestrian_fraction: float = 0.5,
    duration_s: float = 60.0,
    seed: int = 3,
    clustering_interval_s: float = 10.0,
) -> float:
    """Average number of schools after a 20 s warm-up for one configuration."""
    config = school_config(
        deviation_threshold=deviation_threshold,
        clustering_interval_s=clustering_interval_s,
    )
    workload_config = replace(
        dense_road_config(num_objects, seed=seed),
        pedestrian_fraction=pedestrian_fraction,
    )
    indexer = MoistIndexer(config)
    workload = RoadNetworkWorkload(workload_config)
    samples = drive_indexer(indexer, workload, duration_s)
    settled = [count for time_s, count in samples if time_s >= 20.0]
    return mean(settled)


def run_fig09a(
    epsilons: Sequence[float] = (1.0, 5.0, 10.0, 20.0, 40.0),
    num_objects: int = 100,
    duration_s: float = 60.0,
    seed: int = 3,
) -> FigureResult:
    """Average #OSes vs deviation threshold ε for three speed distributions."""
    result = FigureResult(
        figure_id="fig9a",
        title="Average number of object schools vs deviation threshold",
        x_label="epsilon",
        y_label="avg #OS",
    )
    for label, pedestrian_fraction in SPEED_DISTRIBUTIONS:
        ys = [
            average_school_count(
                num_objects,
                epsilon,
                pedestrian_fraction=pedestrian_fraction,
                duration_s=duration_s,
                seed=seed,
            )
            for epsilon in epsilons
        ]
        result.add_series(label, list(epsilons), ys)
    result.add_note(
        f"{num_objects} objects, 1 update/s, dense road map"
    )
    return result


def run_fig09b(
    object_counts: Sequence[int] = (100, 200, 400, 700, 1000),
    deviation_threshold: float = 20.0,
    duration_s: float = 60.0,
    seed: int = 3,
) -> FigureResult:
    """Average #OSes (and shed ratio) vs the total number of objects."""
    result = FigureResult(
        figure_id="fig9b",
        title="Average number of object schools vs number of objects",
        x_label="objects",
        y_label="avg #OS",
    )
    school_counts = []
    shed_ratios = []
    for count in object_counts:
        config = school_config(deviation_threshold=deviation_threshold)
        indexer = MoistIndexer(config)
        workload = RoadNetworkWorkload(dense_road_config(count, seed=seed))
        samples = drive_indexer(indexer, workload, duration_s)
        settled = [value for time_s, value in samples if time_s >= duration_s / 3]
        school_counts.append(mean(settled))
        shed_ratios.append(indexer.shed_ratio())
    result.add_series("avg #OS", list(object_counts), school_counts)
    result.add_series("shed ratio", list(object_counts), shed_ratios)
    result.add_note(
        "the paper reports ~90% shed at 1,000 objects; the shed-ratio series "
        "tracks how close this configuration gets"
    )
    return result


def run_fig09c(
    duration_s: float = 120.0,
    num_objects: int = 100,
    clustering_interval_s: float = 10.0,
    seed: int = 3,
) -> FigureResult:
    """Number of object schools over time (variance check, Tc = 10 s)."""
    config = school_config(clustering_interval_s=clustering_interval_s)
    indexer = MoistIndexer(config)
    workload = RoadNetworkWorkload(dense_road_config(num_objects, seed=seed))
    samples = drive_indexer(indexer, workload, duration_s)
    result = FigureResult(
        figure_id="fig9c",
        title="Number of object schools over time",
        x_label="time_s",
        y_label="#OS",
    )
    result.add_series(
        "#OS", [time_s for time_s, _ in samples], [count for _, count in samples]
    )
    settled = [count for time_s, count in samples if time_s >= duration_s / 3]
    if settled:
        spread = max(settled) - min(settled)
        result.add_note(
            f"post-warmup spread of #OS = {spread} (paper: variance stays within "
            f"~10 for Tc = {clustering_interval_s:.0f}s)"
        )
    return result
