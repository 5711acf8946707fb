"""Command-line interface: ``python -m repro <command>``.

Three commands cover the common entry points without writing any code:

* ``demo``     — run the quickstart scenario and print its summary;
* ``figures``  — regenerate (scaled-down) evaluation figures;
* ``info``     — print the library version and the active default config.
"""

from __future__ import annotations

import argparse
from dataclasses import fields
from typing import List, Optional

from repro import MoistConfig, __version__


def _cmd_info(_args: argparse.Namespace) -> int:
    config = MoistConfig()
    print(f"repro (MOIST reproduction) version {__version__}")
    print("default MoistConfig:")
    for field in fields(config):
        print(f"  {field.name} = {getattr(config, field.name)}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.moist import MoistIndexer
    from repro.geometry.bbox import BoundingBox
    from repro.geometry.point import Point
    from repro.workload.generator import RoadNetworkWorkload, WorkloadConfig

    map_size = 300.0
    config = MoistConfig(
        world=BoundingBox(0.0, 0.0, map_size, map_size),
        storage_level=12,
        clustering_cell_level=1,
        deviation_threshold=20.0,
    )
    indexer = MoistIndexer(config)
    workload = RoadNetworkWorkload(
        WorkloadConfig(
            num_objects=args.objects,
            map_size=map_size,
            block_size=30.0,
            min_update_interval_s=1.0,
            max_update_interval_s=1.0,
            seed=args.seed,
        )
    )
    for batch in workload.run(duration_s=args.duration, step_s=1.0):
        for message in batch:
            indexer.update(message)
        indexer.run_due_clustering(now=workload.now)
    print(f"objects        : {indexer.object_count}")
    print(f"object schools : {indexer.school_count}")
    print(f"updates        : {indexer.update_stats.total}")
    print(f"shed ratio     : {indexer.shed_ratio():.1%}")
    print(f"simulated time : {indexer.simulated_seconds * 1e3:.1f} ms of storage work")
    print(f"tablets        : {indexer.emulator.tablet_count()} across the three tables")
    print(f"hot tablet     : {indexer.emulator.hot_tablet_share():.1%} of storage time")
    nearest = indexer.nearest_neighbors(Point(map_size / 2, map_size / 2), k=3)
    print("3 nearest objects to the map centre:")
    for neighbor in nearest:
        print(f"  {neighbor.object_id}  distance {neighbor.distance:.1f}")
    return 0


def _mixed_outputs(sweep) -> list:
    """Figure plus the per-tablet cache report captured from the sweep."""
    return [sweep.figure, sweep.cache_report]


def _run_figures_inline(names: List[str]) -> int:
    """Dispatch to the experiment harnesses without importing examples/."""
    from repro.experiments.fig09_schools import run_fig09a, run_fig09b, run_fig09c
    from repro.experiments.fig10_clustering import run_fig10a, run_fig10b
    from repro.experiments.fig11_cluster_frequency import run_fig11
    from repro.experiments.fig12_flag import run_fig12_density, run_fig12_range
    from repro.experiments.fig13_qps import (
        measure_speedup,
        run_fig13a,
        run_fig13d_mixed,
    )
    from repro.experiments.headline import run_headline
    from repro.experiments.mixed import run_mixed_sweep
    from repro.experiments.rebalance import run_rebalance
    from repro.experiments.recovery import run_recovery
    from repro.experiments.scaleout import run_scaleout

    catalogue = {
        "fig09": lambda: [
            run_fig09a(epsilons=(1.0, 10.0, 40.0), num_objects=60, duration_s=30.0),
            run_fig09b(object_counts=(50, 150, 300), duration_s=30.0),
            run_fig09c(duration_s=60.0, num_objects=60),
        ],
        "fig10": lambda: [
            run_fig10a(pre_leader_counts=(200, 500, 1000), post_leaders=50),
            run_fig10b(post_leader_counts=(20, 100, 500), pre_leaders=1000),
        ],
        "fig11": lambda: [
            run_fig11(frequencies_hz=(0.0, 0.05, 0.1, 0.5, 1.0), initial_leaders=200, total_objects=2000)
        ],
        "fig12": lambda: [
            run_fig12_range(range_limits=(20.0, 60.0, 100.0), num_objects=5000),
            run_fig12_density(object_counts=(1000, 10000, 50000)),
        ],
        "fig13": lambda: [
            run_fig13a(object_counts=(5000, 20000), num_updates=3000),
            measure_speedup(num_objects=5000, num_updates=3000),
            run_fig13d_mixed(
                query_fractions=(0.0, 0.5, 1.0), num_objects=5000, num_requests=2000
            ),
        ],
        "headline": lambda: [
            run_headline(num_objects=5000, num_updates=3000, shed_objects=400)
        ],
        "scaleout": lambda: [
            run_scaleout(server_counts=(1, 2, 5), num_objects=5000, num_updates=3000)
        ],
        "mixed": lambda: _mixed_outputs(
            run_mixed_sweep(
                query_fractions=(0.0, 0.25, 0.5, 0.75, 1.0),
                num_objects=5000,
                num_requests=3000,
            )
        ),
        "recovery": lambda: [
            run_recovery(
                memtable_sizes=(256, 512, 1024, None),
                num_objects=3000,
                num_updates=4000,
            )
        ],
        "rebalance": lambda: [
            run_rebalance(
                hot_fractions=(0.0, 0.5, 0.9),
                num_objects=4000,
                num_requests=4000,
            )
        ],
    }
    requested = names or list(catalogue)
    unknown = [name for name in requested if name not in catalogue]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}")
        print(f"available: {', '.join(catalogue)}")
        return 1
    for name in requested:
        print(f"=== {name} ===")
        for figure in catalogue[name]():
            # Harnesses return FigureResults; console reports (per-tablet
            # cache hit rates) come back as preformatted text.
            print(figure.to_table() if hasattr(figure, "to_table") else figure)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MOIST reproduction: demo, figure regeneration and configuration info.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    info = subparsers.add_parser("info", help="print version and default configuration")
    info.set_defaults(handler=_cmd_info)

    demo = subparsers.add_parser("demo", help="run a small end-to-end demo")
    demo.add_argument("--objects", type=int, default=200, help="number of moving objects")
    demo.add_argument("--duration", type=float, default=60.0, help="simulated seconds")
    demo.add_argument("--seed", type=int, default=7, help="workload random seed")
    demo.set_defaults(handler=_cmd_demo)

    figures = subparsers.add_parser(
        "figures", help="regenerate scaled-down evaluation figures"
    )
    figures.add_argument(
        "names",
        nargs="*",
        help=(
            "figures to run (fig09 fig10 fig11 fig12 fig13 headline scaleout "
            "mixed recovery rebalance); default: all"
        ),
    )
    figures.set_defaults(handler=lambda args: _run_figures_inline(args.names))

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
