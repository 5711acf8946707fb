"""Ablation benchmarks for the design choices of :mod:`repro.experiments.ablations`.

These have no direct counterpart figure in the paper; they quantify the
design decisions the paper asserts qualitatively (Hilbert over Z-order,
hexagonal velocity bins, the FLAG level cache, and the initial-location
component of the PPP placement hash).
"""

from conftest import run_once

from repro.experiments.ablations import (
    run_curve_ablation,
    run_flag_cache_ablation,
    run_placement_ablation,
    run_shedding_ablation,
    run_velocity_partition_ablation,
)


def test_ablation_hilbert_vs_zorder(benchmark):
    result = run_once(benchmark, run_curve_ablation, levels=(6, 8, 10))
    print()
    print(result.to_table())
    hilbert = result.get_series("Hilbert").ys
    z_order = result.get_series("Z-order").ys
    assert all(h < z for h, z in zip(hilbert, z_order))


def test_ablation_hexagonal_velocity_bins(benchmark):
    result = run_once(benchmark, run_velocity_partition_ablation, max_deviation=1.0)
    print()
    print(result.to_table())
    hexagon = result.get_series("hexagon")
    square = result.get_series("square")
    # Hexagons respect the Δm bound; both partitions must, but hexagons
    # use fewer bins for the same guarantee (coarser partition, same bound).
    assert hexagon.ys[0] <= 1.0 + 1e-9
    assert square.ys[0] <= 1.0 + 1e-9
    assert hexagon.ys[1] <= square.ys[1]


def test_ablation_flag_cache(benchmark):
    result = run_once(benchmark, run_flag_cache_ablation, num_objects=20000, queries=200)
    print()
    print(result.to_table())
    cached = result.get_series("with cache").ys
    uncached = result.get_series("without cache").ys
    assert cached[0] <= uncached[0]  # fewer probe reads per query
    assert cached[1] >= 0.0          # hit ratio reported


def test_ablation_schools_vs_dead_reckoning(benchmark):
    result = run_once(
        benchmark, run_shedding_ablation, num_objects=300, duration_s=60.0
    )
    print()
    print(result.to_table())
    schools = result.get_series("object schools (MOIST)").ys
    dead_reckoning = result.get_series("dead reckoning").ys
    # Both shed updates within the same tolerance, but only object schools
    # also shrink the spatial index (the paper's cross-user contribution).
    assert schools[0] > 0.3
    assert dead_reckoning[0] > 0.3
    assert schools[1] < 0.8 * dead_reckoning[1]


def test_ablation_ppp_placement(benchmark):
    result = run_once(
        benchmark,
        run_placement_ablation,
        num_objects=200,
        records_per_object=30,
        num_disks=8,
        queries=50,
    )
    print()
    print(result.to_table())
    with_location = result.get_series("object+location hash").ys
    object_only = result.get_series("object-only hash").ys
    # Object-history queries touch few segments either way (object locality),
    # but the location component must not make them worse.
    assert with_location[0] <= object_only[0] * 1.5
