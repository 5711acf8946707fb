"""Tests for the moving-object simulators."""

import random

import pytest

from repro.errors import WorkloadError
from repro.workload.objects import MovingObject, ObjectKind
from repro.workload.roadnetwork import RoadNetwork


def make_object(kind=ObjectKind.CAR, seed=1, building_probability=0.05):
    network = RoadNetwork(size=100.0, block_size=25.0)
    return MovingObject(
        object_id="obj1",
        kind=kind,
        network=network,
        rng=random.Random(seed),
        building_probability=building_probability,
    )


class TestSpeeds:
    def test_pedestrian_speed_range(self):
        low, high = ObjectKind.PEDESTRIAN.speed_range()
        assert 0.0 <= low < high <= 1.0

    def test_car_speed_range(self):
        low, high = ObjectKind.CAR.speed_range()
        assert low == 1.0 and high == 2.0

    def test_object_speed_within_kind_range(self):
        for seed in range(10):
            car = make_object(ObjectKind.CAR, seed=seed)
            assert 1.0 <= car.speed <= 2.0
            pedestrian = make_object(ObjectKind.PEDESTRIAN, seed=seed)
            assert 0.0 < pedestrian.speed <= 1.0


class TestMovement:
    def test_invalid_probability_rejected(self):
        with pytest.raises(WorkloadError):
            make_object(building_probability=1.5)

    def test_negative_dt_rejected(self):
        with pytest.raises(WorkloadError):
            make_object().step(-1.0)

    def test_position_stays_on_map(self):
        moving = make_object(seed=3)
        bounds = moving.network.bounds
        for _ in range(200):
            moving.step(1.0)
            assert bounds.contains_point(moving.position())

    def test_car_moves_at_its_speed(self):
        car = make_object(ObjectKind.CAR, seed=5, building_probability=0.0)
        start = car.position()
        car.step(1.0)
        moved = start.distance_to(car.position())
        # Along a straight segment the distance equals speed; across a turn
        # it can be shorter, never longer.
        assert moved <= car.speed + 1e-9
        assert moved > 0.0

    def test_velocity_is_axis_aligned_on_roads(self):
        car = make_object(ObjectKind.CAR, seed=5, building_probability=0.0)
        velocity = car.velocity()
        assert velocity.dx == 0.0 or velocity.dy == 0.0
        assert velocity.magnitude() == pytest.approx(car.speed)

    def test_zero_building_probability_keeps_cars_on_roads(self):
        car = make_object(ObjectKind.CAR, seed=7, building_probability=0.0)
        for _ in range(100):
            car.step(1.0)
            assert car._inside is None

    def test_deterministic_given_seed(self):
        a = make_object(seed=11)
        b = make_object(seed=11)
        for _ in range(50):
            a.step(1.0)
            b.step(1.0)
        assert a.position() == b.position()


class TestBuildings:
    def test_pedestrian_eventually_enters_building(self):
        pedestrian = make_object(ObjectKind.PEDESTRIAN, seed=2, building_probability=0.5)
        entered = False
        for _ in range(300):
            pedestrian.step(1.0)
            if pedestrian._inside is not None:
                entered = True
                break
        assert entered

    def test_indoor_position_inside_footprint_and_zero_velocity(self):
        pedestrian = make_object(ObjectKind.PEDESTRIAN, seed=2, building_probability=0.9)
        for _ in range(300):
            pedestrian.step(1.0)
            if pedestrian._inside is not None:
                assert pedestrian.velocity().magnitude() == 0.0
                position = pedestrian.position()
                assert pedestrian._inside.footprint.contains_point(position)
                break
        else:
            pytest.fail("pedestrian never entered a building")

    def test_pedestrian_eventually_leaves_building(self):
        pedestrian = make_object(ObjectKind.PEDESTRIAN, seed=2, building_probability=0.5)
        was_inside = False
        left_again = False
        for _ in range(600):
            pedestrian.step(1.0)
            if pedestrian._inside is not None:
                was_inside = True
            elif was_inside:
                left_again = True
                break
        assert was_inside and left_again
