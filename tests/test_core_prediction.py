"""Tests for trajectory prediction and Viterbi smoothing."""

import random

import pytest

from repro.core.prediction import LinearPredictor, ViterbiSmoother
from repro.errors import QueryError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import LocationRecord

from helpers import make_update

WORLD = BoundingBox(0.0, 0.0, 100.0, 100.0)


def straight_records(steps=6, speed=2.0, noise=0.0, seed=3):
    rng = random.Random(seed)
    records = []
    for step in range(steps):
        records.append(
            LocationRecord(
                location=Point(
                    10.0 + speed * step + rng.gauss(0.0, noise),
                    50.0 + rng.gauss(0.0, noise),
                ),
                velocity=Vector(speed, 0.0),
                timestamp=float(step),
            )
        )
    return records


class TestLinearPredictor:
    def test_needs_records(self):
        with pytest.raises(QueryError):
            LinearPredictor([])

    def test_single_record_uses_reported_velocity(self):
        record = LocationRecord(Point(10.0, 10.0), Vector(3.0, 0.0), 0.0)
        predicted = LinearPredictor([record]).predict(2.0)
        assert predicted.location == Point(16.0, 10.0)
        assert predicted.velocity == Vector(3.0, 0.0)

    def test_fitted_velocity_matches_straight_motion(self):
        predictor = LinearPredictor(straight_records(speed=2.0))
        velocity = predictor.fitted_velocity()
        assert velocity.dx == pytest.approx(2.0, abs=1e-9)
        assert velocity.dy == pytest.approx(0.0, abs=1e-9)

    def test_prediction_extends_straight_motion(self):
        predictor = LinearPredictor(straight_records(steps=5, speed=2.0))
        predicted = predictor.predict(10.0)
        # Last record is at t=4, x=18; six more seconds at 2 u/s -> x=30.
        assert predicted.location.x == pytest.approx(30.0, abs=1e-9)
        assert predicted.location.y == pytest.approx(50.0, abs=1e-9)

    def test_noisy_fit_beats_last_reported_velocity(self):
        # The reported instantaneous velocities are wrong (zero); the fitted
        # velocity recovers the true drift from positions.
        records = [
            LocationRecord(Point(10.0 + 2.0 * t, 50.0), Vector(0.0, 0.0), float(t))
            for t in range(6)
        ]
        predicted = LinearPredictor(records).predict(6.0)
        assert predicted.location.x == pytest.approx(22.0, abs=1e-6)

    def test_records_sorted_internally(self):
        records = list(reversed(straight_records(steps=4, speed=1.0)))
        predictor = LinearPredictor(records)
        assert predictor.records[0].timestamp < predictor.records[-1].timestamp


class TestViterbiSmoother:
    def test_invalid_parameters(self):
        with pytest.raises(QueryError):
            ViterbiSmoother(candidate_radius=-1)
        with pytest.raises(QueryError):
            ViterbiSmoother(max_speed=0.0)

    def test_empty_input(self):
        assert ViterbiSmoother(world=WORLD).smooth([]) == []

    def test_output_length_matches_input(self):
        smoother = ViterbiSmoother(world=WORLD, cell_level=6)
        records = straight_records(steps=8, noise=1.0)
        assert len(smoother.smooth(records)) == 8

    def test_smoothing_reduces_noise(self):
        """The decoded path is closer to the true path than raw cell
        snapping of the noisy observations would suggest."""
        truth = [Point(10.0 + 2.0 * t, 50.0) for t in range(10)]
        noisy = [
            LocationRecord(
                Point(truth[t].x + (1.5 if t % 2 else -1.5), 50.0 + (1.5 if t % 3 else -1.5)),
                Vector(2.0, 0.0),
                float(t),
            )
            for t in range(10)
        ]
        smoother = ViterbiSmoother(world=WORLD, cell_level=6, max_speed=3.0)
        smoothed = smoother.smooth(noisy)
        error = sum(a.distance_to(b) for a, b in zip(smoothed, truth)) / len(truth)
        # Level-6 cells on a 100-unit world are ~1.56 units wide, so the
        # smoothed path should stay within about one cell of the truth.
        assert error < 2.5

    def test_implausible_jumps_are_discouraged(self):
        """An outlier observation far off the path gets pulled back toward
        the trajectory rather than followed."""
        records = straight_records(steps=6, speed=1.0)
        outlier = LocationRecord(Point(90.0, 90.0), Vector(1.0, 0.0), 2.5)
        noisy = records[:3] + [outlier] + records[3:]
        smoother = ViterbiSmoother(world=WORLD, cell_level=5, max_speed=2.0)
        path = smoother.smooth(noisy)
        outlier_index = 3
        assert path[outlier_index].distance_to(Point(90.0, 90.0)) > 20.0


class TestIndexerIntegration:
    def test_predict_location_for_leader(self, indexer):
        for t in range(5):
            indexer.update(make_update(1, 10.0 + 2.0 * t, 50.0, vx=2.0, vy=0.0, t=float(t)))
        predicted = indexer.predict_location("obj0000000001", at_time=6.0)
        assert predicted.location.x == pytest.approx(22.0, abs=1e-6)

    def test_predict_location_for_follower(self, indexer):
        indexer.update(make_update(1, 10.0, 50.0, vx=1.0, vy=0.0, t=0.0))
        indexer.update(make_update(2, 12.0, 50.0, vx=1.0, vy=0.0, t=0.0))
        indexer.run_clustering(now=0.0)
        from repro.tables.affiliation_table import Role

        follower_id = next(
            oid
            for oid in ("obj0000000001", "obj0000000002")
            if indexer.affiliation_table.role_of(oid).role is Role.FOLLOWER
        )
        predicted = indexer.predict_location(follower_id, at_time=3.0)
        # The follower co-moves with its leader at 1 u/s.
        actual_start = 10.0 if follower_id == "obj0000000001" else 12.0
        assert predicted.location.x == pytest.approx(actual_start + 3.0, abs=1e-6)

    def test_predict_unknown_object(self, indexer):
        with pytest.raises(QueryError):
            indexer.predict_location("objMISSING", at_time=1.0)

    def test_smoothed_trajectory_via_facade(self, indexer):
        for t in range(6):
            indexer.update(make_update(1, 10.0 + t, 50.0, vx=1.0, vy=0.0, t=float(t)))
        path = indexer.smoothed_trajectory("obj0000000001")
        assert len(path) == 6
        assert indexer.smoothed_trajectory("objMISSING") == []
