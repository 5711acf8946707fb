"""Tests for the dead-reckoning (single-object shedding) baseline."""

import pytest

from repro.baselines.dead_reckoning import DeadReckoningIndex
from repro.core.config import MoistConfig
from repro.errors import ConfigurationError
from repro.experiments.ablations import run_shedding_ablation
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import UpdateMessage

CONFIG = MoistConfig(
    world=BoundingBox(0.0, 0.0, 100.0, 100.0),
    storage_level=8,
    clustering_cell_level=2,
    deviation_threshold=5.0,
)


def message(object_id, x, y, vx=1.0, vy=0.0, t=0.0):
    return UpdateMessage(object_id, Point(x, y), Vector(vx, vy), t)


class TestDeadReckoning:
    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigurationError):
            DeadReckoningIndex(CONFIG, tolerance=-1.0)

    def test_first_update_always_stored(self):
        index = DeadReckoningIndex(CONFIG, tolerance=5.0)
        assert index.update(message("a", 10.0, 10.0)) is False
        assert index.stats.stored == 1
        assert index.indexed_objects == 1

    def test_predictable_motion_is_shed(self):
        index = DeadReckoningIndex(CONFIG, tolerance=5.0)
        index.update(message("a", 10.0, 10.0, vx=1.0, t=0.0))
        # The object keeps moving exactly as predicted.
        assert index.update(message("a", 12.0, 10.0, vx=1.0, t=2.0)) is True
        assert index.update(message("a", 14.0, 10.0, vx=1.0, t=4.0)) is True
        assert index.stats.shed == 2
        # The stored record is still the original one.
        assert index._stored["a"].timestamp == 0.0

    def test_deviating_motion_is_stored(self):
        index = DeadReckoningIndex(CONFIG, tolerance=5.0)
        index.update(message("a", 10.0, 10.0, vx=1.0, t=0.0))
        # A turn: the object ends up far from the dead-reckoned position.
        assert index.update(message("a", 10.0, 30.0, vx=0.0, vy=1.0, t=2.0)) is False
        assert index.stats.stored == 2

    def test_zero_tolerance_never_sheds(self):
        index = DeadReckoningIndex(CONFIG, tolerance=0.0)
        index.update(message("a", 10.0, 10.0, vx=1.0, t=0.0))
        assert index.update(message("a", 11.0, 10.0, vx=1.0, t=1.0)) is False
        assert index.stats.shed == 0

    def test_every_object_stays_in_the_index(self):
        index = DeadReckoningIndex(CONFIG, tolerance=5.0)
        for i in range(6):
            index.update(message(f"obj{i}", 10.0 + i, 10.0))
        assert index.indexed_objects == 6

    def test_shed_ratio(self):
        index = DeadReckoningIndex(CONFIG, tolerance=5.0)
        index.update(message("a", 10.0, 10.0, vx=1.0, t=0.0))
        index.update(message("a", 11.0, 10.0, vx=1.0, t=1.0))
        assert index.stats.shed_ratio == pytest.approx(0.5)


class TestSheddingAblation:
    def test_schools_shrink_the_index_dead_reckoning_does_not(self):
        result = run_shedding_ablation(num_objects=80, duration_s=25.0)
        schools = result.get_series("object schools (MOIST)").ys
        dead_reckoning = result.get_series("dead reckoning").ys
        # Both shed a meaningful fraction of updates ...
        assert schools[0] > 0.2
        assert dead_reckoning[0] > 0.2
        # ... but only schools reduce the number of indexed rows.
        assert schools[1] < dead_reckoning[1]
        assert dead_reckoning[1] == 80
