"""Tests for the Bx-tree baseline."""

import pytest

from repro.baselines.bxtree import BxTree, BxTreeConfig
from repro.errors import ConfigurationError, QueryError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import UpdateMessage
from repro.workload.uniform import UniformWorkload

REGION = BoundingBox(0.0, 0.0, 1000.0, 1000.0)


def message(object_id, x, y, vx=0.0, vy=0.0, t=0.0):
    return UpdateMessage(object_id, Point(x, y), Vector(vx, vy), t)


class TestConfig:
    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            BxTreeConfig(curve_level=0)
        with pytest.raises(ConfigurationError):
            BxTreeConfig(phase_length_s=0.0)
        with pytest.raises(ConfigurationError):
            BxTreeConfig(num_phases=0)
        with pytest.raises(ConfigurationError):
            BxTreeConfig(page_access_seconds=-1.0)


class TestUpdates:
    def test_update_indexes_object(self):
        tree = BxTree()
        tree.update(message("a", 100.0, 100.0))
        assert tree.size() == 1
        assert tree.stats.updates == 1
        assert tree.stats.simulated_seconds > 0

    def test_second_update_replaces_key(self):
        tree = BxTree()
        tree.update(message("a", 100.0, 100.0, t=0.0))
        tree.update(message("a", 500.0, 500.0, t=1.0))
        assert tree.size() == 1
        assert len(tree._tree) == 1

    def test_key_encodes_phase(self):
        config = BxTreeConfig(phase_length_s=10.0, num_phases=2)
        tree = BxTree(config)
        key_phase0 = tree._key_for(message("a", 100.0, 100.0, t=1.0))
        key_phase1 = tree._key_for(message("a", 100.0, 100.0, t=11.0))
        assert key_phase0 >> (2 * config.curve_level) != key_phase1 >> (
            2 * config.curve_level
        )

    def test_stationary_object_key_independent_of_time_within_phase(self):
        tree = BxTree()
        first = tree._key_for(message("a", 100.0, 100.0, t=0.0))
        second = tree._key_for(message("a", 100.0, 100.0, t=1.0))
        # A stationary object projects to the same label-time position.
        assert first == second

    def test_moving_object_projected_to_label_time(self):
        config = BxTreeConfig(phase_length_s=10.0)
        tree = BxTree(config)
        moving = tree._key_for(message("a", 100.0, 100.0, vx=10.0, t=0.0))
        static = tree._key_for(message("b", 100.0, 100.0, vx=0.0, t=0.0))
        assert moving != static

    def test_update_cost_roughly_constant_with_population(self):
        tree = BxTree()
        workload = UniformWorkload(num_objects=2000, seed=5)
        for update in workload.initial_updates():
            tree.update(update)
        per_update = tree.stats.simulated_seconds / tree.stats.updates
        # Around 0.2-0.6 ms per update (the paper quotes ~3k updates/s).
        assert 1e-4 < per_update < 1e-3


class TestQueries:
    def test_k_must_be_positive(self):
        tree = BxTree()
        with pytest.raises(QueryError):
            tree.nearest_neighbors(Point(0.0, 0.0), 0, at_time=0.0)

    def test_finds_nearest_static_objects(self):
        tree = BxTree()
        tree.update(message("near", 100.0, 100.0))
        tree.update(message("far", 900.0, 900.0))
        results = tree.nearest_neighbors(Point(110.0, 100.0), 1, at_time=0.0)
        assert results[0][0] == "near"

    def test_returns_k_results_sorted_by_distance(self):
        tree = BxTree()
        workload = UniformWorkload(num_objects=200, seed=9)
        for update in workload.initial_updates():
            tree.update(update)
        results = tree.nearest_neighbors(Point(500.0, 500.0), 5, at_time=0.0)
        assert len(results) == 5
        distances = [distance for _, distance in results]
        assert distances == sorted(distances)

    def test_query_accounts_simulated_time(self):
        tree = BxTree()
        tree.update(message("a", 100.0, 100.0))
        before = tree.stats.simulated_seconds
        tree.nearest_neighbors(Point(100.0, 100.0), 1, at_time=0.0)
        assert tree.stats.simulated_seconds > before
        assert tree.stats.queries == 1

    def test_moving_object_found_at_predicted_position(self):
        tree = BxTree()
        tree.update(message("mover", 100.0, 100.0, vx=10.0, vy=0.0, t=0.0))
        results = tree.nearest_neighbors(Point(150.0, 100.0), 1, at_time=5.0)
        object_id, distance = results[0]
        assert object_id == "mover"
        assert distance == pytest.approx(0.0, abs=1e-6)
