"""Tests for the static/dynamic clustering baselines and the no-school build."""

import pytest

from repro.baselines.dynamic_clustering import DynamicClusteringIndex
from repro.baselines.no_school import build_no_school_indexer
from repro.baselines.static_clustering import StaticClusteringIndex, default_prototypes
from repro.core.config import MoistConfig
from repro.core.moist import MoistIndexer
from repro.errors import ConfigurationError
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


class TestStaticClustering:
    def test_prototypes_cover_directions(self):
        prototypes = default_prototypes(max_speed=2.0, directions=4)
        assert len(prototypes) == 9  # zero + 2 speeds x 4 directions
        with pytest.raises(ConfigurationError):
            default_prototypes(directions=0)

    def test_every_update_writes_location(self):
        index = StaticClusteringIndex(CONFIG)
        for t in range(5):
            index.update(message("a", 10.0 + t, 10.0, t=float(t)))
        assert index.stats.updates == 5
        assert len(index.location_table.recent_history("a")) == 5

    def test_reclassification_counted_on_pattern_change(self):
        index = StaticClusteringIndex(CONFIG)
        index.update(message("a", 10.0, 10.0, vx=2.0, vy=0.0, t=0.0))
        index.update(message("a", 11.0, 10.0, vx=2.0, vy=0.0, t=1.0))
        index.update(message("a", 12.0, 10.0, vx=-2.0, vy=0.0, t=2.0))
        assert index.stats.reclassifications == 2  # initial + the U-turn

    def test_simulated_time_grows_linearly_with_updates(self):
        index = StaticClusteringIndex(CONFIG)
        index.update(message("a", 10.0, 10.0))
        single = index.simulated_seconds
        for t in range(1, 10):
            index.update(message("a", 10.0 + t, 10.0, t=float(t)))
        assert index.simulated_seconds == pytest.approx(10 * single, rel=0.3)


class TestDynamicClustering:
    def test_invalid_radius(self):
        with pytest.raises(ConfigurationError):
            DynamicClusteringIndex(CONFIG, cluster_radius=0.0)

    def test_nearby_objects_join_one_cluster(self):
        index = DynamicClusteringIndex(CONFIG, cluster_radius=10.0)
        index.update(message("a", 10.0, 10.0))
        index.update(message("b", 12.0, 10.0))
        assert len(index._clusters) == 1
        assert index._membership["a"] == index._membership["b"]

    def test_far_objects_get_separate_clusters(self):
        index = DynamicClusteringIndex(CONFIG, cluster_radius=10.0)
        index.update(message("a", 10.0, 10.0))
        index.update(message("b", 90.0, 90.0))
        assert len(index._clusters) == 2

    def test_departing_object_triggers_reclustering(self):
        index = DynamicClusteringIndex(CONFIG, cluster_radius=5.0)
        index.update(message("a", 10.0, 10.0, vx=0.0, vy=0.0, t=0.0))
        index.update(message("b", 11.0, 10.0, vx=0.0, vy=0.0, t=0.0))
        index.update(message("b", 60.0, 60.0, vx=0.0, vy=0.0, t=1.0))
        assert index.stats.reclusterings == 1
        assert index._membership["a"] != index._membership["b"]

    def test_every_update_still_writes_location_and_cluster(self):
        index = DynamicClusteringIndex(CONFIG, cluster_radius=10.0)
        for t in range(5):
            index.update(message("a", 10.0 + 0.1 * t, 10.0, vx=0.1, t=float(t)))
        assert index.stats.updates == 5
        assert index.stats.cluster_writes >= 5
        assert index.simulated_seconds > 0


class TestNoSchoolBaseline:
    def test_schools_disabled(self):
        indexer = build_no_school_indexer(CONFIG)
        assert indexer.config.enable_schools is False
        assert indexer.config.deviation_threshold == 0.0

    def test_every_object_stays_a_leader(self):
        indexer = build_no_school_indexer(CONFIG)
        for i in range(5):
            indexer.update(message(f"obj{i}", 10.0 + i, 10.0))
        assert indexer.school_count == 5

    def test_comparison_moist_sheds_but_no_school_does_not(self):
        """The central claim: with schools MOIST writes less for the same
        co-moving workload."""
        with_schools = MoistIndexer(CONFIG)
        without_schools = build_no_school_indexer(CONFIG)
        stream = []
        for t in range(8):
            for index in range(4):
                stream.append(
                    message(f"obj{index}", 10.0 + 2 * index + t, 50.0, vx=1.0, t=float(t))
                )
        for update in stream:
            with_schools.update(update)
            without_schools.update(update)
            if update.timestamp == 0.0:
                with_schools.run_clustering(now=0.0)
        assert with_schools.update_stats.shed > 0
        assert without_schools.update_stats.shed == 0
        assert with_schools.simulated_seconds < without_schools.simulated_seconds
