"""Tests for the road-network workload generator and uniform workload."""

import pytest

from repro.errors import WorkloadError
from repro.geometry.bbox import BoundingBox
from repro.workload.generator import RoadNetworkWorkload, WorkloadConfig
from repro.workload.uniform import UniformWorkload


class TestWorkloadConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadConfig(num_objects=0)
        with pytest.raises(WorkloadError):
            WorkloadConfig(pedestrian_fraction=1.5)
        with pytest.raises(WorkloadError):
            WorkloadConfig(noise_std=-0.1)
        with pytest.raises(WorkloadError):
            WorkloadConfig(min_update_interval_s=0.0)
        with pytest.raises(WorkloadError):
            WorkloadConfig(min_update_interval_s=2.0, max_update_interval_s=1.0)


class TestRoadNetworkWorkload:
    def _workload(self, **kwargs):
        defaults = dict(
            num_objects=20,
            map_size=100.0,
            block_size=25.0,
            min_update_interval_s=1.0,
            max_update_interval_s=1.0,
            seed=5,
        )
        defaults.update(kwargs)
        return RoadNetworkWorkload(WorkloadConfig(**defaults))

    def test_population_split_between_kinds(self):
        workload = self._workload(pedestrian_fraction=0.5)
        kinds = [obj.kind.value for obj in workload.objects]
        assert kinds.count("pedestrian") == 10
        assert kinds.count("car") == 10

    def test_advance_produces_messages_in_time_order(self):
        workload = self._workload()
        messages = workload.advance_to(5.0)
        timestamps = [m.timestamp for m in messages]
        assert timestamps == sorted(timestamps)
        assert all(0.0 <= t <= 5.0 for t in timestamps)

    def test_roughly_one_update_per_object_per_second(self):
        workload = self._workload()
        messages = workload.advance_to(10.0)
        # 20 objects at 1 Hz over 10 s: about 200 messages (staggered start).
        assert 150 <= len(messages) <= 220

    def test_time_cannot_move_backwards(self):
        workload = self._workload()
        workload.advance_to(5.0)
        with pytest.raises(WorkloadError):
            workload.advance_to(1.0)

    def test_messages_within_map_bounds(self):
        workload = self._workload(noise_std=1.0)
        bounds = workload.network.bounds
        for message in workload.advance_to(10.0):
            assert bounds.contains_point(message.location)

    def test_run_yields_batches(self):
        workload = self._workload()
        batches = list(workload.run(5.0, step_s=1.0))
        assert len(batches) == 5
        with pytest.raises(WorkloadError):
            list(self._workload().run(0.0))

    def test_deterministic_for_seed(self):
        first = self._workload(seed=9).advance_to(5.0)
        second = self._workload(seed=9).advance_to(5.0)
        assert [(m.object_id, m.timestamp) for m in first] == [
            (m.object_id, m.timestamp) for m in second
        ]

    def test_different_seeds_differ(self):
        first = self._workload(seed=1).advance_to(5.0)
        second = self._workload(seed=2).advance_to(5.0)
        assert [m.location for m in first] != [m.location for m in second]


class TestUniformWorkload:
    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            UniformWorkload(num_objects=0)
        with pytest.raises(WorkloadError):
            UniformWorkload(max_speed=-1.0)

    def test_initial_updates_cover_every_object(self):
        workload = UniformWorkload(num_objects=50, seed=3)
        updates = workload.initial_updates()
        assert len(updates) == 50
        assert len({u.object_id for u in updates}) == 50

    def test_positions_inside_region(self):
        region = BoundingBox(0.0, 0.0, 10.0, 10.0)
        workload = UniformWorkload(num_objects=30, region=region, seed=3)
        for update in workload.initial_updates():
            assert region.contains_point(update.location)

    def test_random_update_targets_known_object(self):
        workload = UniformWorkload(num_objects=10, seed=3)
        update = workload.random_update(timestamp=1.0)
        assert update.object_id in {workload.object_id(i) for i in range(10)}

    def test_object_accessors_validate_index(self):
        workload = UniformWorkload(num_objects=5, seed=3)
        with pytest.raises(WorkloadError):
            workload.object_id(5)
        with pytest.raises(WorkloadError):
            workload.object_id(-1)
