"""Tests for the NN query workload."""

import pytest

from repro.errors import WorkloadError
from repro.geometry.bbox import BoundingBox
from repro.workload.queries import NNQueryWorkload

REGION = BoundingBox(0.0, 0.0, 100.0, 100.0)


class TestNNQueryWorkload:
    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            NNQueryWorkload(REGION, k=0)
        with pytest.raises(WorkloadError):
            NNQueryWorkload(REGION, range_limit=0.0)

    def test_queries_inside_region(self):
        workload = NNQueryWorkload(REGION, k=5, seed=1)
        for query in workload.batch(50):
            assert REGION.contains_point(query.location)
            assert query.k == 5

    def test_batch_size_validated(self):
        with pytest.raises(WorkloadError):
            NNQueryWorkload(REGION).batch(0)

    def test_range_limit_propagated(self):
        workload = NNQueryWorkload(REGION, k=3, range_limit=25.0)
        assert workload.next_query().range_limit == 25.0

