"""Tests for the cost model and operation counter."""

import pytest

from repro.bigtable.cost import CostModel, OpCounter, OpKind
from repro.errors import ConfigurationError


class TestCostModel:
    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel(read_rpc=-1.0)

    def test_invalid_contention_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel(write_contention_factor=0.0)

    def test_point_costs(self):
        model = CostModel()
        assert model.cost_of(OpKind.READ) == model.read_rpc
        assert model.cost_of(OpKind.WRITE) == model.write_rpc
        assert model.cost_of(OpKind.DELETE) == model.delete_rpc

    def test_scan_cost_scales_with_rows(self):
        model = CostModel()
        assert model.cost_of(OpKind.SCAN, rows=10) > model.cost_of(OpKind.SCAN, rows=1)
        assert model.cost_of(OpKind.SCAN, rows=10) == pytest.approx(
            model.scan_rpc + 10 * model.scan_row
        )

    def test_batch_rows_cheaper_than_point_ops(self):
        """Batch reads amortise the RPC: N rows in one batch cost less than N
        point reads — the property that makes the clustering pass viable."""
        model = CostModel()
        n = 50
        assert model.cost_of(OpKind.BATCH_READ, rows=n) < n * model.cost_of(OpKind.READ)
        assert model.cost_of(OpKind.BATCH_WRITE, rows=n) < n * model.cost_of(OpKind.WRITE)

    def test_write_contention_scales_writes_only(self):
        plain = CostModel()
        contended = CostModel(write_contention_factor=2.0)
        assert contended.cost_of(OpKind.WRITE) == pytest.approx(2 * plain.cost_of(OpKind.WRITE))
        assert contended.cost_of(OpKind.READ) == plain.cost_of(OpKind.READ)

    def test_unknown_per_row_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel().cost_of(OpKind.SCAN_ROW)


class TestOpCounter:
    def test_record_accumulates_time_and_counts(self):
        counter = OpCounter()
        cost = counter.record(OpKind.READ)
        assert cost > 0
        assert counter.count(OpKind.READ) == 1
        assert counter.simulated_seconds == pytest.approx(cost)

    def test_read_and_write_seconds_split(self):
        counter = OpCounter()
        counter.record(OpKind.READ)
        counter.record(OpKind.WRITE)
        counter.record(OpKind.SCAN, rows=5)
        counter.record(OpKind.BATCH_WRITE, rows=5)
        assert counter.read_seconds > 0
        assert counter.write_seconds > 0
        assert counter.simulated_seconds == pytest.approx(
            counter.read_seconds + counter.write_seconds
        )

    def test_rows_touched(self):
        counter = OpCounter()
        counter.record(OpKind.SCAN, rows=7)
        counter.record(OpKind.SCAN, rows=3)
        assert counter.rows.get(OpKind.SCAN, 0) == 10
        assert counter.count(OpKind.SCAN) == 2

    def test_total_calls(self):
        counter = OpCounter()
        counter.record(OpKind.READ)
        counter.record(OpKind.WRITE)
        assert counter.total_calls() == 2

    def test_reset(self):
        counter = OpCounter()
        counter.record(OpKind.READ)
        counter.reset()
        assert counter.total_calls() == 0
        assert counter.simulated_seconds == 0.0

    def test_snapshot_delta(self):
        counter = OpCounter()
        counter.record(OpKind.READ)
        first = counter.snapshot()
        counter.record(OpKind.WRITE)
        counter.record(OpKind.READ)
        delta = counter.snapshot().delta(first)
        assert delta.counts[OpKind.READ] == 1
        assert delta.counts[OpKind.WRITE] == 1
        assert delta.simulated_seconds > 0

    def test_snapshot_is_immutable_view(self):
        counter = OpCounter()
        counter.record(OpKind.READ)
        snapshot = counter.snapshot()
        counter.record(OpKind.READ)
        assert snapshot.counts[OpKind.READ] == 1
