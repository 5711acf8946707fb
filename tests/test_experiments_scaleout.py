"""Tests for the tablet scale-out experiment and per-tablet reporting."""

from repro.experiments.report import tablet_load_report
from repro.experiments.scaleout import measure_batched_update_qps, run_scaleout


class TestMeasureBatchedUpdateQps:
    def test_shards_into_multiple_tablets_at_fig13_scale(self):
        outcome = measure_batched_update_qps(2000, num_servers=1, num_updates=1000)
        assert outcome.tablet_count >= 2
        assert 0.0 < outcome.hot_tablet_share < 1.0
        assert outcome.qps > 0

    def test_batched_qps_near_sequential_anchor(self):
        # The batched path charges the same simulated costs, so single-server
        # QPS must stay in the same band as the fig13 anchor.
        outcome = measure_batched_update_qps(2000, num_servers=1, num_updates=1500)
        assert 6000 < outcome.qps < 10000

    def test_more_servers_scale_out(self):
        single = measure_batched_update_qps(2000, num_servers=1, num_updates=1200)
        multi = measure_batched_update_qps(2000, num_servers=5, num_updates=1200)
        assert multi.qps > 1.5 * single.qps


class TestRunScaleout:
    def test_figure_structure(self):
        result = run_scaleout(
            server_counts=(1, 2), num_objects=1500, num_updates=800
        )
        labels = {series.label for series in result.series}
        assert {"batched update QPS", "tablets", "hot tablet share"} <= labels
        qps = result.get_series("batched update QPS").ys
        assert all(value > 0 for value in qps)
        tablets = result.get_series("tablets").ys
        assert all(value >= 2 for value in tablets)
        assert result.notes


class TestTabletLoadReport:
    def test_renders_per_tablet_rows(self):
        from repro.experiments.common import uniform_leader_indexer
        from repro.geometry.point import Point
        from repro.geometry.vector import Vector
        from repro.model import UpdateMessage, format_object_id

        indexer = uniform_leader_indexer(1500, seed=7)
        # Drive some load so shares are meaningful.
        indexer.update_many(
            [
                UpdateMessage(
                    format_object_id(index),
                    Point(float(index % 900) + 1.0, 500.0),
                    Vector(1.0, 0.0),
                    1.0,
                )
                for index in range(400)
            ]
        )
        report = tablet_load_report(indexer.emulator.tablet_stats())
        assert "per-tablet storage accounting" in report
        assert "skew: hottest tablet serves" in report
        assert "location" in report
        assert "tablet-0000" in report

    def test_empty_stats(self):
        assert tablet_load_report([]) == "(no tablets)\n"
