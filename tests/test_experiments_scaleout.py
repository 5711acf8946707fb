"""Tests for the tablet scale-out experiment."""

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
