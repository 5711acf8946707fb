"""Determinism guard: identical seeded fault-schedule load tests render
byte-identical reports.

The whole simulator is meant to be deterministic — simulated time, routing,
the master's decisions and the fault injector are all pure functions of
seeds and ledgers.  This suite locks that in end to end: any nondeterminism
creep (set iteration, wall-clock leakage, unordered dict hashing of
non-string keys) shows up here as a report diff.
"""

from repro.experiments.rebalance import hot_school_streams, rebalance_harness
from repro.server.faults import FaultSchedule


def run_faulted_load_test(seed=31):
    """One full seeded run: skewed workload, fault schedule, master control."""
    faults = FaultSchedule.seeded(
        seed, 8, num_servers=4, server_crashes=1, migration_crashes=1
    )
    _, _, _, load_test = rebalance_harness(
        800, 4, balanced=True, seed=seed, faults=faults
    )
    messages, queries = hot_school_streams(800, 2000, 0.8, seed=seed)
    return load_test.run_mixed_batches(messages, queries, batch_size=128)


class TestDeterminism:
    def test_identical_fault_schedules_render_identical_reports(self):
        first = run_faulted_load_test().to_report()
        second = run_faulted_load_test().to_report()
        assert first == second

    def test_report_contains_control_plane_sections(self):
        result = run_faulted_load_test()
        report = result.to_report()
        assert report.startswith("load test report")
        assert "control plane:" in report
        assert "faults applied:" in report
        assert "timeline:" in report
        # The seeded schedule fired something on this workload.
        assert result.faults_applied

    def test_different_seeds_render_different_reports(self):
        assert run_faulted_load_test(31).to_report() != run_faulted_load_test(
            32
        ).to_report()
