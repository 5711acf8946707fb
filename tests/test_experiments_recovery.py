"""Cluster-level crash recovery and the recovery experiment harness."""

import random

import pytest

from repro.bigtable.cost import OpKind
from repro.bigtable.tablet import TabletOptions
from repro.experiments.common import uniform_leader_indexer
from repro.experiments.recovery import (
    _nn_signature,
    _state_signature,
    run_recovery,
)
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import UpdateMessage, format_object_id
from repro.server.cluster import ServerCluster
from repro.workload.queries import NNQueryWorkload

from helpers import log_record_count


def update_stream(num_objects, count, seed):
    rng = random.Random(seed)
    return [
        UpdateMessage(
            object_id=format_object_id(rng.randrange(num_objects)),
            location=Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)),
            velocity=Vector(1.0, 0.5),
            timestamp=float(index) / 10.0,
        )
        for index in range(count)
    ]


def build(num_objects=600, flush_rows=128, seed=29):
    options = TabletOptions(memtable_flush_rows=flush_rows)
    indexer = uniform_leader_indexer(
        num_objects, seed=seed, tablet_options=options
    )
    return indexer, ServerCluster(indexer, num_servers=3)


class TestClusterCrashAndRecover:
    @pytest.mark.parametrize("crash_fraction", [0.0, 0.33, 1.0])
    def test_crash_at_any_prefix_is_invisible(self, crash_fraction):
        messages = update_stream(600, 900, seed=7)
        crash_at = int(len(messages) * crash_fraction)
        queries = NNQueryWorkload(
            build()[0].config.world, k=8, seed=3
        ).batch(20)

        ref_indexer, ref_cluster = build()
        ref_cluster.submit_update_batch(messages)

        crash_indexer, crash_cluster = build()
        crash_cluster.submit_update_batch(messages[:crash_at])
        report = crash_cluster.crash_and_recover()
        crash_cluster.submit_update_batch(messages[crash_at:])

        assert _state_signature(crash_indexer) == _state_signature(ref_indexer)
        assert _nn_signature(crash_indexer, queries) == _nn_signature(
            ref_indexer, queries
        )
        assert report.simulated_seconds >= 0.0

    def test_recovery_report_accounts_runs_and_records(self):
        indexer, cluster = build(flush_rows=64)
        cluster.submit_update_batch(update_stream(600, 600, seed=11))
        runs_before = indexer.emulator.run_count()
        emulator = indexer.emulator
        log_before = log_record_count(*map(emulator.table, emulator.table_names()))
        report = cluster.crash_and_recover()
        assert report.runs_opened == runs_before
        assert report.log_records_replayed == log_before
        assert report.simulated_seconds > 0.0
        # Recovery leaves durable state in place: recovering again replays
        # the same tail.
        assert cluster.crash_and_recover().log_records_replayed == log_before

    def test_write_amplification_stays_within_budget(self):
        indexer, cluster = build(flush_rows=256)
        cluster.submit_update_batch(update_stream(600, 1200, seed=13))
        for stats in indexer.emulator.tablet_stats():
            assert stats.write_amplification <= 3.0
        assert indexer.emulator.write_amplification() <= 3.0

    def test_default_knobs_are_log_only(self):
        indexer = uniform_leader_indexer(300, seed=5)
        cluster = ServerCluster(indexer, num_servers=2)
        cluster.submit_update_batch(update_stream(300, 300, seed=5))
        assert indexer.emulator.run_count() == 0
        assert indexer.emulator.write_amplification() == pytest.approx(1.0)
        counter = indexer.emulator.counter
        assert counter.durability_rows.get(OpKind.LOG_APPEND, 0) > 0
        # Durability is additive: the paper-facing ledgers never see it.
        assert OpKind.LOG_APPEND not in counter.counts
        report = cluster.crash_and_recover()
        assert report.runs_opened == 0
        assert report.log_records_replayed > 0


class TestRecoveryExperiment:
    def test_sweep_shape_and_tradeoff(self):
        figure = run_recovery(
            memtable_sizes=(64, None),
            num_objects=400,
            num_updates=600,
            num_servers=3,
            num_queries=10,
        )
        recovery_ms = figure.get_series("recovery ms")
        replayed = figure.get_series("log records replayed")
        amplification = figure.get_series("max tablet write amplification")
        assert len(recovery_ms.ys) == 2
        # Small memtable: short replay; disabled flushing: full-log replay
        # at write amplification 1.0.
        assert replayed.ys[0] < replayed.ys[1]
        assert recovery_ms.ys[0] < recovery_ms.ys[1]
        assert amplification.ys[1] == pytest.approx(1.0)
        assert amplification.ys[0] >= 1.0
        rendered = figure.to_table()
        assert "recovery" in rendered
