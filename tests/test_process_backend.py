"""Multiprocess scale-out: worker lifecycle, ledger merges, determinism.

The headline guarantee under test: the *worker count is invisible*.  A
seeded workload produces byte-identical load-test reports — and bit-equal
merged ledgers — whether the shard federation runs in-process or across
1, 2 or 4 forked workers.
"""

import atexit
import errno
import glob
import multiprocessing
import os
import random
import tempfile

import pytest

from repro.bigtable.backend import (
    CacheAwareBackend,
    ShardedBackend,
    StorageBackend,
)
from repro.bigtable.process_backend import (
    LocalShardedBackend,
    ProcessShardedBackend,
    WorkerPool,
    build_recipes,
    make_scaleout_backend,
    single_shard_client,
)
from repro.codec.columns import write_str
from repro.errors import ConfigurationError, RpcError, WorkerDiedError
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import UpdateMessage, format_object_id
from repro.server.loadtest import FaultPlan, LoadTest
from repro.server.scaleout import ScaleOutCluster
from repro.workload.queries import NNQuery


def make_messages(count, num_objects, seed=99):
    rng = random.Random(seed)
    return [
        UpdateMessage(
            object_id=format_object_id(rng.randrange(num_objects)),
            location=Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)),
            velocity=Vector(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
            timestamp=float(index),
        )
        for index, _ in enumerate(range(count))
    ]


def make_queries(count, seed=7, k=5):
    rng = random.Random(seed)
    return [
        NNQuery(
            location=Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)),
            k=k,
        )
        for _ in range(count)
    ]


# --------------------------------------------------------------------------
# Worker lifecycle
# --------------------------------------------------------------------------
class TestWorkerPoolLifecycle:
    def test_spawn_health_check_drain_shutdown(self):
        pool = WorkerPool(2)
        assert [process.is_alive() for process in pool.processes] == [True, True]
        pool.health_check()
        pool.drain()
        pool.shutdown()
        assert pool.closed
        assert [process.is_alive() for process in pool.processes] == [False, False]

    def test_shutdown_is_idempotent(self):
        pool = WorkerPool(1)
        pool.shutdown()
        pool.shutdown()  # second call must be a quiet no-op
        assert pool.closed

    def test_context_manager_shuts_the_pool_down(self):
        with WorkerPool(2) as pool:
            pool.health_check()
        assert pool.closed
        assert [process.is_alive() for process in pool.processes] == [False, False]

    def test_health_check_raises_after_shutdown(self):
        pool = WorkerPool(1)
        pool.shutdown()
        with pytest.raises(ConfigurationError):
            pool.health_check()

    def test_health_check_detects_a_killed_worker(self):
        pool = WorkerPool(2)
        try:
            pool.processes[1].terminate()
            pool.processes[1].join(timeout=5.0)
            with pytest.raises(WorkerDiedError):
                pool.health_check()
        finally:
            pool.shutdown()

    def test_pool_requires_at_least_one_worker(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(0)

    def test_failed_spawn_stops_the_workers_already_forked(self, monkeypatch):
        spawn = WorkerPool._spawn_worker
        spawned = []

        def second_spawn_fails(pool, *args):
            if spawned:
                raise OSError(errno.EMFILE, "Too many open files")
            spawned.append(spawn(pool, *args))
            return spawned[-1]

        # Pool shutdown hooks registered with atexit and not unregistered.
        hooks = []
        register, unregister = atexit.register, atexit.unregister

        def tracked_register(hook):
            if isinstance(getattr(hook, "__self__", None), WorkerPool):
                hooks.append(hook)
            return register(hook)

        def tracked_unregister(hook):
            if hook in hooks:
                hooks.remove(hook)
            unregister(hook)

        monkeypatch.setattr(WorkerPool, "_spawn_worker", second_spawn_fails)
        monkeypatch.setattr(atexit, "register", tracked_register)
        monkeypatch.setattr(atexit, "unregister", tracked_unregister)
        with pytest.raises(OSError, match="Too many open files"):
            WorkerPool(2)
        (process, connection), = spawned
        process.join(timeout=10.0)
        assert not process.is_alive()
        assert connection._sock.fileno() == -1
        assert hooks == []

    def test_backend_close_is_reentrant_via_context_manager(self):
        with ProcessShardedBackend(
            build_recipes(2, num_objects=40), num_workers=2
        ) as backend:
            backend.health_check()
        backend.close()  # after __exit__ already closed it
        assert backend.pool.closed


class TestRejectedBuildsLeaveNothingBehind:
    """A build that fails validation *after* forking its pool must close
    what it built: no live worker processes, no stranded ``moist-disk-*``
    temp directory."""

    @staticmethod
    def _leftovers():
        """Live child pids and ``moist-disk-*`` temp directories."""
        return (
            sorted(child.pid for child in multiprocessing.active_children()),
            sorted(glob.glob(os.path.join(tempfile.gettempdir(), "moist-disk-*"))),
        )

    @pytest.mark.parametrize(
        "options",
        [
            # lossless respawn without durable disk state
            dict(backend="process", num_workers=2, supervision_policy="respawn"),
            # window deeper than the worker-side dedup depth
            dict(backend="disk", num_workers=2, window=64, dedup_window=8),
            # supervision policy typo, checked after the backend exists
            dict(backend="disk", num_workers=2, supervision_policy="reboot"),
        ],
    )
    def test_rejected_cluster_build_closes_its_backend(self, options):
        before = self._leftovers()
        with pytest.raises(ConfigurationError):
            ScaleOutCluster.build(4, num_objects=200, **options)
        assert self._leftovers() == before

    def test_failed_build_all_closes_the_pool_and_owned_tmpdir(self):
        before = self._leftovers()
        # ``build_indexer`` raises worker-side, after the pool forked and
        # the backend-owned temp directory was created.
        with pytest.raises(ConfigurationError, match="storage_level"):
            make_scaleout_backend(
                "disk", 2, num_workers=2, num_objects=40, storage_level=99
            )
        assert self._leftovers() == before


class TestVerbTable:
    """One table answers which verbs exist — on both transports."""

    @pytest.mark.parametrize("backend", ["inprocess", "process"])
    @pytest.mark.parametrize(
        "method", ["no_such_verb", "_require_cluster", "_write_accounting_checkpoint", "call"]
    )
    def test_unknown_and_private_verbs_raise_rpc_error(self, backend, method):
        with single_shard_client(backend) as client:
            with pytest.raises(RpcError, match="unknown shard service method"):
                client.call(method)

    @pytest.mark.parametrize("backend", ["inprocess", "process"])
    def test_forwarded_and_declared_verbs_resolve(self, backend):
        from repro.server.worker import ShardRecipe

        recipe = ShardRecipe(num_objects=30, num_servers=2, with_master=True)
        with single_shard_client(backend, recipe=recipe) as client:
            assert client.call("ping") == "pong"
            assert client.call("has_table", "location")  # emulator forward
            assert client.call("alive_server_indices") == [0, 1]  # cluster
            client.call("rebalance")  # master forward
            assert client.call("tablet_count") >= 1
            assert client.call("simulated_seconds") >= 0.0

    def test_worker_errors_cross_as_library_types_or_named_rpc_errors(self):
        with single_shard_client("process") as client:
            client.call("build_table", {})
            # A library error arrives as itself ...
            with pytest.raises(ConfigurationError, match="unknown table op 'rename'"):
                client.call("table_apply", [("rename", "k")])
            # ... anything else as an RpcError naming the remote type: the
            # parent never instantiates a class an error frame names.
            with pytest.raises(RpcError, match="^ValueError: not enough values") as caught:
                client.call("table_apply", [("write", "k")])
            assert type(caught.value) is RpcError
            assert client.call("table_apply", [("write", "k", "v", 1.0)]) == 1

    def test_read_only_flags_cover_exactly_the_non_mutating_verbs(self):
        from repro.server.worker import VERBS

        read_only = {name for name, (_verb, flag) in VERBS.items() if flag}
        assert read_only == {
            "ping", "accounting_state", "metrics",
            "counter_snapshot", "simulated_seconds", "run_count",
            "log_record_count", "tablet_stats", "tablet_count",
            "block_cache_stats", "cache_totals", "server_index_for_tablet",
            "alive_server_indices", "service_time_samples", "state_signature",
            "full_row_signature", "has_table", "table_names", "table_keys",
            "table_row_count", "table_state",
        }
        assert not any(name.startswith("_") for name in VERBS)
        assert {"update_batch", "query_batch", "build_indexer"} <= set(VERBS)


# --------------------------------------------------------------------------
# Protocol conformance and federation semantics
# --------------------------------------------------------------------------
class TestFederationProtocol:
    def test_backends_satisfy_the_storage_protocols(self):
        for backend_kind in ("inprocess", "process"):
            with make_scaleout_backend(backend_kind, 2, num_objects=40) as backend:
                assert isinstance(backend, StorageBackend)
                assert isinstance(backend, ShardedBackend)
                assert isinstance(backend, CacheAwareBackend)

    def test_unknown_backend_kind_is_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scaleout_backend("threads", 2, num_objects=10)

    def test_workers_cap_at_shard_count(self):
        with ProcessShardedBackend(
            build_recipes(2, num_objects=20), num_workers=8
        ) as backend:
            assert backend.num_workers == 2

    def test_shard_preload_partitions_every_object_exactly_once(self):
        from repro.server.worker import shard_of

        backend = LocalShardedBackend(
            build_recipes(3, num_objects=120), build=False
        )
        with backend:
            builds = backend.build_all()
            owned = [0, 0, 0]
            for index in range(120):
                owned[shard_of(format_object_id(index), 3)] += 1
            assert [entry["objects_loaded"] for entry in builds] == owned
            assert sum(owned) == 120
            for client in backend.clients:
                assert client.call("state_signature")  # every shard holds state


# --------------------------------------------------------------------------
# Ledger merge: bit-identical across backends and worker counts
# --------------------------------------------------------------------------
class TestLedgerMergeDeterminism:
    NUM_UPDATES = 400
    NUM_QUERIES = 60
    #: Framing is structural — one frame per shard per scatter leg: 4 shards
    #: x (1 build + 4 update rounds + 1 query broadcast + the 4 accounting
    #: scatters behind the fingerprint).  A batching regression that
    #: splinters scatters moves this on every machine.
    EXPECTED_FRAMES = 40
    #: Every byte of those frames, both directions (67 B per request over
    #: the 460).  An equality: every body is a deterministic codec's output,
    #: so nothing on the wire depends on the interpreter or the machine.
    EXPECTED_WIRE_BYTES = 30836

    def _drive(self, backend_kind, num_workers):
        cluster = ScaleOutCluster.build(
            4,
            backend=backend_kind,
            num_workers=num_workers,
            num_objects=300,
            seed=17,
            num_servers=2,
        )
        messages = make_messages(self.NUM_UPDATES, 300)
        queries = make_queries(self.NUM_QUERIES)
        for start in range(0, len(messages), 128):
            cluster.submit_update_batch(messages[start : start + 128])
        cluster.submit_query_batch(queries)
        snapshot = cluster.backend.counter.snapshot()
        fingerprint = (
            snapshot.storage_rpc_count(),
            snapshot.simulated_seconds,
            cluster.backend.simulated_seconds,
            cluster.backend.run_count(),
            cluster.backend.log_record_count(),
            cluster.makespan_seconds(),
        )
        wire = (
            cluster.backend.serialized_bytes(),
            cluster.backend.rpc_frame_count(),
        )
        results = cluster.submit_query_batch(queries[:10])
        nn = tuple(
            tuple((n.object_id, n.distance) for n in batch) for batch in results
        )
        cluster.close()
        return (fingerprint, nn), wire, cluster.recipes

    def test_ledgers_and_results_bit_identical_across_worker_counts(self):
        reference, _, _ = self._drive("inprocess", 1)
        wires = {}
        for variant in (("process", 1), ("process", 2), ("process", 4), ("disk", 2)):
            simulated, wires[variant], recipes = self._drive(*variant)
            assert simulated == reference, f"{variant} diverged from in-process"
        # Which OS process executes a shard never shows on the wire.
        assert wires["process", 1] == wires["process", 2] == wires["process", 4]
        assert wires["process", 1] == (self.EXPECTED_WIRE_BYTES, self.EXPECTED_FRAMES)
        # Disk sends the same frames; its bytes differ by exactly the
        # storage path in each build recipe — a length-prefixed string
        # where the process recipes say ``None`` in one byte.
        path_bytes = 0
        for recipe in recipes:
            encoded = bytearray()
            write_str(encoded, recipe.storage_dir)
            path_bytes += len(encoded)
        assert wires["disk", 2] == (
            self.EXPECTED_WIRE_BYTES + path_bytes,
            self.EXPECTED_FRAMES,
        )


# --------------------------------------------------------------------------
# Byte-identical load-test reports (the acceptance determinism gate)
# --------------------------------------------------------------------------
class TestScaleOutReportDeterminism:
    def _report(self, backend_kind, num_workers):
        cluster = ScaleOutCluster.build(
            4,
            backend=backend_kind,
            num_workers=num_workers,
            num_objects=400,
            seed=17,
            num_servers=3,
            with_master=True,
        )
        plan = FaultPlan.seeded(5, num_batches=6, num_servers=3)
        test = LoadTest(
            cluster,
            failure_probability=0.01,
            seed=404,
            rebalance_every=2,
            fault_plan=plan,
        )
        result = test.run_mixed_batches(
            make_messages(500, 400), make_queries(100), batch_size=128
        )
        report = result.to_report()
        cluster.close()
        return report

    def test_reports_byte_identical_across_backends_and_worker_counts(self):
        reference = self._report("inprocess", 1)
        for workers in (1, 2, 4):
            assert self._report("process", workers) == reference

    def test_fault_descriptions_name_every_shard(self):
        cluster = ScaleOutCluster.build(
            2,
            backend="inprocess",
            num_objects=200,
            seed=17,
            num_servers=2,
            with_master=True,
        )
        try:
            test = LoadTest(
                cluster,
                failure_probability=0.0,
                fault_plan=FaultPlan.seeded(1, num_batches=2, num_servers=2),
            )
            result = test.run_update_batches(make_messages(300, 200), batch_size=128)
            assert result.faults_applied
            assert any("shard 0" in entry for entry in result.faults_applied)
            assert any("shard 1" in entry for entry in result.faults_applied)
        finally:
            cluster.close()

    def test_control_plane_guards_apply_to_scale_out_tests(self):
        cluster = ScaleOutCluster.build(
            2, backend="inprocess", num_objects=100, seed=17
        )
        try:
            with pytest.raises(ConfigurationError):
                LoadTest(cluster, rebalance_every=2)
            with pytest.raises(ConfigurationError):
                LoadTest(
                    cluster, fault_plan=FaultPlan.seeded(1, 2, 2)
                )
        finally:
            cluster.close()
