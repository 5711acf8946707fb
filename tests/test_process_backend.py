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
import tempfile

import pytest

from repro.bigtable.process_backend import (
    ProcessShardedBackend,
    WorkerPool,
    build_recipes,
    make_scaleout_backend,
)
from repro.codec.columns import write_str
from repro.errors import ConfigurationError, RpcError
from repro.model import format_object_id
from repro.server.faults import FaultSchedule
from repro.server.loadtest import LoadTest
from repro.server import rpc
from repro.server.scaleout import ScaleOutCluster

from helpers import make_messages, make_queries
from shard_harness import HARNESS_VERBS, single_shard_client


# --------------------------------------------------------------------------
# Worker lifecycle
# --------------------------------------------------------------------------
def ping(connection):
    """One ``OP_PING`` round trip: answered means everything pipelined
    before it has run."""
    connection.wait(connection.send_request(0, rpc.OP_PING, b""))


def stopped(pool):
    return not any(process.is_alive() for process in pool.processes)


class TestWorkerPoolLifecycle:
    def test_spawn_ping_shutdown(self):
        pool = WorkerPool(2)
        assert [process.is_alive() for process in pool.processes] == [True, True]
        for connection in pool.connections:
            ping(connection)
        pool.shutdown()
        assert stopped(pool)

    def test_shutdown_is_idempotent(self):
        pool = WorkerPool(1)
        pool.shutdown()
        pool.shutdown()  # second call must be a quiet no-op
        assert stopped(pool)

    def test_context_manager_shuts_the_pool_down(self):
        with WorkerPool(2) as pool:
            ping(pool.connections[0])
        assert stopped(pool)

    def test_respawn_is_refused_after_shutdown(self):
        pool = WorkerPool(1)
        pool.shutdown()
        with pytest.raises(ConfigurationError, match="shut down"):
            pool.respawn_worker(0)

    def test_a_call_round_detects_and_heals_a_killed_worker(self):
        # The next round of any kind meets the dead worker and heals it, a
        # read-only CALL broadcast included.
        with ScaleOutCluster.build(
            2, backend="process", num_workers=2, num_objects=20,
            supervision_policy="respawn_lossy",
        ) as cluster:
            tablets = cluster.backend.scatter("tablet_count")
            cluster.backend.pool.kill_worker(1)
            cluster.backend.pool.processes[1].join(timeout=5.0)
            assert cluster.backend.scatter("tablet_count") == tablets
            (record,) = cluster.supervisor.recoveries
            assert record.worker_index == 1 and record.shard_ids == (1,)

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
            ping(backend.pool.connections[1])
        backend.close()  # after __exit__ already closed it
        assert stopped(backend.pool)


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
            assert client.call("run_count") >= 0  # emulator forward
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

        read_only = {
            name for name, (_verb, flag) in VERBS.items()
            if flag and name not in HARNESS_VERBS
        }
        assert read_only == {
            "metrics", "counter_snapshot", "run_count", "tablet_stats",
            "tablet_count", "cache_totals", "service_time_samples",
        }
        assert not any(name.startswith("_") for name in VERBS)
        assert {"update_batch", "query_batch", "build_indexer"} <= set(VERBS)

    def test_read_only_flags_cover_exactly_the_non_mutating_harness_verbs(self):
        from repro.server.worker import VERBS

        read_only = {name for name in HARNESS_VERBS if VERBS[name][1]}
        assert read_only == {
            "simulated_seconds", "log_record_count", "server_index_for_tablet",
            "alive_server_indices", "state_signature", "full_row_signature",
            "table_state",
        }
        # Mutating harness verbs run under the barrier and the exactly-once
        # slot like any production verb (the chaos suite replays one).
        assert "nn_signature" in HARNESS_VERBS - read_only

    def test_production_verb_table_is_what_production_sends(self):
        """Without ``tests/`` on the path, the table holds exactly the
        verbs the federation, its supervisor and the master send."""
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        listed = subprocess.run(
            [
                sys.executable, "-c",
                "from repro.server.worker import VERBS; print(' '.join(sorted(VERBS)))",
            ],
            cwd=src, env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        ).stdout.split()
        assert listed == [
            "apply_fault", "build_indexer", "cache_totals", "counter_snapshot",
            "metrics", "query_batch", "rebalance", "reset_metrics", "run_count",
            "service_time_samples", "tablet_count", "tablet_stats",
            "update_batch",
        ]

    def test_a_verb_name_registers_once(self):
        from repro.server import worker

        metrics = worker.VERBS["metrics"]
        with pytest.raises(ConfigurationError, match="'metrics' is already"):
            worker._register("metrics", lambda service: {}, read_only=True)
        assert worker.VERBS["metrics"] is metrics


# --------------------------------------------------------------------------
# Federation semantics
# --------------------------------------------------------------------------
class TestFederationProtocol:
    @pytest.mark.parametrize("backend_kind", ["inprocess", "process"])
    def test_backends_answer_every_read_their_callers_make(self, backend_kind):
        """The federation keeps exactly the reads that load-test result
        assembly and the benchmark's counter collection make; each answers
        with a number on either backend kind, never an ``AttributeError``
        that the benchmark would report as a null counter."""
        from repro.bigtable.cost import OpKind

        with make_scaleout_backend(backend_kind, 2, num_objects=40) as backend:
            counter = backend.counter
            reads = {
                "storage_rpcs": counter.storage_rpc_count(),
                "sim_storage_s": counter.simulated_seconds,
                "durability_s": counter.durability_seconds,
                "log_fsyncs": counter.durability_count(OpKind.LOG_APPEND),
                "runs": backend.run_count(),
                "write_amplification": backend.write_amplification(),
                "cache_hit_rate": backend.cache_hit_rate(),
                "tablet_count": backend.tablet_count(),
                "hot_share": backend.hot_tablet_share(),
                "rpc_frames": backend.rpc_frame_count(),
                "rpc_bytes": backend.serialized_bytes(),
            }
            for name, value in reads.items():
                assert isinstance(value, (int, float)), name
            assert reads["tablet_count"] == len(backend.tablet_stats()) >= 2
            assert 0.0 < reads["hot_share"] <= 1.0
            assert 0.0 <= reads["cache_hit_rate"] <= 1.0

    def test_unknown_backend_kind_is_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scaleout_backend("threads", 2, num_objects=10)

    def test_workers_cap_at_shard_count(self):
        with ProcessShardedBackend(
            build_recipes(2, num_objects=20), num_workers=8
        ) as backend:
            assert backend.num_workers == 2

    def test_shard_preload_partitions_every_object_exactly_once(self):
        from repro.server.worker import ShardService, shard_of

        services = [ShardService() for _ in range(3)]
        builds = [
            service.build_indexer(recipe)
            for service, recipe in zip(services, build_recipes(3, num_objects=120))
        ]
        owned = [0, 0, 0]
        for index in range(120):
            owned[shard_of(format_object_id(index), 3)] += 1
        assert [entry["objects_loaded"] for entry in builds] == owned
        assert sum(owned) == 120
        for service in services:
            assert service.call("state_signature")  # every shard holds state

    def test_hot_share_matches_the_single_stack_it_mirrors(self):
        """A one-shard federation and the plain stack it mirrors report the
        same tablets, so one hot-share rule over one tablet order gives the
        same share to the last bit.  Summing the single stack's tablets in
        table-creation order instead of ``tablet_stats()`` order made this
        seed differ in the last bit."""
        from repro.experiments.common import uniform_leader_indexer
        from repro.server.cluster import ServerCluster

        seed = 2
        indexer = uniform_leader_indexer(2000, seed=seed)
        indexer.emulator.reset_counters()
        single = ServerCluster(indexer, num_servers=2)
        messages = make_messages(1500, 2000, seed=seed)
        queries = make_queries(50, seed=seed)
        with ScaleOutCluster.build(
            1, backend="inprocess", num_objects=2000, seed=seed, num_servers=2
        ) as federated:
            for cluster in (single, federated):
                for start in range(0, len(messages), 256):
                    cluster.submit_update_batch(messages[start : start + 256])
                cluster.submit_query_batch(queries)
            ours, theirs = single.storage_stats, federated.storage_stats
            assert ours.tablet_stats() == theirs.tablet_stats()
            assert ours.hot_tablet_share() == theirs.hot_tablet_share()


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
    EXPECTED_WIRE_BYTES = 30828

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
        counter = cluster.backend.counter
        fingerprint = (
            counter.storage_rpc_count(),
            counter.simulated_seconds,
            sum(cluster.backend.scatter("simulated_seconds")),
            cluster.backend.run_count(),
            sum(cluster.backend.scatter("log_record_count")),
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
        faults = FaultSchedule.seeded(
            5, 6, num_servers=3, server_crashes=1, migration_crashes=1
        )
        test = LoadTest(
            cluster,
            failure_probability=0.01,
            seed=404,
            rebalance_every=2,
            faults=faults,
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
                faults=FaultSchedule.seeded(
                    1, 2, num_servers=2, server_crashes=1, migration_crashes=1
                ),
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
                    cluster,
                    faults=FaultSchedule.seeded(
                        1, 2, num_servers=2, server_crashes=1
                    ),
                )
        finally:
            cluster.close()
