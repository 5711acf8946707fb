"""The five workloads: input generation, system under test, one round each.

A workload owns three things and nothing else: its inputs (drawn from
``random.Random(seed)``, so the program only ever sees generated messages),
the system it builds through the narrow public surface, and the calls of one
*round* — the repeating unit whose calibrated time is ``round_ms_p50``.  The
number of rounds is ``round(rounds_per_second x --seconds)``, with
``rounds_per_second`` measured once on the 2-core sizing host so that
``--seconds 8`` measures for about eight seconds there; the amount of work is
therefore fixed by the arguments, never by the clock, and two commits always
run the same operations.

Why these five (one line each, repeated in BENCHMARK.json):

* ``update_stream``    — write path alone: leaders only, no reads issued.
* ``nn_query_stream``  — read path alone, key blocks >> block cache, no
  invalidation.
* ``mixed_rw``         — both paths over the same tables; writes evict what
  the reads cached.
* ``school_tracking``  — the paper's own scenario: clustering, shedding,
  follower estimation, history reads and the PPP archive (fits in cache).
* ``federation_disk``  — the same stream across the process boundary onto
  real files under respawn supervision: codec, framing, fsync, checkpoints.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from repro import (
    BoundingBox,
    MoistConfig,
    MoistIndexer,
    Point,
    UpdateMessage,
    Vector,
    format_object_id,
)
from repro.bigtable.tablet import TabletOptions
from repro.experiments.common import dense_road_config, school_config
from repro.server.cluster import ServerCluster
from repro.server.scaleout import ScaleOutCluster
from repro.workload.generator import RoadNetworkWorkload
from repro.workload.queries import NNQuery

BATCH = 256
K = 10
#: ``--smoke`` divides every population and round count by this.
SMOKE_DIVISOR = 20


class _Workload:
    """What every workload shares: a seeded generator, a population that
    ``--smoke`` shrinks, and the seconds-to-rounds rule."""

    name = ""
    objects = 0
    rounds_per_second = 1.0

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.num_objects = self.objects // (SMOKE_DIVISOR if smoke else 1)

    def rounds_for(self, seconds: float) -> int:
        return max(3, round(self.rounds_per_second * seconds))

    def close(self, system) -> None:
        pass


class _UniformWorkload(_Workload):
    """Uniform leaders on the 1000 x 1000 map with schools off — the set-up
    of the paper's BigTable stress experiments (Section 4.3), driven in
    rounds of ``update_batches`` 256-update batches then one batch of
    ``queries`` k=10 NN queries."""

    region = 1000.0
    objects = 20000
    update_batches = 0
    queries = 0
    #: The client knows every position it wrote, so one answer per query
    #: batch is checked against a brute-force scan of that model.
    oracle = True

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.positions: Dict[str, Tuple[float, float]] = {}

    # -- inputs ---------------------------------------------------------------
    def _updates(self, numbers: Sequence[int], timestamp: float) -> List[UpdateMessage]:
        uniform = self.rng.uniform
        region = self.region
        return [
            UpdateMessage(
                format_object_id(number),
                Point(uniform(0.0, region), uniform(0.0, region)),
                Vector(uniform(-2.0, 2.0), uniform(-2.0, 2.0)),
                timestamp,
            )
            for number in numbers
        ]

    def setup_inputs(self) -> List[List[UpdateMessage]]:
        """Every object once at t=0, in batches — sent by the client itself."""
        messages = self._updates(range(self.num_objects), 0.0)
        return [messages[i:i + BATCH] for i in range(0, len(messages), BATCH)]

    def round_inputs(self, index: int):
        randrange = self.rng.randrange
        uniform = self.rng.uniform
        updates = [
            self._updates(
                [randrange(self.num_objects) for _ in range(BATCH)],
                1.0 + index * self.update_batches + batch,
            )
            for batch in range(self.update_batches)
        ]
        queries = [
            NNQuery(Point(uniform(0.0, self.region), uniform(0.0, self.region)), K)
            for _ in range(self.queries)
        ]
        return updates, queries

    # -- system under test ------------------------------------------------------
    def build(self, client, setup_inputs, work_dir: str):
        config = MoistConfig(
            world=BoundingBox(0.0, 0.0, self.region, self.region),
            storage_level=12,
            enable_schools=False,
            deviation_threshold=0.0,
        )
        cluster = client.call(
            "build", 0, lambda: ServerCluster(MoistIndexer(config), 5)
        )
        for batch in setup_inputs:
            self._send_updates(cluster, batch, client, None, kind="preload")
        return cluster

    def _send_updates(self, cluster, batch, client, check, kind="update") -> None:
        applied = client.call(kind, len(batch), cluster.submit_update_batch, batch)
        if applied is None:
            return
        client.expect(applied == len(batch), len(batch) - applied,
                      f"{kind} batch applied {applied} of {len(batch)}")
        if self.oracle:
            for message in batch:
                self.positions[message.object_id] = (
                    message.location.x, message.location.y
                )
        if check is not None:
            check.note("applied", applied)

    def run_round(self, cluster, index: int, inputs, client, check) -> None:
        updates, queries = inputs
        for batch in updates:
            self._send_updates(cluster, batch, client, check)
        if queries:
            answers = client.call(
                "query", len(queries), cluster.submit_query_batch, queries
            )
            check.answers(client, queries, answers,
                          self.positions if self.oracle else None)

    def sim_clock(self, cluster) -> float:
        return cluster.makespan_seconds()

    def indexer_of(self, cluster):
        return cluster.indexer

    def backend_of(self, cluster):
        return cluster.indexer.emulator

    def finish(self, cluster, check) -> None:
        """Fold end-of-run state into the fingerprint."""
        indexer = cluster.indexer
        check.note("objects", indexer.object_count)
        check.note("shed", indexer.update_stats.shed)


class UpdateStream(_UniformWorkload):
    name = "update_stream"
    update_batches = 8
    rounds_per_second = 4.0


class NNQueryStream(_UniformWorkload):
    name = "nn_query_stream"
    queries = 256
    rounds_per_second = 4.5


class MixedRW(_UniformWorkload):
    name = "mixed_rw"
    update_batches = 8
    queries = 128
    rounds_per_second = 3.0


class FederationDisk(_UniformWorkload):
    """Eight shard groups on two forked workers, every table persisted to
    real files, ``respawn`` supervision checkpointing after every batch.

    ``rung`` selects a lower rung of the backend ladder for the traced pass,
    which runs the same stream on each to price the rungs apart."""

    name = "federation_disk"
    objects = 3000
    update_batches = 4
    queries = 64
    rounds_per_second = 2.5
    #: The shards preload themselves from the recipe, so the client has no
    #: model of the initial positions; determinism is checked instead (the
    #: ladder's in-process rung must reproduce this run's fingerprint).
    oracle = False
    #: rung -> (backend, supervision policy, tables persisted to files).
    #: ``twin`` keeps every shard in the client's own process but still
    #: writes real files: where the worker-side calls can be probed.
    RUNGS = {
        "inprocess": ("inprocess", None, False),
        "process": ("process", None, False),
        "disk": ("disk", None, True),
        "respawn": ("disk", "respawn", True),
        "twin": ("inprocess", None, True),
    }

    def __init__(self, seed: int, smoke: bool = False, rung: str = "respawn") -> None:
        super().__init__(seed, smoke)
        self.backend, self.supervision_policy, self.persist = self.RUNGS[rung]

    def setup_inputs(self):
        return []

    def build(self, client, setup_inputs, work_dir: str):
        options = dict(
            backend=self.backend,
            num_workers=2,
            supervision_policy=self.supervision_policy,
            num_servers=2,
            num_objects=self.num_objects,
            seed=self.seed,
            tablet_options=TabletOptions(memtable_flush_rows=128, compaction_max_runs=4),
        )
        if self.persist:
            options["storage_dir"] = work_dir
        return client.call("build", 0, lambda: ScaleOutCluster.build(8, **options))

    def indexer_of(self, cluster):
        return None

    def backend_of(self, cluster):
        return cluster.backend

    def finish(self, cluster, check) -> None:
        pass

    def close(self, cluster) -> None:
        cluster.close()


class SchoolTracking(_Workload):
    """``MoistIndexer(school_config())`` fed a dense road network through
    the library facade, one simulated second per round."""

    name = "school_tracking"
    objects = 2000
    rounds_per_second = 9.0
    warmup_steps = 10
    queries = 64
    history_reads = 32
    archive_every = 10
    map_size = 300.0
    oracle = True

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.road = RoadNetworkWorkload(dense_road_config(self.num_objects, seed=seed))
        self.config = replace(school_config(self.map_size), aging_interval_s=20.0)
        #: Last reported message per object: the truth ``location_of`` is
        #: checked against (the paper's bound is the deviation threshold).
        self.truth: Dict[str, UpdateMessage] = {}
        self.archived = 0
        self.history_records = 0

    def setup_inputs(self):
        """The first simulated seconds: every object registers and one
        clustering pass runs, so timing starts with schools in place."""
        return [self.road.advance_to(float(step))
                for step in range(1, self.warmup_steps + 1)]

    def round_inputs(self, index: int):
        now = float(self.warmup_steps + 1 + index)
        messages = self.road.advance_to(now)
        uniform = self.rng.uniform
        randrange = self.rng.randrange
        queries = [
            NNQuery(Point(uniform(0.0, self.map_size), uniform(0.0, self.map_size)), K)
            for _ in range(self.queries)
        ]
        ids = [format_object_id(randrange(self.num_objects))
               for _ in range(2 * self.history_reads)]
        return now, messages, queries, ids

    def build(self, client, setup_inputs, work_dir: str):
        indexer = client.call("build", 0, lambda: MoistIndexer(self.config))
        for step, messages in enumerate(setup_inputs, 1):
            self._step_updates(indexer, float(step), messages, client, "preload")
        return indexer

    def _step_updates(self, indexer, now, messages, client, kind) -> None:
        before = indexer.update_stats.total
        if client.call(kind, len(messages), indexer.update_many, messages) is None:
            return
        applied = indexer.update_stats.total - before
        client.expect(applied == len(messages), len(messages) - applied,
                      f"update_many took {applied} of {len(messages)}")
        for message in messages:
            self.truth[message.object_id] = message
        client.call("cluster" if kind == "update" else kind, 0,
                    indexer.run_due_clustering, now)

    @staticmethod
    def _history_reads(indexer, ids, now):
        half = len(ids) // 2
        histories = [indexer.object_history(object_id) for object_id in ids[:half]]
        locations = [indexer.location_of(object_id, now) for object_id in ids[half:]]
        return histories, locations

    def run_round(self, indexer, index: int, inputs, client, check) -> None:
        now, messages, queries, ids = inputs
        self._step_updates(indexer, now, messages, client, "update")
        answers = client.call(
            "query", len(queries), indexer.nearest_neighbors_batch,
            queries, True, now,
        )
        check.answers(client, queries, answers, None)
        reads = client.call(
            "history", len(ids), self._history_reads, indexer, ids, now
        )
        if reads is not None:
            histories, locations = reads
            self.history_records += sum(len(history) for history in histories)
            check.note("history", [len(history) for history in histories])
            check.note("located", [(p.x, p.y) for p in locations])
            # A follower's own rows are dropped when it joins a school, so an
            # empty history is a valid answer; an unordered one is not.
            unordered = sum(
                1 for history in histories
                if any(a.timestamp > b.timestamp for a, b in zip(history, history[1:]))
            )
            client.expect(unordered == 0, unordered, "object_history out of time order")
            # Sanity bound on follower estimation: a shed update was within
            # the deviation threshold of its estimate when it was shed, so a
            # location twice that far from the last report is a wrong answer.
            limit = 2.0 * self.config.deviation_threshold
            half = len(ids) // 2
            far = 0
            for object_id, point in zip(ids[half:], locations):
                reported = self.truth[object_id].as_record().extrapolated(now)
                if point.distance_to(reported) > limit:
                    far += 1
            client.expect(far == 0, far, "location_of beyond twice the deviation threshold")
        if (index + 1) % self.archive_every == 0:
            moved = client.call("archive", 0, indexer.archive_aged, now)
            if moved is not None:
                self.archived += moved["archived"]
                check.note("archived", sorted(moved.items()))

    def sim_clock(self, indexer) -> float:
        return indexer.simulated_seconds

    def indexer_of(self, indexer):
        return indexer

    def backend_of(self, indexer):
        return indexer.emulator

    def finish(self, indexer, check) -> None:
        check.note("objects", indexer.object_count)
        check.note("schools", indexer.school_count)
        check.note("shed", indexer.update_stats.shed)
        check.note("archived_total", self.archived)
        check.note("history_records", self.history_records)


WORKLOADS = {
    cls.name: cls
    for cls in (UpdateStream, NNQueryStream, MixedRW, SchoolTracking, FederationDisk)
}
