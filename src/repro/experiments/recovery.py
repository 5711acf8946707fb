"""Crash-recovery experiment: recovery time and write amplification vs
memtable size.

The LSM storage engine trades durability work for recovery speed
through one knob — the memtable flush threshold:

* a **small memtable** flushes often, so the commit log stays short and a
  crashed tablet server replays few records, but every flush (and the
  compactions it triggers) rewrites rows into SSTable runs, inflating write
  amplification;
* a **large memtable** keeps write amplification near the log-only floor of
  1.0 but leaves a long log tail to replay after a crash.

This harness drives the headline batched update workload through a server
cluster for each swept memtable size, crashes the cluster
(:meth:`~repro.server.cluster.ServerCluster.crash_and_recover`), and
reports simulated recovery time, log records replayed, SSTable runs
re-opened and the worst per-tablet write amplification.  It also verifies —
per point — that recovery was lossless: tablet boundaries, row keys and a
sample of NN query results must be bit-identical to the pre-crash state
(the same invariant the recovery property tests enforce).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.bigtable.tablet import TabletOptions
from repro.core.moist import MoistIndexer
from repro.errors import ReproError
from repro.experiments.common import uniform_leader_indexer
from repro.experiments.report import FigureResult
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import UpdateMessage, format_object_id
from repro.server.cluster import ServerCluster
from repro.workload.queries import NNQueryWorkload


def _update_stream(
    num_objects: int, num_updates: int, region_size: float, seed: int
) -> List[UpdateMessage]:
    """A deterministic stream of location updates over known objects."""
    rng = random.Random(seed)
    return [
        UpdateMessage(
            object_id=format_object_id(rng.randrange(num_objects)),
            location=Point(
                rng.uniform(0.0, region_size), rng.uniform(0.0, region_size)
            ),
            velocity=Vector(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
            timestamp=float(index) / 10.0,
        )
        for index in range(num_updates)
    ]


def _state_signature(indexer: MoistIndexer) -> Tuple:
    """Tablet boundaries and row keys of every table (bit-compare helper)."""
    emulator = indexer.emulator
    signature = []
    for name in emulator.table_names():
        table = emulator.table(name)
        signature.append(
            (
                name,
                tuple(
                    (tablet.tablet_id, tablet.start_key, tablet.row_count)
                    for tablet in table.tablets()
                ),
                tuple(table.all_keys()),
            )
        )
    return tuple(signature)


def _nn_signature(indexer: MoistIndexer, queries) -> Tuple:
    """NN results (ids and distances) for a fixed query sample."""
    out = []
    for query in queries:
        for neighbor in indexer.nearest_neighbors(
            query.location, query.k, range_limit=query.range_limit
        ):
            out.append((neighbor.object_id, round(neighbor.distance, 12)))
    return tuple(out)


def run_recovery(
    memtable_sizes: Sequence[Optional[int]] = (256, 512, 1024, None),
    num_objects: int = 3000,
    num_updates: int = 4000,
    num_servers: int = 5,
    num_queries: int = 40,
    batch_size: int = 256,
    seed: int = 59,
) -> FigureResult:
    """Recovery time / write amplification vs memtable flush threshold.

    ``None`` in ``memtable_sizes`` means "never flush" (the engine default):
    recovery replays the entire commit log — the x axis plots it as
    ``num_updates`` (an effectively unbounded memtable flushes at most once
    per workload anyway).
    """
    result = FigureResult(
        figure_id="recovery",
        title="Crash recovery time and write amplification vs memtable size",
        x_label="memtable flush threshold (rows)",
        y_label="recovery time (simulated ms)",
    )
    xs: List[float] = []
    recovery_ms: List[float] = []
    replayed: List[float] = []
    runs_opened: List[float] = []
    max_amplification: List[float] = []
    messages = _update_stream(num_objects, num_updates, 1000.0, seed + 1)
    for size in memtable_sizes:
        options = TabletOptions(memtable_flush_rows=size)
        indexer = uniform_leader_indexer(
            num_objects, seed=seed, tablet_options=options
        )
        cluster = ServerCluster(indexer, num_servers=num_servers)
        for offset in range(0, len(messages), batch_size):
            cluster.submit_update_batch(messages[offset : offset + batch_size])
        queries = NNQueryWorkload(indexer.config.world, k=10, seed=seed + 2).batch(
            num_queries
        )
        state_before = _state_signature(indexer)
        nn_before = _nn_signature(indexer, queries)
        report = cluster.crash_and_recover()
        if _state_signature(indexer) != state_before:
            raise ReproError("recovery lost table state")  # pragma: no cover
        if _nn_signature(indexer, queries) != nn_before:
            raise ReproError("recovery changed NN results")  # pragma: no cover
        tablet_amplifications = [
            stats.write_amplification for stats in indexer.emulator.tablet_stats()
        ]
        xs.append(float(size) if size is not None else float(num_updates))
        recovery_ms.append(report.simulated_seconds * 1e3)
        replayed.append(float(report.log_records_replayed))
        runs_opened.append(float(report.runs_opened))
        max_amplification.append(max(tablet_amplifications))
    result.add_series("recovery ms", xs, recovery_ms)
    result.add_series("log records replayed", xs, replayed)
    result.add_series("runs opened", xs, runs_opened)
    result.add_series("max tablet write amplification", xs, max_amplification)
    result.add_note(
        f"{num_updates} batched updates over {num_objects} objects on "
        f"{num_servers} servers; each point crashes every tablet server and "
        f"replays commit logs over SSTable runs; recovery verified "
        f"bit-identical (boundaries, keys, {num_queries} NN queries)"
    )
    result.add_note(
        "rightmost point = flushing disabled (engine default): longest "
        "replay, write amplification 1.0 (log only)"
    )
    return result
