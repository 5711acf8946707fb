"""Real restart survival: SIGKILL a worker process, restart, compare bits.

The PR 4/PR 5 property suites prove recovery is lossless under *simulated*
crashes (memtables dropped, logs replayed, same process).  This suite
proves the real thing: a shard worker persisting to real files in a tmp
directory is killed with SIGKILL mid-workload — no atexit handlers, no
graceful shutdown frame, no flush — and a freshly forked worker pointed at
the same directory must rebuild bit-identical state from the snapshot, run
files and request log alone:

* same tablet boundaries and keys (``state_signature``);
* same full row contents (``full_row_signature``);
* same NN results for a fixed probe set (``nn_signature``);
* a bare :class:`~repro.bigtable.table.Table` killed mid-mutation-program
  (snapshotted at the end of each ``table_apply``) and restarted finishes
  the program with exactly the state of an uncrashed in-process reference.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.bigtable.process_backend import PipeTransport, WorkerPool
from repro.experiments.common import uniform_leader_indexer
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import UpdateMessage, format_object_id
from repro.server.worker import ShardRecipe
from repro.workload.queries import NNQueryWorkload

from shard_harness import HarnessClient, apply_op, bare_table, state_of
from test_lsm_recovery_property import knob_dict, random_ops


def _update_stream(rng, num_objects, count):
    return [
        UpdateMessage(
            object_id=format_object_id(rng.randrange(num_objects)),
            location=Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)),
            velocity=Vector(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
            timestamp=float(step) / 10.0,
        )
        for step, _ in enumerate(range(count))
    ]


def _kill_hard(pool: WorkerPool) -> None:
    """SIGKILL every worker (no shutdown frame, no chance to flush)."""
    for process in pool.processes:
        process.kill()
        process.join(timeout=10.0)
        assert not process.is_alive()
    pool.shutdown()


def test_killed_worker_restarts_bit_identical_indexer(tmp_path):
    num_objects = 300
    recipe = ShardRecipe(
        num_objects=num_objects,
        seed=11,
        num_servers=2,
        storage_dir=str(tmp_path),
    )
    rng = random.Random(42)
    messages = _update_stream(rng, num_objects, 400)
    queries = NNQueryWorkload(
        uniform_leader_indexer(10, seed=1).config.world, k=8, seed=3
    ).batch(20)

    pool = WorkerPool(1)
    client = HarnessClient(PipeTransport(pool), 0)
    client.call("build_indexer", recipe)
    client.update_batch(messages)
    client.query_batch(queries)
    before_state = client.call("state_signature")
    before_rows = client.call("full_row_signature")
    before_nn = client.call("nn_signature", queries)
    _kill_hard(pool)

    # The shard directory now holds real bytes written by the dead process:
    # the build's snapshot and the three mutating requests since.
    shard_dir = recipe.shard_storage_dir
    assert os.path.exists(os.path.join(shard_dir, "SNAPSHOT.bin"))
    assert os.path.getsize(os.path.join(shard_dir, "requests.log")) > 8

    pool = WorkerPool(1)
    try:
        client = HarnessClient(PipeTransport(pool), 0)
        client.call("build_indexer", recipe)
        assert client.call("state_signature") == before_state
        assert client.call("full_row_signature") == before_rows
        assert client.call("nn_signature", queries) == before_nn
    finally:
        pool.shutdown()


@pytest.mark.parametrize("seed", [0, 7])
def test_killed_worker_resumes_mutation_program_losslessly(tmp_path, seed):
    """Kill the worker mid-program; the restarted worker finishes the
    program and must match an uncrashed in-process reference exactly."""
    rng = random.Random(1000 + seed)
    ops = random_ops(rng, length=120)
    kill_at = rng.randrange(1, len(ops))
    knobs = knob_dict(random.Random(2000 + seed))
    storage_dir = str(tmp_path / "bare-table")

    reference = bare_table(knobs)
    for op in ops:
        apply_op(reference, op)

    pool = WorkerPool(1)
    client = HarnessClient(PipeTransport(pool), 0)
    client.call("build_table", knobs, storage_dir=storage_dir)
    client.call("table_apply", ops[:kill_at])
    _kill_hard(pool)

    pool = WorkerPool(1)
    try:
        client = HarnessClient(PipeTransport(pool), 0)
        # The knobs ride along but are ignored on restore: a restored
        # table takes its options from its snapshot.
        client.call("build_table", knobs, storage_dir=storage_dir)
        client.call("table_apply", ops[kill_at:])
        assert client.call("table_state") == state_of(reference), (
            f"seed {seed}: state diverged after SIGKILL at op "
            f"{kill_at}/{len(ops)}"
        )
    finally:
        pool.shutdown()


def test_restart_after_graceful_close_also_restores(tmp_path):
    """Restore is not kill-specific: a cleanly closed worker's files
    restore the same way (the snapshot/log pair is always current)."""
    recipe = ShardRecipe(
        num_objects=120, seed=5, num_servers=1, storage_dir=str(tmp_path)
    )
    rng = random.Random(9)
    messages = _update_stream(rng, 120, 150)

    with WorkerPool(1) as pool:
        client = HarnessClient(PipeTransport(pool), 0)
        client.call("build_indexer", recipe)
        client.update_batch(messages)
        before = client.call("full_row_signature")

    with WorkerPool(1) as pool:
        client = HarnessClient(PipeTransport(pool), 0)
        client.call("build_indexer", recipe)
        assert client.call("full_row_signature") == before
