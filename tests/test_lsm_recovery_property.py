"""Property test: crash recovery is invisible.

A Hypothesis-style randomized loop over seeds: generate a random mutation
sequence (writes, overwrites, cell/row deletes, batches, group commits,
aging passes, explicit flushes and compactions), run it twice against
identically configured tables, crash-and-recover one of them at a random
point mid-sequence, and require the final states to be indistinguishable —
same tablet boundaries, same keys, same full row contents, same subsequent
read results.  The engine knobs are randomized per seed too, so the space
covered includes tiny memtables (flush/compaction-heavy), tight split
thresholds (runs sliced across tablets) and the default no-flush engine
(pure log replay)."""

import random

import pytest

from repro.bigtable.table import Table

from shard_harness import apply_op, bare_table, single_shard_client, state_of


def build_table(rng: random.Random) -> Table:
    return bare_table(knob_dict(rng))


def random_ops(rng: random.Random, length: int):
    """A reproducible random mutation program (list of opcode tuples)."""
    ops = []
    key_space = [f"k{rng.randrange(40):03d}" for _ in range(length)]
    for step in range(length):
        key = rng.choice(key_space)
        roll = rng.random()
        if roll < 0.55:
            ops.append(("write", key, rng.randrange(1000), float(step)))
        elif roll < 0.65:
            ops.append(("delete_cell", key))
        elif roll < 0.75:
            ops.append(("delete_row", key))
        elif roll < 0.85:
            batch = [
                (rng.choice(key_space), rng.randrange(1000), float(step) + i / 10.0)
                for i in range(rng.randrange(1, 6))
            ]
            ops.append(("batch_write", batch))
        elif roll < 0.90:
            group = [
                (rng.choice(key_space), rng.randrange(1000), float(step) + i / 10.0)
                for i in range(rng.randrange(1, 8))
            ]
            ops.append(("group_commit", group))
        elif roll < 0.94:
            ops.append(("age_out", float(step) * 0.5))
        elif roll < 0.97:
            ops.append(("flush",))
        else:
            ops.append(("compact", rng.random() < 0.3))
    return ops


@pytest.mark.parametrize("seed", range(12))
def test_crash_recovery_equals_uncrashed_reference(seed):
    rng = random.Random(1000 + seed)
    ops = random_ops(rng, length=120)
    crash_at = rng.randrange(len(ops) + 1)

    knob_rng = random.Random(2000 + seed)
    reference = build_table(knob_rng)
    crashed = build_table(random.Random(2000 + seed))  # identical knobs

    for op in ops:
        apply_op(reference, op)
    for op in ops[:crash_at]:
        apply_op(crashed, op)
    report = crashed.recover()
    assert report.simulated_seconds >= 0.0
    for op in ops[crash_at:]:
        apply_op(crashed, op)

    assert state_of(crashed) == state_of(reference), (
        f"seed {seed}: state diverged after crash at op {crash_at}/{len(ops)}"
    )


def knob_dict(rng: random.Random) -> dict:
    """Random engine knobs, as a plain dict the cross-process variant can
    ship over the RPC wire."""
    return {
        "split_threshold": rng.choice([8, 16, 64]),
        "merge_threshold": 4,
        "group_commit_size": rng.choice([4, 16, 256]),
        "memtable_flush_rows": rng.choice([None, 4, 16, 64]),
        "compaction_max_runs": rng.choice([2, 3, 8]),
    }


@pytest.mark.parametrize("backend", ["inprocess", "process", "disk"])
@pytest.mark.parametrize("seed", [0, 5])
def test_crash_recovery_property_holds_across_process_boundary(backend, seed):
    """The PR 4 property, with the crashed table living behind the shard
    RPC boundary: same ops, same knobs, same crash point — the remote
    table's recovered state must equal the local uncrashed reference.
    The ``disk`` backend runs the same program with the remote table
    additionally persisting every mutation to real files."""
    rng = random.Random(1000 + seed)
    ops = random_ops(rng, length=120)
    crash_at = rng.randrange(len(ops) + 1)
    knobs = knob_dict(random.Random(2000 + seed))

    reference = bare_table(knobs)
    for op in ops:
        apply_op(reference, op)

    with single_shard_client(backend, table_knobs=knobs) as client:
        client.call("table_apply", ops[:crash_at])
        assert client.call("table_recover") >= 0.0
        client.call("table_apply", ops[crash_at:])
        assert client.call("table_state") == state_of(reference), (
            f"seed {seed} ({backend}): state diverged after remote crash "
            f"at op {crash_at}/{len(ops)}"
        )


@pytest.mark.parametrize("seed", range(6))
def test_double_crash_recovery_is_idempotent(seed):
    rng = random.Random(5000 + seed)
    ops = random_ops(rng, length=80)
    table = build_table(random.Random(6000 + seed))
    for op in ops:
        apply_op(table, op)
    before = state_of(table)
    table.recover()
    assert state_of(table) == before
    table.recover()  # crashing immediately again replays the same tail
    assert state_of(table) == before
