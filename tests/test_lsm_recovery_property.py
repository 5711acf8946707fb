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

from repro.bigtable.table import ColumnFamily, Table
from repro.bigtable.tablet import TabletOptions


def build_table(rng: random.Random) -> Table:
    options = TabletOptions(
        split_threshold=rng.choice([8, 16, 64]),
        merge_threshold=4,
        group_commit_size=rng.choice([4, 16, 256]),
        memtable_flush_rows=rng.choice([None, 4, 16, 64]),
        compaction_max_runs=rng.choice([2, 3, 8]),
    )
    return Table(
        "t",
        [ColumnFamily("mem", max_versions=3), ColumnFamily("disk", max_versions=5)],
        options=options,
    )


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


def apply_op(table: Table, op) -> None:
    kind = op[0]
    if kind == "write":
        _, key, value, ts = op
        table.write(key, "mem", "q", value, ts)
    elif kind == "delete_cell":
        table.delete_cell(op[1], "mem", "q")
    elif kind == "delete_row":
        table.delete_row(op[1])
    elif kind == "batch_write":
        table.batch_write([(key, "mem", "q", value, ts) for key, value, ts in op[1]])
    elif kind == "group_commit":
        with table.group_commit():
            for key, value, ts in op[1]:
                table.write(key, "mem", "q", value, ts)
    elif kind == "age_out":
        table.age_out("mem", "disk", op[1])
    elif kind == "flush":
        table.flush_memtables()
    elif kind == "compact":
        table.compact_runs(major=op[1])


def state_of(table: Table):
    """Everything observable about a table's contents and sharding."""
    boundaries = tuple(
        (tablet.tablet_id, tablet.start_key, tablet.row_count)
        for tablet in table.tablets()
    )
    keys = tuple(table.all_keys())
    rows = tuple(repr(table.read_row(key, _charge=False)) for key in keys)
    return boundaries, keys, rows


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
    """The same knob draws as :func:`build_table`, as a plain dict the
    cross-process variant can ship over the RPC wire (dict literals
    evaluate in order, so the rng consumption matches draw for draw)."""
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
    from repro.bigtable.process_backend import single_shard_client

    rng = random.Random(1000 + seed)
    ops = random_ops(rng, length=120)
    crash_at = rng.randrange(len(ops) + 1)
    knobs = knob_dict(random.Random(2000 + seed))

    reference = Table(
        "t",
        [ColumnFamily("mem", max_versions=3), ColumnFamily("disk", max_versions=5)],
        options=TabletOptions(**knobs),
    )
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
