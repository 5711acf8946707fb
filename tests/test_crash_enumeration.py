"""Every file call of the request log and the snapshot, failed in turn.

A seeded run of :func:`~repro.server.worker.dispatch_request` requests —
updates, queries and the master's rebalance, long enough to cross one
snapshot — is repeated once per file call the store makes after the build:
for each of ``write``, ``fsync``, ``replace``, ``remove`` and
``ftruncate``, run ``k`` fails the ``k``-th call of that kind with an
``OSError``.  The request that raised is
the one the crash interrupted: the shard is abandoned, a fresh
:class:`~repro.server.worker.ShardService` restores from the same
directory, the interrupted request is resent under its id, and the run
finishes.  Whatever the call, the shard must end exactly where an
uncrashed run ends: accounting sections and full rows alike.
"""

from __future__ import annotations

import os
import random
from time import perf_counter

import pytest

import repro.disk.store as store_module
from repro.bigtable.tablet import TabletOptions
from repro.server import rpc
from repro.server.worker import SNAPSHOT_EVERY, ShardRecipe, dispatch_request

from shard_harness import full_row_signature
from test_persistence_path import RESPAWN_ID, _build, _messages, _queries

#: The run: enough requests to cross the first snapshot after the build.
NUM_REQUESTS = SNAPSHOT_EVERY + 8


CALLS = ("write", "fsync", "replace", "remove", "ftruncate")


class _FailingOs:
    """The ``os`` module as the store sees it, its ``k``-th call of one
    kind failing (``k`` of 0 fails none, and counts them).  An ``fsync``
    is counted but not issued: what this test crashes is the process,
    never the machine, so the page cache always survives."""

    def __init__(self, kind: str, fail_at: int) -> None:
        self.fail_at = fail_at
        self.calls = 0
        for name in CALLS:
            real = (lambda fd: None) if name == "fsync" else getattr(os, name)
            setattr(self, name, self._counted(real) if name == kind else real)

    def __getattr__(self, name):
        return getattr(os, name)

    def _counted(self, real):
        def call(*args):
            self.calls += 1
            if self.calls == self.fail_at:
                raise OSError(f"injected: call {self.calls} fails")
            return real(*args)

        return call


def _recipe(storage_dir) -> ShardRecipe:
    return ShardRecipe(
        num_objects=30,
        seed=7,
        num_servers=2,
        with_master=True,
        storage_dir=str(storage_dir),
        tablet_options=TabletOptions(
            split_threshold=24, merge_threshold=6, memtable_flush_rows=16,
            compaction_max_runs=2,
        ),
    )


def _requests():
    """``(request id, opcode, body)`` of the seeded run."""
    rng = random.Random(23)
    out = []
    for index in range(NUM_REQUESTS):
        if index % 10 == 9:
            opcode, body = rpc.OP_CALL, rpc.encode_call("rebalance", (), {})
        elif index % 4 == 3:
            opcode, body = rpc.OP_QUERY_BATCH, rpc.encode_query_batch(
                _queries(rng.randrange(1 << 30), count=1)
            )
        else:
            opcode, body = rpc.OP_UPDATE_BATCH, rpc.encode_update_batch(
                _messages(rng.randrange(1 << 30), count=4, timestamp=1.0 + index)
            )
        out.append((10 + index, opcode, body))
    return out


REQUESTS = _requests()


def _outcome(services) -> tuple:
    service = services[0]
    return repr(service.accounting_state()), full_row_signature(service.cluster.indexer)


def _run(storage_dir, monkeypatch, kind: str, fail_at: int):
    """The seeded run, its ``fail_at``-th ``kind`` call after the build
    failing; returns the shard's final outcome, the count of those calls
    and the request the failure interrupted (``None``: it never raised)."""
    recipe = _recipe(storage_dir)
    failing = _FailingOs(kind, 0)
    monkeypatch.setattr(store_module, "os", failing)
    services = _build(recipe)
    failing.calls, failing.fail_at = 0, fail_at
    interrupted = None
    for index, (request_id, opcode, body) in enumerate(REQUESTS):
        try:
            dispatch_request(services, 0, opcode, body, request_id)
        except OSError:
            interrupted = index
            break
    if interrupted is not None:
        services = _build(recipe, RESPAWN_ID)  # the respawn
        for request_id, opcode, body in REQUESTS[interrupted:]:
            dispatch_request(services, 0, opcode, body, request_id)
    calls = failing.calls
    monkeypatch.setattr(store_module, "os", os)
    return _outcome(services), calls, interrupted


@pytest.mark.parametrize("kind", CALLS)
def test_every_file_call_failed_in_turn_ends_where_the_uncrashed_run_ends(
    tmp_path, monkeypatch, kind
):
    reference, total, interrupted = _run(tmp_path / "reference", monkeypatch, kind, 0)
    assert interrupted is None and total > 0
    interrupted_at = set()
    for fail_at in range(1, total + 1):
        outcome, _, interrupted = _run(
            tmp_path / f"k{fail_at}", monkeypatch, kind, fail_at
        )
        assert outcome == reference, f"{kind} call {fail_at} of {total}"
        interrupted_at.add(interrupted)
    if kind in ("write", "fsync"):  # every request's append, failed once
        assert set(range(NUM_REQUESTS)) <= interrupted_at
    elif kind == "remove":  # best effort: the next snapshot retries it
        assert interrupted_at == {None}
    else:  # the snapshot's rename, the log's reset
        assert interrupted_at == {SNAPSHOT_EVERY - 1}


def test_a_restore_replaying_a_full_log_is_quick(tmp_path, monkeypatch):
    # A shard the size of one federation_disk shard, its log holding
    # SNAPSHOT_EVERY requests: the most a restore ever re-runs (the last
    # one's snapshot never reached the disk).
    recipe = ShardRecipe(
        num_objects=375,
        seed=59,
        num_servers=2,
        storage_dir=str(tmp_path),
        tablet_options=TabletOptions(memtable_flush_rows=128, compaction_max_runs=4),
    )
    first = _build(recipe)
    monkeypatch.setattr("repro.server.worker.SNAPSHOT_EVERY", SNAPSHOT_EVERY + 1)
    for index in range(SNAPSHOT_EVERY):
        if index % 2:
            opcode, body = rpc.OP_QUERY_BATCH, rpc.encode_query_batch(
                _queries(index, count=8)
            )
        else:
            opcode, body = rpc.OP_UPDATE_BATCH, rpc.encode_update_batch(
                _messages(index, count=96, timestamp=1.0 + index)
            )
        dispatch_request(first, 0, opcode, body, 10 + index)
    monkeypatch.undo()
    started = perf_counter()
    second = _build(recipe, RESPAWN_ID)
    elapsed = perf_counter() - started
    assert _outcome(second) == _outcome(first)
    assert elapsed <= 0.5, f"restore took {elapsed:.3f} s"
