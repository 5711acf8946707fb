"""Shared test helpers, imported explicitly (``from helpers import ...``).

These used to live in ``tests/conftest.py``, but ``from conftest import``
resolves through ``sys.path`` and could pick up ``benchmarks/conftest.py``
instead, depending on which directory pytest inserted first.  A dedicated
module keeps the import unambiguous.
"""

from __future__ import annotations

import os
import random
import signal
from typing import Any, Callable

from repro.bigtable.table import Table
from repro.codec.blocks import encode_request_frame
from repro.disk.store import ShardStore
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import UpdateMessage, format_object_id
from repro.server.worker import ShardService
from repro.spatial.cell import CellId
from repro.workload.queries import NNQuery


def make_update(
    index: int,
    x: float,
    y: float,
    vx: float = 1.0,
    vy: float = 0.0,
    t: float = 0.0,
) -> UpdateMessage:
    """Convenience constructor used across many tests."""
    return UpdateMessage(
        object_id=format_object_id(index),
        location=Point(x, y),
        velocity=Vector(vx, vy),
        timestamp=t,
    )


def make_messages(count, num_objects, seed=99):
    """A seeded update stream over ``num_objects`` objects on the
    1000 x 1000 world, one timestamp step per message."""
    rng = random.Random(seed)
    return [
        UpdateMessage(
            object_id=format_object_id(rng.randrange(num_objects)),
            location=Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)),
            velocity=Vector(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
            timestamp=float(index),
        )
        for index in range(count)
    ]


def make_queries(count, seed=7, k=5):
    """A seeded NN probe set on the same world."""
    rng = random.Random(seed)
    return [
        NNQuery(
            location=Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)),
            k=k,
        )
        for _ in range(count)
    ]


def log_record_count(*tables) -> int:
    """Unflushed commit-log records across every tablet of ``tables``."""
    return sum(tablet.log_records for table in tables for tablet in table.tablets())


def cell_for(spatial_table, location: Point) -> CellId:
    """The storage-level cell of a spatial index table containing
    ``location`` (the cell whose key range holds its row)."""
    return CellId.from_xy(
        location.x, location.y, spatial_table.storage_level, spatial_table.world
    )


def _fire_once(flag_path: str, note: str = "") -> bool:
    """Create the ``O_EXCL`` flag file; ``False`` when it already exists —
    the fault fired already, in this process, another worker or a respawn."""
    try:
        flag = os.open(flag_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.write(flag, note.encode())
    os.close(flag)
    return True


class KillBeforeAck:
    """Once armed, the first worker to apply a request of one kind
    SIGKILLs itself right after — logged and fsynced, applied and recorded,
    its ack never sent — once, across workers and respawns (an ``O_EXCL``
    flag file).  Every resend the exactly-once slot replays is logged, so a
    test can check that the killed request, and only it, came back from the
    slot.  Workers are forked: they and their respawns inherit the patch.
    """

    def __init__(
        self,
        monkeypatch,
        folder: str,
        opcode: int,
        matches: Callable[[Any], bool] = lambda result: True,
    ) -> None:
        self._armed = os.path.join(folder, "armed")
        self._fired = os.path.join(folder, "fired")
        self._replays = os.path.join(folder, "replays")
        apply_once = ShardService._apply_once

        def dying_apply_once(
            service, request_id, kind, body, lap, apply, replaying=False
        ):
            slot = service._slot
            replay = slot is not None and slot[0] == request_id
            result = apply_once(service, request_id, kind, body, lap, apply, replaying)
            if replaying:
                return result  # a restore re-running the log
            if replay:
                with open(self._replays, "a") as log:
                    log.write(f"{request_id} {kind}\n")
            elif (
                kind == opcode
                and os.path.exists(self._armed)
                and matches(result)
                and _fire_once(self._fired, f"{request_id} {kind}\n")
            ):
                os.kill(os.getpid(), signal.SIGKILL)
            return result

        monkeypatch.setattr(ShardService, "_apply_once", dying_apply_once)

    def arm(self) -> None:
        open(self._armed, "w").close()

    def killed(self) -> str:
        """``"<request id> <opcode>"`` of the request the kill landed on."""
        with open(self._fired) as flag:
            return flag.read()

    def replayed(self) -> str:
        """One ``"<request id> <opcode>"`` line per replayed resend."""
        if not os.path.exists(self._replays):
            return ""
        with open(self._replays) as log:
            return log.read()


class TearLogFrame:
    """Once armed, the first worker to log a request of one kind writes
    half of its frame and SIGKILLs itself — not applied, its frame torn,
    its ack never sent — once, across workers and respawns (an ``O_EXCL``
    flag file).  Workers are forked: they and their respawns inherit the
    patch.
    """

    def __init__(self, monkeypatch, folder: str, opcode: int) -> None:
        self._armed = os.path.join(folder, "armed")
        self._fired = os.path.join(folder, "fired")
        append = ShardStore.append

        def tearing_append(store, request_id, kind, body):
            if (
                kind == opcode
                and os.path.exists(self._armed)
                and _fire_once(self._fired)
            ):
                frame = encode_request_frame(request_id, kind, body)
                with open(os.path.join(store.root, "requests.log"), "ab") as log:
                    log.write(frame[: len(frame) // 2])
                os.kill(os.getpid(), signal.SIGKILL)
            return append(store, request_id, kind, body)

        monkeypatch.setattr(ShardStore, "append", tearing_append)

    def arm(self) -> None:
        open(self._armed, "w").close()

    def fired(self) -> bool:
        return os.path.exists(self._fired)


class KillAfterFlush:
    """Once armed, the first worker to flush a memtable inside an update
    request SIGKILLs itself right after the flush — the request half
    applied, its ack never sent — once, across workers and respawns (an
    ``O_EXCL`` flag file).  Workers are forked: they and their respawns
    inherit the patches.
    """

    def __init__(self, monkeypatch, folder: str) -> None:
        self._armed = os.path.join(folder, "armed")
        self._fired = os.path.join(folder, "fired")
        flush_tablet = Table._flush_tablet
        update_batch = ShardService.update_batch
        #: Non-empty while an update request applies in this process.
        updating = []

        def tracked_update_batch(service, messages):
            updating.append(None)
            try:
                return update_batch(service, messages)
            finally:
                updating.pop()

        def dying_flush_tablet(table, tablet):
            flushed = flush_tablet(table, tablet)
            if updating and os.path.exists(self._armed) and _fire_once(self._fired):
                os.kill(os.getpid(), signal.SIGKILL)
            return flushed

        monkeypatch.setattr(ShardService, "update_batch", tracked_update_batch)
        monkeypatch.setattr(Table, "_flush_tablet", dying_flush_tablet)

    def arm(self) -> None:
        open(self._armed, "w").close()

    def fired(self) -> bool:
        return os.path.exists(self._fired)
