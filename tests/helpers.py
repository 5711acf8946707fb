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
    return sum(len(tablet.log) for table in tables for tablet in table.tablets())


def cell_for(spatial_table, location: Point) -> CellId:
    """The storage-level cell of a spatial index table containing
    ``location`` (the cell whose key range holds its row)."""
    return CellId.from_xy(
        location.x, location.y, spatial_table.storage_level, spatial_table.world
    )


class KillBeforeAck:
    """Once armed, the first worker to checkpoint a request of one kind
    SIGKILLs itself right after the checkpoint — applied, recorded and on
    disk, its ack never sent — once, across workers and respawns (an
    ``O_EXCL`` flag file).  Every resend the exactly-once slot replays is
    logged, so a test can check that the killed request, and only it, came
    back from the slot.  Workers are forked: they and their respawns
    inherit the patches.
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
        checkpoint = ShardService._write_accounting_checkpoint
        apply_once = ShardService._apply_once

        def dying_checkpoint(service):
            checkpoint(service)
            slot = service._slot
            if (
                os.path.exists(self._armed)
                and slot is not None
                and slot[1] == opcode
                and matches(slot[2])
            ):
                try:
                    flag = os.open(self._fired, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    return  # fired already: a respawn's rebuild, or a later one
                os.write(flag, f"{slot[0]} {slot[1]}\n".encode())
                os.close(flag)
                os.kill(os.getpid(), signal.SIGKILL)

        def logging_apply_once(service, request_id, kind, lap, apply):
            replay = service._slot is not None and service._slot[0] == request_id
            result = apply_once(service, request_id, kind, lap, apply)
            if replay:
                with open(self._replays, "a") as log:
                    log.write(f"{request_id} {kind}\n")
            return result

        monkeypatch.setattr(ShardService, "_write_accounting_checkpoint", dying_checkpoint)
        monkeypatch.setattr(ShardService, "_apply_once", logging_apply_once)

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


class TearCheckpoint:
    """Once armed, the first worker to overwrite a blob slot in place for a
    request of one kind writes half of the slot and SIGKILLs itself —
    applied, its checkpoint torn, its ack never sent — once, across workers
    and respawns (an ``O_EXCL`` flag file).  Workers are forked: they and
    their respawns inherit the patches.
    """

    def __init__(self, monkeypatch, folder: str, opcode: int) -> None:
        self._armed = os.path.join(folder, "armed")
        self._fired = os.path.join(folder, "fired")
        checkpoint = ShardService._write_accounting_checkpoint
        pwrite = os.pwrite
        #: The slot's opcode while a checkpoint runs in this process.
        writing = []

        def tracked_checkpoint(service):
            writing.append(None if service._slot is None else service._slot[1])
            try:
                checkpoint(service)
            finally:
                writing.pop()

        def tearing_pwrite(fd, data, offset):
            if writing and writing[-1] == opcode and os.path.exists(self._armed):
                try:
                    flag = os.open(self._fired, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    return pwrite(fd, data, offset)
                os.close(flag)
                pwrite(fd, data[: len(data) // 2], offset)
                os.kill(os.getpid(), signal.SIGKILL)
            return pwrite(fd, data, offset)

        monkeypatch.setattr(ShardService, "_write_accounting_checkpoint", tracked_checkpoint)
        monkeypatch.setattr(os, "pwrite", tearing_pwrite)

    def arm(self) -> None:
        open(self._armed, "w").close()

    def fired(self) -> bool:
        return os.path.exists(self._fired)
