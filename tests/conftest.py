"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, Set

import pytest

# Allow running the tests from a source checkout that has not been installed.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.bigtable.emulator import BigtableEmulator
from repro.core.config import MoistConfig
from repro.core.moist import MoistIndexer
from repro.geometry.bbox import BoundingBox

from helpers import make_update
import shard_harness  # noqa: F401  (registers the test-only worker verbs)


SMALL_WORLD = BoundingBox(0.0, 0.0, 100.0, 100.0)


def _child_pids() -> Set[int]:
    """This process's children, running or unreaped (``/proc`` stat field
    4 is the parent pid; field 2, the name, may hold spaces)."""
    me = os.getpid()
    children = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:  # exited since the listing
            continue
        if int(stat[stat.rindex(")") + 2 :].split()[1]) == me:
            children.add(int(entry))
    return children


def _open_fds() -> Dict[int, str]:
    """Open descriptor -> what it points at (the listing's own is left
    out)."""
    fds = {}
    for entry in os.listdir("/proc/self/fd"):
        try:
            fds[int(entry)] = os.readlink(f"/proc/self/fd/{entry}")
        except OSError:  # the listing's own descriptor, closed by now
            continue
    return fds


@pytest.fixture(scope="session", autouse=True)
def no_leaks(tmp_path_factory):
    """Fail the session when a forked worker, an open descriptor or a
    temp-directory entry outlives it — what a test (or the code it drives)
    forgot to close.  The session gets a private temp directory
    (``tempfile.tempdir`` and ``TMPDIR`` point at it), so only this
    session's own files count; pytest's ``basetemp`` is placed before the
    switch and stays outside it.  Linux only: the checks read ``/proc``."""
    if not sys.platform.startswith("linux"):
        yield
        return
    tmp_path_factory.getbasetemp()
    saved = tempfile.tempdir, os.environ.get("TMPDIR")
    temp = tempfile.mkdtemp(prefix="repro-tests-")
    tempfile.tempdir = os.environ["TMPDIR"] = temp
    children, fds = _child_pids(), _open_fds()
    yield
    tempfile.tempdir = saved[0]
    if saved[1] is None:
        del os.environ["TMPDIR"]
    else:
        os.environ["TMPDIR"] = saved[1]
    # pytest keeps the last failure's traceback for post-mortem debugging;
    # its frames would hold a failed test's pool and that pool's process
    # sentinels open, so a red test would also read as a leak.
    for name in ("last_type", "last_value", "last_traceback", "last_exc"):
        if hasattr(sys, name):
            delattr(sys, name)
    gc.collect()
    leaked = {
        "worker pids": sorted(_child_pids() - children),
        "open fds": sorted(
            f"{fd} -> {target}" for fd, target in _open_fds().items()
            if fds.get(fd) != target
        ),
        "temp entries": sorted(os.listdir(temp)),
    }
    shutil.rmtree(temp)
    leaked = {kind: found for kind, found in leaked.items() if found}
    if leaked:
        pytest.fail(f"the test session leaked {leaked}", pytrace=False)


@pytest.fixture
def small_config() -> MoistConfig:
    """A MOIST configuration on a 100x100 world with coarse levels, suited to
    tests that reason about exact cells and schools."""
    return MoistConfig(
        world=SMALL_WORLD,
        storage_level=8,
        nn_level_delta=2,
        clustering_cell_level=2,
        deviation_threshold=5.0,
        velocity_threshold=1.0,
        clustering_interval_s=10.0,
        sigma=4,
    )


@pytest.fixture
def indexer(small_config: MoistConfig) -> MoistIndexer:
    """A fresh MOIST indexer on the small world."""
    return MoistIndexer(small_config)


@pytest.fixture
def emulator() -> BigtableEmulator:
    """A fresh BigTable emulator."""
    return BigtableEmulator()


@pytest.fixture
def update_factory():
    """Expose :func:`make_update` as a fixture."""
    return make_update
