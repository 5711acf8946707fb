"""The session leak check charges a failing test with its failure only.

pytest keeps the last failure's traceback (``sys.last_traceback``) for
post-mortem debugging, and its frames hold whatever the failed test held.  A
test that shut its worker pool down and then failed still holds the pool's
process sentinels through that traceback, so ``conftest.no_leaks`` lets go
of it before it counts descriptors; otherwise one red test would also read
as a session-teardown leak.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

FAILING_POOL_TEST = '''
from repro.bigtable.process_backend import WorkerPool


def test_fails_holding_a_shut_down_pool():
    pool = WorkerPool(1)
    pool.shutdown()
    assert pool is None
'''


def _outcomes(summary: str) -> dict:
    """``"1 failed, 1 warning, 1 error in 0.9s"`` ->
    ``{"failed": 1, "warning": 1, "error": 1}``."""
    counts = summary.split(" in ")[0]
    return {kind: int(count) for count, kind in (part.split() for part in counts.split(", "))}


def test_a_failing_pool_test_is_one_failure_and_no_leak(tmp_path):
    # The repo's conftest is loaded as a plugin into a session of its own.
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    (tmp_path / "test_failing_pool.py").write_text(FAILING_POOL_TEST)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(TESTS), str(TESTS.parent / "src")]),
    )
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "conftest",
            "-p", "no:cacheprovider", f"--basetemp={tmp_path / 'basetemp'}",
            "test_failing_pool.py",
        ],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    # Warnings the child session prints are no concern of the leak check.
    outcomes = _outcomes(result.stdout.strip().splitlines()[-1])
    assert outcomes.get("failed") == 1, result.stdout
    assert "error" not in outcomes and "errors" not in outcomes, result.stdout
