"""Shared configuration for the benchmark suite.

Every benchmark regenerates one table/figure of the paper through the
harnesses in ``repro.experiments`` and prints the resulting series, so the
console output of ``pytest benchmarks/ -s`` doubles as the reproduction
report.

Benchmarks are run with ``benchmark.pedantic(rounds=1, iterations=1)``: the
interesting measurements are the *simulated* costs computed inside each
experiment, not the wall-clock time of the harness itself, so repeating the
harness many times would only slow the suite down.  Nothing here reads the
wall clock (the ``wall-clock`` row of ``tests/test_fences.py``);
wall-clock performance is ``moistbench/``'s job.
"""

from __future__ import annotations

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
