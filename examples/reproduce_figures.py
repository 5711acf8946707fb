"""Regenerate scaled-down versions of every figure in the paper's evaluation.

This is the quick, interactive counterpart to the benchmark suite: each
harness runs at a reduced scale (a few seconds each) and prints the same
table the corresponding benchmark produces at full scale.  The catalogue
is ``repro figures``'s own (``repro.cli``); this script only forwards to it.

Run with::

    python examples/reproduce_figures.py            # all figures
    python examples/reproduce_figures.py fig12 fig13  # a subset
"""

from __future__ import annotations

import sys

from repro.cli import main

if __name__ == "__main__":
    raise SystemExit(main(["figures", *sys.argv[1:]]))
