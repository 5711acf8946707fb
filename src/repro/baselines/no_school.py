"""MOIST without object schooling.

The paper's BigTable stress experiments set the error bound to zero so every
object is a leader ("we did these experiments under the worst case",
Section 4).  This factory builds a MOIST indexer in exactly that
configuration: schooling disabled, clustering never run, FLAG still
available.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.bigtable.cost import CostModel
from repro.bigtable.tablet import TabletOptions
from repro.core.config import MoistConfig
from repro.core.moist import MoistIndexer


def build_no_school_indexer(
    config: Optional[MoistConfig] = None,
    cost_model: Optional[CostModel] = None,
    enable_flag: bool = True,
    tablet_options: Optional[TabletOptions] = None,
    snapshot: Optional[object] = None,
) -> MoistIndexer:
    """A MOIST indexer with schooling turned off (every object is a leader)."""
    base = config or MoistConfig()
    worst_case = replace(base, enable_schools=False, deviation_threshold=0.0)
    return MoistIndexer(
        config=worst_case,
        cost_model=cost_model,
        enable_flag=enable_flag,
        tablet_options=tablet_options,
        snapshot=snapshot,
    )
