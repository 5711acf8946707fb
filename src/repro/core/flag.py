"""FLAG — Fast Level Adaptive Grid (Section 3.4.2, Algorithms 3 and 4).

FLAG picks the NN cell level so that a visited NN cell holds roughly σ
objects.  Algorithm 3 starts from the level a *uniform* distribution would
imply (``ln = 1/2 · log2(n/σ)``), probes the actual object count in the cell
containing the query location, and moves the level by ``δ = 1/2 · log2(m/σ)``
until the bracket closes.  Algorithm 4 caches the chosen level per spatial
key range with a timestamp so repeated queries in the same area skip the
probing entirely.

The cache keeps its records in insertion order (which decides among several
covering records, and is what a checkpoint ships) and indexes them per level
by cell position: a lookup probes each level present — at most
``storage_level`` — once or twice, however many ranges are cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import MoistConfig
from repro.geometry.point import Point
from repro.spatial.cell import CellId
from repro.tables.spatial_index_table import SpatialIndexTable


@dataclass(frozen=True)
class LevelCacheRecord:
    """One cached NN level, valid over a spatial key range (Algorithm 4)."""

    __slots__ = ("level", "left_key", "right_key", "created_time")

    level: int
    left_key: str
    right_key: str
    created_time: float

    def covers(self, key: str) -> bool:
        """True when ``key`` falls inside the cached range, right bound
        *included*: ``right_key`` is the exclusive end of the cell's key
        range, so a record also answers for the first storage cell of the
        next same-level cell.  Deliberate by invariant — which lookups hit
        decides which recompute, hence the probe reads charged and every
        simulated number downstream.  :class:`FlagTuner`'s index reproduces
        it exactly; tightening the bound is a behaviour change of its own.
        """
        return self.left_key <= key <= self.right_key


@dataclass
class FlagStats:
    """Counters describing how often FLAG had to recompute levels."""

    lookups: int = 0
    cache_hits: int = 0
    recomputations: int = 0
    probe_reads: int = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups answered from the cache."""
        if self.lookups == 0:
            return 0.0
        return self.cache_hits / self.lookups


class FlagTuner:
    """Adaptive NN-level selection with caching."""

    def __init__(
        self,
        config: MoistConfig,
        spatial_table: SpatialIndexTable,
        total_objects_hint: Optional[int] = None,
    ) -> None:
        self.config = config
        self.spatial_table = spatial_table
        #: ``n`` in Algorithm 3 — the number of moving objects in the whole
        #: space.  The MOIST facade keeps this up to date; tests may pass a
        #: fixed hint.
        self.total_objects_hint = total_objects_hint
        self.stats = FlagStats()
        #: Every cached record, in insertion order.
        self._cache: List[LevelCacheRecord] = []
        #: ``level -> cell position at that level -> (rank, record)`` over
        #: ``_cache``; the rank is the record's insertion order.
        self._index: Dict[int, Dict[int, Tuple[int, LevelCacheRecord]]] = {}
        #: Smallest ``created_time`` held: no record is stale before
        #: ``now - _oldest_created`` exceeds the TTL.
        self._oldest_created = math.inf

    # ------------------------------------------------------------------
    # Algorithm 4: cache
    # ------------------------------------------------------------------
    def best_level(self, location: Point, now: float) -> int:
        """Cached NN level for ``location``, recomputing when stale/missing."""
        self.stats.lookups += 1
        storage_cell = CellId.from_point(
            location, self.config.storage_level, self.config.world
        )
        record = self._find_cached(storage_cell.pos, now)
        if record is not None:
            self.stats.cache_hits += 1
            return record.level
        level = self.compute_level(location)
        cell = CellId.from_point(location, level, self.config.world)
        self._insert(LevelCacheRecord(level, *cell.key_range(), now), cell.pos)
        return level

    def _insert(self, record: LevelCacheRecord, pos: int) -> None:
        """Append ``record`` (the level-``record.level`` cell at ``pos``).
        An equal cell already indexed keeps answering: first inserted wins."""
        self._index.setdefault(record.level, {}).setdefault(
            pos, (len(self._cache), record)
        )
        self._cache.append(record)
        if record.created_time < self._oldest_created:
            self._oldest_created = record.created_time

    def _rebuild(self, records: List[LevelCacheRecord]) -> None:
        """Replace the cache with ``records``, keeping their order."""
        self._cache = []
        self._index = {}
        self._oldest_created = math.inf
        for record in records:
            self._insert(record, CellId.from_token(record.left_key, record.level).pos)

    def _find_cached(
        self, storage_pos: int, now: float
    ) -> Optional[LevelCacheRecord]:
        """The first-inserted fresh record covering the storage cell at
        ``storage_pos``; stale records are purged first.  ``now`` is not
        monotone (predictive queries move it), so staleness is judged
        against this lookup's ``now`` only."""
        ttl = self.config.flag_cache_ttl_s
        if now - self._oldest_created > ttl:
            self._rebuild([r for r in self._cache if now - r.created_time <= ttl])
        covering: List[Tuple[int, LevelCacheRecord]] = []
        storage_level = self.config.storage_level
        for level, cells in self._index.items():
            shift = 2 * (storage_level - level)
            pos = storage_pos >> shift
            if pos in cells:
                covering.append(cells[pos])
            # The first storage cell of a level-``level`` cell carries the
            # previous cell's ``right_key``, which ``covers`` includes.
            if storage_pos == pos << shift and pos - 1 in cells:
                covering.append(cells[pos - 1])
        # Ranks are unique, so the records themselves are never compared.
        return min(covering)[1] if covering else None

    def invalidate(self) -> None:
        """Drop every cached level (e.g. after a clustering pass changed
        leader density substantially)."""
        self._rebuild([])

    # ------------------------------------------------------------------
    # Accounting checkpoints (supervised respawn)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Plain-data snapshot of the tuner: stats, cached level ranges and
        the object-count hint.  Cached ranges matter beyond reporting — a
        cold cache re-probes, charging reads the warm run never paid."""
        return {
            "stats": (
                self.stats.lookups,
                self.stats.cache_hits,
                self.stats.recomputations,
                self.stats.probe_reads,
            ),
            "cache": [
                (r.level, r.left_key, r.right_key, r.created_time)
                for r in self._cache
            ],
            "total_objects_hint": self.total_objects_hint,
        }

    def install_state(self, state: dict) -> None:
        """Restore a snapshot from :meth:`export_state`."""
        lookups, cache_hits, recomputations, probe_reads = state["stats"]
        self.stats = FlagStats(
            lookups=lookups,
            cache_hits=cache_hits,
            recomputations=recomputations,
            probe_reads=probe_reads,
        )
        self._rebuild([LevelCacheRecord(*fields) for fields in state["cache"]])
        self.total_objects_hint = state["total_objects_hint"]

    # ------------------------------------------------------------------
    # Algorithm 3: level computation
    # ------------------------------------------------------------------
    def compute_level(self, location: Point) -> int:
        """Probe local density and return the best NN level for ``location``."""
        self.stats.recomputations += 1
        total = self._total_objects()
        sigma = self.config.sigma
        level = self._initial_level(total, sigma)
        min_level = -math.inf
        max_level = math.inf
        for _ in range(self.config.storage_level):
            cell = CellId.from_point(location, level, self.config.world)
            # Probe the local density through the cheap row-count path: a
            # BigTable can answer "how many rows in this key range" from
            # tablet metadata, and at the storage level a row holds only a
            # handful of leaders, so the row count is a good object-count
            # estimate.  This keeps Algorithm 3's tuning loop from competing
            # with the queries it is trying to speed up.
            count = self.spatial_table.approximate_count_in_cell(cell)
            self.stats.probe_reads += 1
            delta = self._level_delta(count, sigma)
            if delta == 0:
                # The current level already yields ~sigma objects per cell.
                break
            if delta > 0:
                min_level = level
            else:
                max_level = level
            candidate = level + delta
            if candidate <= min_level or candidate >= max_level:
                break
            level = self._clamp(candidate)
        return self._clamp(level)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _total_objects(self) -> int:
        if self.total_objects_hint is not None and self.total_objects_hint > 0:
            return self.total_objects_hint
        # Fall back to the number of indexed leaders; correct when schools
        # are disabled and a safe underestimate otherwise.
        total = self.spatial_table.total_objects()
        return max(total, 1)

    def _initial_level(self, total_objects: int, sigma: int) -> int:
        """Line 1 of Algorithm 3: assume a uniform distribution."""
        if total_objects <= sigma:
            return 1
        return self._clamp(int(round(0.5 * math.log2(total_objects / sigma))))

    @staticmethod
    def _level_delta(count: int, sigma: int) -> int:
        """``δ = 1/2 · log2(m/σ)`` rounded to the nearest whole level."""
        if count <= 0:
            # An empty cell: coarsen aggressively by one level.
            return -1
        return int(round(0.5 * math.log2(count / sigma)))

    def _clamp(self, level: float) -> int:
        upper = self.config.storage_level
        return int(min(max(level, 1), upper))
