"""The scanner and the tablet-server block cache.

The write path is tablet-routed and batched; this module gives the read path
the same machinery.  A range read is routed to the tablets whose key ranges
intersect the requested interval and executed by a :class:`Scanner`, which
charges every scanned tablet's ledger (empty probes included, so cold
tablets show up in ``tablet_stats()``) and prices each tablet's rows
through the table's :class:`BlockCache` one slice per source, in one call.

The block cache models BigTable's tablet-server block cache (the SSTable
block LRU of the original paper's Section 6.3): rows live in fixed-size
*key blocks* — all rows sharing a row-key prefix — and a block that was
scanned recently is resident in the tablet server's memory.  Scanning a
warm block still costs the scan RPC (the client always makes the round
trip) but its rows are served at :attr:`~repro.bigtable.cost.CostModel.\
cache_read_row` instead of ``scan_row``, recorded under
:attr:`~repro.bigtable.cost.OpKind.CACHE_READ` so experiments can report
hit rates and cache-adjusted read time separately.  Mutating a row evicts
its block; tablet splits and merges evict every block of the tablets
involved (their rows moved to a different server).

The cache deliberately stores *no row data* — rows are always read from the
live tablet memtables, so a stale cache entry can mis-price a scan but never
return stale results.  Its LRU of ``(tablet, source, block)`` keys is its one
structure: a flush, compaction, split or merge evicts by sweeping it, which
is rare next to the lookups every scan makes.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.bigtable.cost import OpCounter
from repro.bigtable.lsm import MEMTABLE_SOURCE
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.bigtable.tablet import TabletLocator


@dataclass(frozen=True)
class BlockCacheOptions:
    """Configuration of one table's simulated block cache."""

    #: Maximum number of resident ``(tablet, block)`` entries before LRU
    #: eviction kicks in.
    capacity_blocks: int = 4096
    #: A key block is every row sharing this many leading row-key
    #: characters.  Spatial-index keys are 12 fixed-width hex digits, so the
    #: default groups rows by their top 24 curve bits — a few hundred
    #: storage cells per block at the experiment levels.
    block_prefix_len: int = 6

    def __post_init__(self) -> None:
        if self.capacity_blocks < 1:
            raise ConfigurationError("capacity_blocks must be >= 1")
        if self.block_prefix_len < 1:
            raise ConfigurationError("block_prefix_len must be >= 1")


@dataclass(frozen=True)
class TabletCacheStats:
    """Frozen per-tablet block-cache accounting row."""

    table: str
    tablet_id: str
    hits: int
    misses: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of block lookups served from the cache (0.0 when the
        tablet was never scanned)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class BlockCache:
    """LRU of warm ``(tablet, source, key-block)`` triples with hit/miss
    tallies.

    The cache is a *residency* model, not a data store: :meth:`price`
    answers "which of these rows' blocks would have been in the tablet
    server's memory?", bumping each warm block to most-recently-used and
    admitting each cold one.  ``source`` names where a block's rows live —
    an SSTable run id or :data:`MEMTABLE_SOURCE` — so a compaction can evict
    exactly the blocks of the runs it consumed.  The LRU, :attr:`lru` (other
    modules only read it), is the only structure: evictions sweep it.
    """

    def __init__(self, options: Optional[BlockCacheOptions] = None) -> None:
        self.options = options or BlockCacheOptions()
        self.lru: "OrderedDict[Tuple[str, str, str], None]" = OrderedDict()
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.lru)

    # ------------------------------------------------------------------
    # Lookup / admission
    # ------------------------------------------------------------------
    def price(self, tablet_id: str, source: str, row_keys: Sequence[str]) -> int:
        """Look up the blocks of one tablet's contiguous rows from one
        source; returns how many of the rows are warm (the rest are cold).

        Rows come in key order, so a block's rows are adjacent: the block is
        looked up at its first row and all its rows share the answer.  A
        warm block moves to most-recently-used; a cold one is admitted,
        evicting the least recently used block past capacity.  The tallies
        take the slice's hits and misses in one step each.
        """
        lru = self.lru
        capacity = self.options.capacity_blocks
        prefix_len = self.options.block_prefix_len
        hits = misses = warm = 0
        current = None
        for row_key in row_keys:
            block = row_key[:prefix_len]
            if block != current:
                current = block
                key = (tablet_id, source, block)
                block_warm = key in lru
                if block_warm:
                    lru.move_to_end(key)
                    hits += 1
                else:
                    lru[key] = None
                    if len(lru) > capacity:
                        lru.popitem(last=False)
                    misses += 1
            if block_warm:
                warm += 1
        if hits:
            self._hits[tablet_id] = self._hits.get(tablet_id, 0) + hits
        if misses:
            self._misses[tablet_id] = self._misses.get(tablet_id, 0) + misses
        return warm

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_row(self, tablet_id: str, row_key: str) -> None:
        """Evict the memtable block containing ``row_key`` (a mutation
        dirtied it).  Run blocks are immutable — a mutated row moves into
        the memtable and shadows its run versions, so only the memtable
        block changes."""
        lru = self.lru
        if lru:
            block = row_key[: self.options.block_prefix_len]
            lru.pop((tablet_id, MEMTABLE_SOURCE, block), None)

    def invalidate_source(self, tablet_id: str, source: str) -> None:
        """Evict every block served from one source of a tablet.

        A memtable flush evicts the :data:`MEMTABLE_SOURCE` blocks (those
        rows now live in the new, cold run); a compaction evicts the blocks
        of every run it consumed.
        """
        lru = self.lru
        for key in [key for key in lru if key[0] == tablet_id and key[1] == source]:
            del lru[key]

    def invalidate_tablet(self, tablet_id: str) -> None:
        """Evict every block of a tablet (it split, merged or cleared)."""
        lru = self.lru
        for key in [key for key in lru if key[0] == tablet_id]:
            del lru[key]

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def stats(self, table_name: str) -> List[TabletCacheStats]:
        """Per-tablet hit/miss rows for every tablet ever looked up."""
        tablet_ids = sorted(set(self._hits) | set(self._misses))
        return [
            TabletCacheStats(
                table=table_name,
                tablet_id=tablet_id,
                hits=self._hits.get(tablet_id, 0),
                misses=self._misses.get(tablet_id, 0),
            )
            for tablet_id in tablet_ids
        ]

    def reset_stats(self) -> None:
        """Zero the hit/miss tallies; resident blocks stay warm."""
        self._hits.clear()
        self._misses.clear()

    def clear(self) -> None:
        """Drop every resident block and every tally."""
        self.lru.clear()
        self.reset_stats()

    # ------------------------------------------------------------------
    # Accounting checkpoints (supervised respawn)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Plain-data snapshot of residency and tallies.

        The cache is pure accounting — ``(tablet, source, block)`` string
        keys in LRU order plus hit/miss counts, no row data — so the whole
        warmth model serialises exactly.  Every key repeats one of a few
        tablet and run ids, so each is named once and the LRU is parallel
        columns (``array("I")`` bytes): an index into either name tuple and
        each block's length in ``blocks``, the blocks end to end — a few
        values to encode where the keys would be thousands of strings."""
        tablets: Dict[str, int] = {}
        sources: Dict[str, int] = {}
        tablet_at, source_at, blocks = [], [], []
        for tablet_id, source, block in self.lru:
            tablet_at.append(tablets.setdefault(tablet_id, len(tablets)))
            source_at.append(sources.setdefault(source, len(sources)))
            blocks.append(block)
        return {
            "tablets": tuple(tablets),
            "sources": tuple(sources),
            "tablet_at": array("I", tablet_at).tobytes(),
            "source_at": array("I", source_at).tobytes(),
            "blocks": "".join(blocks),
            "block_len": array("I", map(len, blocks)).tobytes(),
            "hits": dict(self._hits),
            "misses": dict(self._misses),
        }

    def install_state(self, state: dict) -> None:
        """Restore a snapshot from :meth:`export_state`.  A snapshot whose
        columns do not cut ``blocks`` into exactly one distinct key per
        entry is refused with :class:`ValueError`, and leaves the cache as
        it was: nothing is assigned until the whole snapshot has been read."""
        tablets, sources, blocks = state["tablets"], state["sources"], state["blocks"]
        hits, misses = dict(state["hits"]), dict(state["misses"])
        tablet_at = array("I", state["tablet_at"])
        source_at = array("I", state["source_at"])
        block_len = array("I", state["block_len"])
        if not len(tablet_at) == len(source_at) == len(block_len):
            raise ValueError("block-cache snapshot columns differ in length")
        if sum(block_len) != len(blocks):
            raise ValueError("block-cache snapshot block lengths do not cover its blocks")
        lru: "OrderedDict[Tuple[str, str, str], None]" = OrderedDict()
        start = 0
        for tablet, source, length in zip(tablet_at, source_at, block_len):
            key = (tablets[tablet], sources[source], blocks[start : start + length])
            start += length
            lru[key] = None
        if len(lru) != len(block_len):
            raise ValueError("block-cache snapshot repeats a block key")
        self.lru, self._hits, self._misses = lru, hits, misses


class Scanner:
    """Executes range scans: streams rows, prices them through the block
    cache and mirrors the work onto every scanned tablet's ledger."""

    def __init__(
        self,
        counter: OpCounter,
        locator: "TabletLocator",
        cache: BlockCache,
    ) -> None:
        self.counter = counter
        self.locator = locator
        self.cache = cache

    def execute_range(
        self,
        start_key: Optional[str] = None,
        end_key: Optional[str] = None,
        limit: Optional[int] = None,
        project: Optional[Callable[[List[object]], List[object]]] = None,
        trace: Optional[List[tuple]] = None,
    ) -> List[Tuple[str, object]]:
        """Scan ``[start_key, end_key)``, returning ``(row_key, row)`` in
        key order.  The rows are the stored ones, not copies; with
        ``project`` each tablet's rows are replaced by ``project(rows)``
        (one entry per row, in order) as they are collected — the table's
        read shape, built without a second pass over the result.

        Charging: the shared ledger gets one ``SCAN`` RPC whose row count is
        the *cold* rows (rows in blocks the cache had to fault in) plus one
        ``CACHE_READ`` record over the warm rows; each scanned tablet's
        ledger mirrors its own share.  A tablet that yields no rows is
        still charged one scan row (it served the probe), which is what
        makes cold tablets visible in load reports.

        Rows come from the tablet's *merged* LSM view (memtable plus SSTable
        runs, newest version wins, tombstones skipped); the cache prices
        each row by the ``(tablet, source, block)`` it was served from,
        where the source is the run holding the winning version.  A
        run-free tablet's memtable is that view, so its rows are one slice
        of the sorted keys from one source; otherwise each run of
        consecutive rows from one source is priced as a slice.  A ``trace``
        list gets each scanned tablet's row keys and their sources, all that
        :meth:`replay` needs to charge the scan again.
        """
        results: List[Tuple[str, object]] = []
        remaining = limit
        scanned = []
        for tablet in self.locator.tablets_in_range(start_key, end_key):
            if remaining is not None and remaining <= 0:
                break
            sources = None  # every row from the memtable
            if not tablet.runs:
                keys, rows = tablet.rows.scan_columns(start_key, end_key, remaining)
            else:
                keys, rows, sources = tablet.merged_columns(
                    start_key, end_key, remaining
                )
            scanned.append((tablet, keys, sources))
            if remaining is not None:
                remaining -= len(keys)
            results.extend(zip(keys, rows if project is None else project(rows)))
        if trace is not None:
            for _, keys, sources in scanned:
                trace.append((tuple(keys), None if sources is None else tuple(sources)))
        self._charge(scanned)
        return results

    def replay(self, start_key: str, end_key: Optional[str], trace: Sequence) -> None:
        """Charge the scan of ``[start_key, end_key)`` that filled ``trace``
        again, reading no row — valid while no tablet's rows, runs or
        bounds have moved, so the range routes to the same tablets."""
        tablets = self.locator.tablets_in_range(start_key, end_key)
        self._charge([(tablet, *rows) for tablet, rows in zip(tablets, trace)])

    def _charge(self, scanned: List[tuple]) -> None:
        """Price each scanned ``(tablet, row keys, sources)`` through the
        block cache, one slice per run of rows from one source, then record
        the scan on the shared ledger and each tablet's
        (:meth:`~repro.bigtable.cost.OpCounter.record_scan`)."""
        price = self.cache.price
        charges: List[Tuple[OpCounter, int, int]] = []
        for tablet, keys, sources in scanned:
            tablet_id = tablet.tablet_id
            if sources is None:
                warm = price(tablet_id, MEMTABLE_SOURCE, keys)
            else:
                warm = at = 0
                for source, run in groupby(sources):
                    width = len(list(run))
                    warm += price(tablet_id, source, keys[at : at + width])
                    at += width
            charges.append((tablet.counter, len(keys) - warm, warm))
        self.counter.record_scan(charges)
