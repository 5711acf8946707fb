"""The scanner and the tablet-server block cache.

The write path is tablet-routed and batched; this module gives the read path
the same machinery.  A range read is routed to the tablets whose key ranges
intersect the requested interval and executed by a :class:`Scanner`, which
charges every scanned tablet's ledger (empty probes included, so cold
tablets show up in ``tablet_load_report``) and consults the table's
:class:`BlockCache` while streaming rows.

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
return stale results.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.bigtable.cost import OpCounter, OpKind
from repro.bigtable.lsm import MEMTABLE_SOURCE
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.bigtable.tablet import Tablet, TabletLocator


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
    """LRU set of warm ``(tablet, key-block)`` pairs with hit/miss tallies.

    The cache is a *residency* model, not a data store: :meth:`probe`
    answers "would this block have been in the tablet server's memory?",
    bumping it to most-recently-used on a hit and admitting it on a miss.
    """

    def __init__(self, options: Optional[BlockCacheOptions] = None) -> None:
        self.options = options or BlockCacheOptions()
        self._lru: "OrderedDict[Tuple[str, str, str], None]" = OrderedDict()
        #: tablet id -> its resident LRU keys ``(tablet, source, block)``, for
        #: O(blocks-of-tablet) invalidation.  ``source`` is the SSTable run
        #: id the block belongs to, or :data:`MEMTABLE_SOURCE` for blocks of
        #: the live memtable.
        self._by_tablet: Dict[str, Set[Tuple[str, str, str]]] = {}
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}

    def block_of(self, row_key: str) -> str:
        """The key block containing ``row_key``."""
        return row_key[: self.options.block_prefix_len]

    def __len__(self) -> int:
        return len(self._lru)

    # ------------------------------------------------------------------
    # Lookup / admission
    # ------------------------------------------------------------------
    def probe(self, tablet_id: str, block: str, source: str = MEMTABLE_SOURCE) -> bool:
        """True when the block is warm; admits it (evicting LRU) otherwise.

        ``source`` names where the block's rows live — an SSTable run id or
        :data:`MEMTABLE_SOURCE` — so a compaction can evict exactly the
        blocks of the runs it consumed.
        """
        key = (tablet_id, source, block)
        if key in self._lru:
            self._lru.move_to_end(key)
            self._hits[tablet_id] = self._hits.get(tablet_id, 0) + 1
            return True
        self._misses[tablet_id] = self._misses.get(tablet_id, 0) + 1
        self._lru[key] = None
        # get-then-insert: a miss per storage row must not build a throwaway
        # set() for setdefault to discard.
        resident = self._by_tablet.get(tablet_id)
        if resident is None:
            resident = self._by_tablet[tablet_id] = set()
        resident.add(key)
        if len(self._lru) > self.options.capacity_blocks:
            evicted = self._lru.popitem(last=False)[0]
            resident = self._by_tablet.get(evicted[0])
            if resident is not None:
                resident.discard(evicted)
                if not resident:
                    del self._by_tablet[evicted[0]]
        return False

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_row(self, tablet_id: str, row_key: str) -> None:
        """Evict the memtable block containing ``row_key`` (a mutation
        dirtied it).  Run blocks are immutable — a mutated row moves into
        the memtable and shadows its run versions, so only the memtable
        block changes."""
        resident = self._by_tablet.get(tablet_id)
        if resident is None:
            return
        key = (tablet_id, MEMTABLE_SOURCE, self.block_of(row_key))
        if key in resident:
            resident.discard(key)
            if not resident:
                del self._by_tablet[tablet_id]
            del self._lru[key]

    def invalidate_source(self, tablet_id: str, source: str) -> None:
        """Evict every block served from one source of a tablet.

        A memtable flush evicts the :data:`MEMTABLE_SOURCE` blocks (those
        rows now live in the new, cold run); a compaction evicts the blocks
        of every run it consumed.
        """
        resident = self._by_tablet.get(tablet_id)
        if not resident:
            return
        stale = [key for key in resident if key[1] == source]
        for key in stale:
            resident.discard(key)
            del self._lru[key]
        if not resident:
            del self._by_tablet[tablet_id]

    def invalidate_tablet(self, tablet_id: str) -> None:
        """Evict every block of a tablet (it split, merged or cleared)."""
        resident = self._by_tablet.pop(tablet_id, None)
        if not resident:
            return
        for key in resident:
            del self._lru[key]

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def stats(self, table_name: str) -> List[TabletCacheStats]:
        """Per-tablet hit/miss rows for every tablet ever probed."""
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

    def hit_rate(self) -> float:
        """Overall fraction of block lookups that hit (0.0 before any)."""
        hits = sum(self._hits.values())
        lookups = hits + sum(self._misses.values())
        if lookups == 0:
            return 0.0
        return hits / lookups

    def reset_stats(self) -> None:
        """Zero the hit/miss tallies; resident blocks stay warm."""
        self._hits.clear()
        self._misses.clear()

    def clear(self) -> None:
        """Drop every resident block and every tally."""
        self._lru.clear()
        self._by_tablet.clear()
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
        for tablet_id, source, block in self._lru:
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
        """Restore a snapshot from :meth:`export_state` (``_by_tablet`` is
        an index over the LRU keys and is rebuilt, not shipped)."""
        tablets, sources, blocks = state["tablets"], state["sources"], state["blocks"]
        tablet_at = array("I", state["tablet_at"])
        source_at = array("I", state["source_at"])
        block_len = array("I", state["block_len"])
        if not len(tablet_at) == len(source_at) == len(block_len):
            raise ValueError("block-cache snapshot columns differ in length")
        self._lru.clear()
        self._by_tablet.clear()
        start = 0
        for tablet, source, length in zip(tablet_at, source_at, block_len):
            key = (tablets[tablet], sources[source], blocks[start : start + length])
            start += length
            self._lru[key] = None
            self._by_tablet.setdefault(key[0], set()).add(key)
        self._hits = dict(state["hits"])
        self._misses = dict(state["misses"])


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
    ) -> List[Tuple[str, object]]:
        """Scan ``[start_key, end_key)``, returning ``(row_key, row)`` in
        key order.  The rows are the stored ones, not copies: the table
        projects or copies what its caller asked for.

        Charging: the shared ledger gets one ``SCAN`` RPC whose row count is
        the *cold* rows (rows in blocks the cache had to fault in) plus one
        ``CACHE_READ`` record over the warm rows; each scanned tablet's
        ledger mirrors its own share.  A tablet that yields no rows is
        still charged one scan row (it served the probe), which is what
        makes cold tablets visible in load reports.

        Rows stream through the tablet's *merged* LSM view (memtable plus
        SSTable runs, newest version wins, tombstones skipped); the cache
        prices each row by the ``(tablet, source, block)`` it was served
        from, where the source is the run holding the winning version.
        """
        results: List[Tuple[str, object]] = []
        remaining = limit
        charges: List[Tuple["Tablet", int, int]] = []
        cache = self.cache
        prefix_len = cache.options.block_prefix_len
        probe = cache.probe
        append = results.append
        for tablet in self.locator.tablets_in_range(start_key, end_key):
            if remaining is not None and remaining <= 0:
                break
            cold = 0
            warm = 0
            current_block: Optional[str] = None
            current_source: Optional[str] = None
            block_warm = False
            tablet_id = tablet.tablet_id
            if not tablet.runs:
                # Fast path: no SSTable runs — the memtable is the merged
                # view (and holds no tombstones), so skip merged_scan's
                # generator layer and stream it directly; every row's
                # source is the memtable.  Deliberate duplication of the
                # pricing loop below (measured ~6% on the batched query
                # workload, whose tablets are run-free by default): any
                # change to block keying or warm/cold accounting must be
                # applied to BOTH loops.
                for row_key, row in tablet.rows.scan(
                    start_key, end_key, remaining
                ):
                    block = row_key[:prefix_len]
                    if block != current_block:
                        current_block = block
                        block_warm = probe(tablet_id, block)
                    if block_warm:
                        warm += 1
                    else:
                        cold += 1
                    append((row_key, row))
                    if remaining is not None:
                        remaining -= 1
                charges.append((tablet, cold, warm))
                continue
            for row_key, row, source in tablet.merged_scan(
                start_key, end_key, remaining
            ):
                block = row_key[:prefix_len]
                if block != current_block or source != current_source:
                    current_block = block
                    current_source = source
                    block_warm = probe(tablet_id, block, source)
                if block_warm:
                    warm += 1
                else:
                    cold += 1
                append((row_key, row))
                if remaining is not None:
                    remaining -= 1
            charges.append((tablet, cold, warm))
        cold_total = sum(cold for _, cold, _ in charges)
        warm_total = sum(warm for _, _, warm in charges)
        self.counter.record(
            OpKind.SCAN, rows=cold_total if cold_total + warm_total > 0 else 1
        )
        if warm_total > 0:
            self.counter.record(OpKind.CACHE_READ, rows=warm_total)
        self._attribute_scan(charges)
        return results

    def _attribute_scan(self, charges: List[Tuple["Tablet", int, int]]) -> None:
        """Mirror one scan onto the scanned tablets' ledgers.

        Every scanned tablet is charged the scan RPC it served — with its
        cold rows, or zero rows when the block cache covered everything —
        so a cache-hot tablet keeps accumulating read time on its ledger
        exactly as the shared ledger does (the skew signal the contention
        model consumes must not fade as the cache warms).  Tablets that
        contributed no rows at all are charged one scan row, so empty
        probes — e.g. an NN search visiting a cell nobody occupies — still
        appear in ``tablet_load_report``.
        """
        for tablet, cold, warm in charges:
            tablet.counter.record(OpKind.SCAN, rows=cold if cold + warm > 0 else 1)
            if warm > 0:
                tablet.counter.record(OpKind.CACHE_READ, rows=warm)
