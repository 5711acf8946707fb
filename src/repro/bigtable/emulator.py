"""The multi-table BigTable emulator shared by every MOIST component."""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.bigtable.cost import CostModel, OpCounter
from repro.bigtable.lsm import RecoveryReport
from repro.bigtable.scan import BlockCacheOptions, TabletCacheStats
from repro.bigtable.table import ColumnFamily, Table
from repro.bigtable.tablet import TabletOptions, TabletStats, hot_share
from repro.errors import StorageError, TableNotFoundError, UnrecoverableShardError


@dataclass(frozen=True)
class TabletSkew:
    """How concentrated the cluster's load is, split by request class.

    ``read_share`` (``write_share``) is the fraction of total read (write)
    storage time served by the single hottest tablet *of that class* — the
    two hottest tablets need not be the same one.  The blend weighs each
    class's skew by its share of traffic, so a read-heavy workload whose
    queries pile onto one spatial-index tablet inflates contention exactly
    as the equivalent write skew would.
    """

    read_share: float
    write_share: float
    read_seconds: float
    write_seconds: float
    #: Identity of the hottest read / write tablet (``None`` when no load of
    #: that class exists yet).  The control plane uses these to discount the
    #: read skew of tablets it has replicated for query fan-out.
    hot_read_tablet: Optional[str] = None
    hot_write_tablet: Optional[str] = None

    @property
    def blended_share(self) -> float:
        """Traffic-weighted hot-tablet share across both request classes
        (1.0 — the monolithic worst case — before any load exists)."""
        total = self.read_seconds + self.write_seconds
        if total <= 0.0:
            return 1.0
        return (
            self.read_share * self.read_seconds
            + self.write_share * self.write_seconds
        ) / total

    def replica_adjusted_share(self, replica_counts: Mapping[str, int]) -> float:
        """Blended share with the hot *read* tablet's skew divided by its
        replica count: a tablet replicated for query fan-out spreads its
        read load over every replica, so it no longer concentrates
        contention the way a single-copy hot tablet does.  Write skew is
        never discounted — writes always go to the primary."""
        total = self.read_seconds + self.write_seconds
        if total <= 0.0:
            return 1.0
        read_share = self.read_share
        if self.hot_read_tablet is not None:
            read_share /= max(replica_counts.get(self.hot_read_tablet, 1), 1)
        return (
            read_share * self.read_seconds
            + self.write_share * self.write_seconds
        ) / total


class BigtableEmulator:
    """A named collection of :class:`~repro.bigtable.table.Table` objects.

    One emulator instance plays the role of the single BigTable cluster that
    all of MOIST's front-end servers share (Section 4.3.3), and the only
    storage backend: the MOIST tables, the server layer and the shard
    workers all call it directly.  Every table created through the emulator
    shares the emulator's :class:`OpCounter`, so experiments get one
    consolidated view of storage work regardless of which table it hit;
    additionally each table shards into row-range tablets whose private
    counters expose where that work concentrated.
    """

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        tablet_options: Optional[TabletOptions] = None,
        cache_options: Optional[BlockCacheOptions] = None,
        storage_dir: Optional[str] = None,
        restore_seq_bounds: Optional[Dict[str, int]] = None,
    ) -> None:
        self.counter = OpCounter(model=cost_model or CostModel())
        self.tablet_options = tablet_options or TabletOptions()
        self.cache_options = cache_options or BlockCacheOptions()
        #: When set, every table persists to real files under this directory
        #: (one subdirectory per table) through a write-through
        #: :class:`repro.disk.store.DiskTableStore`, and ``create_table``
        #: restores any table a previous process left behind there.
        self.storage_dir = storage_dir
        #: table name -> last *acked* journal seq; a supervised restore caps
        #: journal replay here so writes the parent never saw acknowledged
        #: are dropped (the retry path re-sends them exactly once).
        self.restore_seq_bounds = restore_seq_bounds
        self._tables: Dict[str, Table] = {}
        #: True inside :meth:`durability_barrier`; the stores read it.
        self.barrier_open = False

    def create_table(self, name: str, families: Sequence[ColumnFamily]) -> Table:
        """Create a table; fails if the name is already taken.

        With :attr:`storage_dir` set, a table whose directory holds a
        checkpoint from a previous process is *restored* from its files
        (tablet options come from its manifest) instead of created empty.
        """
        if name in self._tables:
            raise StorageError(f"table {name!r} already exists")
        store = None
        if self.storage_dir is not None:
            from repro.disk.store import DiskTableStore, restore_table

            store = DiskTableStore(
                os.path.join(self.storage_dir, name.replace("/", "__")), self
            )
            max_seq = None
            if self.restore_seq_bounds is not None:
                max_seq = self.restore_seq_bounds.get(name)
            restored = restore_table(
                store,
                name,
                families,
                self.counter,
                self.cache_options,
                max_seq=max_seq,
            )
            if restored is not None:
                self._tables[name] = restored
                return restored
        table = Table(
            name,
            families,
            counter=self.counter,
            options=self.tablet_options,
            cache_options=self.cache_options,
            store=store,
        )
        self._tables[name] = table
        return table

    @contextmanager
    def durability_barrier(self):
        """One request's journal fsyncs, paid together (re-entrant): commits
        inside the block only mark their store as owing durability, and
        leaving the outermost block pays one ``write`` + ``fsync`` per store
        still in debt (see :mod:`repro.disk.store`).  No ledger moves."""
        if self.barrier_open or self.storage_dir is None:
            yield
            return
        self.barrier_open = True
        try:
            yield
        finally:
            self.barrier_open = False
            for table in self._tables.values():
                table._store.settle()

    def export_state(self) -> dict:
        """Plain-data snapshot of the shared ledger and every table's soft
        state (:meth:`Table.export_state`), tables in name order."""
        tables = {name: self._tables[name].export_state() for name in sorted(self._tables)}
        return {"counter": self.counter.snapshot(), "tables": tables}

    def install_state(self, state: dict) -> None:
        """Apply :meth:`export_state` to an emulator restored from disk."""
        if set(state["tables"]) != set(self._tables):
            raise UnrecoverableShardError(
                f"snapshot has tables {sorted(state['tables'])}, not {sorted(self._tables)}"
            )
        self.counter.install_state(state["counter"])
        for name, table_state in state["tables"].items():
            self._tables[name].install_state(table_state)

    @staticmethod
    def acked_seqs(state: dict) -> Dict[str, int]:
        """``table -> acked journal seq`` of an :meth:`export_state`: the
        ``restore_seq_bounds`` to rebuild the emulator it came from with."""
        return {name: table["seq"] for name, table in state["tables"].items()}

    def table(self, name: str) -> Table:
        """Look up an existing table."""
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotFoundError(f"table {name!r} does not exist") from None

    def table_names(self) -> List[str]:
        """Names of every table, sorted."""
        return sorted(self._tables)

    def reset_counters(self) -> None:
        """Zero the shared operation counter, every tablet ledger and the
        block-cache hit/miss tallies (resident blocks stay warm)."""
        self.counter.reset()
        for table in self._tables.values():
            table.reset_tablet_counters()
            table.reset_cache_stats()

    @property
    def simulated_seconds(self) -> float:
        """Total simulated storage time accumulated so far."""
        return self.counter.simulated_seconds

    @property
    def durability_seconds(self) -> float:
        """Simulated durability time (commit log, flushes, compactions)
        accumulated so far — additive to :attr:`simulated_seconds`."""
        return self.counter.durability_seconds

    # ------------------------------------------------------------------
    # LSM durability: crash recovery
    # ------------------------------------------------------------------
    def recover(self) -> RecoveryReport:
        """Simulate a cluster-wide tablet-server crash and recover.

        Memtables and block caches are lost; commit logs, SSTable runs and
        tablet boundaries are durable.  Each table replays its tablets' log
        tails over their runs, reconstructing bit-identical contents.
        """
        return RecoveryReport(
            tables=tuple(
                self._tables[name].recover() for name in sorted(self._tables)
            )
        )

    def run_count(self) -> int:
        """SSTable runs across every table."""
        return sum(table.run_count() for table in self._tables.values())

    def write_amplification(self) -> float:
        """Physical rows written per logical row, cluster-wide."""
        return self.counter.write_amplification()

    def clear_block_caches(self) -> None:
        """Drop every table's resident blocks and cache tallies (measurement
        hygiene for experiments comparing configurations cold)."""
        for table in self._tables.values():
            table.cache.clear()

    # ------------------------------------------------------------------
    # Cluster-level tablet accounting
    # ------------------------------------------------------------------
    def tablet_stats(self) -> List[TabletStats]:
        """Per-tablet accounting across every table, in table/key order."""
        stats: List[TabletStats] = []
        for name in sorted(self._tables):
            stats.extend(self._tables[name].tablet_stats())
        return stats

    def tablet_count(self) -> int:
        """Total number of tablets across every table."""
        return sum(table.tablet_count() for table in self._tables.values())

    def hot_tablet_share(self) -> float:
        """Fraction of total storage time served by the hottest tablet
        (:func:`~repro.bigtable.tablet.hot_share` over :meth:`tablet_stats`)."""
        return hot_share(self.tablet_stats())

    def tablet_skew(self) -> TabletSkew:
        """Hot-tablet concentration split by request class.

        Reads and writes are skew-ranked independently (the tablet a query
        storm hammers is rarely the one absorbing the write front), then
        blended by traffic share in :attr:`TabletSkew.blended_share` — the
        symmetric treatment the contention model consumes.
        """
        hot_read = 0.0
        hot_write = 0.0
        read_total = 0.0
        write_total = 0.0
        hot_read_tablet = None
        hot_write_tablet = None
        for table in self._tables.values():
            for tablet in table.tablets():
                read = tablet.counter.read_seconds
                write = tablet.counter.write_seconds
                read_total += read
                write_total += write
                if read > hot_read:
                    hot_read = read
                    hot_read_tablet = tablet.tablet_id
                if write > hot_write:
                    hot_write = write
                    hot_write_tablet = tablet.tablet_id
        return TabletSkew(
            read_share=hot_read / read_total if read_total > 0.0 else 1.0,
            write_share=hot_write / write_total if write_total > 0.0 else 1.0,
            read_seconds=read_total,
            write_seconds=write_total,
            hot_read_tablet=hot_read_tablet,
            hot_write_tablet=hot_write_tablet,
        )

    # ------------------------------------------------------------------
    # Block-cache accounting
    # ------------------------------------------------------------------
    def block_cache_stats(self) -> List[TabletCacheStats]:
        """Per-tablet block-cache hit/miss rows across every table."""
        stats: List[TabletCacheStats] = []
        for name in sorted(self._tables):
            stats.extend(self._tables[name].cache_stats())
        return stats

    def cache_hit_rate(self) -> float:
        """Overall block-cache hit rate across every table's scans."""
        hits = 0
        lookups = 0
        for table in self._tables.values():
            for entry in table.cache_stats():
                hits += entry.hits
                lookups += entry.lookups
        if lookups == 0:
            return 0.0
        return hits / lookups
