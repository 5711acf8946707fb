"""The pluggable storage-backend contract.

MOIST's algorithms only need the handful of table-management operations
below plus the :class:`~repro.bigtable.table.Table` data plane; everything
else (tablet sharding, cost accounting, persistence) is the backend's
business.  :class:`~repro.bigtable.emulator.BigtableEmulator` is the bundled
in-process implementation; alternative backends (an RPC-backed client, a
disk-persistent store) only have to satisfy this protocol to slot under the
MOIST tables unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Protocol, Sequence, runtime_checkable

from repro.bigtable.cost import OpCounter
from repro.bigtable.lsm import RecoveryReport
from repro.bigtable.scan import TabletCacheStats
from repro.bigtable.table import ColumnFamily, Table
from repro.bigtable.tablet import TabletStats


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


@runtime_checkable
class StorageBackend(Protocol):
    """Structural interface every MOIST storage backend provides.

    The protocol is ``runtime_checkable`` so factories can assert
    ``isinstance(backend, StorageBackend)`` on injected implementations.
    """

    #: Shared operation ledger: every table of the backend reports here, so
    #: experiments get one consolidated view of storage work.
    counter: OpCounter

    def create_table(self, name: str, families: Sequence[ColumnFamily]) -> Table:
        """Create a table; fails if the name is already taken."""
        ...

    def table(self, name: str) -> Table:
        """Look up an existing table."""
        ...

    def has_table(self, name: str) -> bool:
        """True when a table with that name exists."""
        ...

    def drop_table(self, name: str) -> None:
        """Delete a table and its contents."""
        ...

    def table_names(self) -> List[str]:
        """Names of every table, sorted."""
        ...

    def reset_counters(self) -> None:
        """Zero every operation ledger (shared and per-tablet)."""
        ...

    @property
    def simulated_seconds(self) -> float:
        """Total simulated storage time accumulated so far."""
        ...

    # ------------------------------------------------------------------
    # LSM durability plane.  Part of the protocol, but consumed at two
    # levels by design: ``isinstance`` checks against this protocol
    # (and its ShardedBackend extension) require the methods — a durability
    # -free backend can satisfy them with no-ops returning 0 / an empty
    # RecoveryReport — while the MoistIndexer facade probes them tolerantly
    # with ``getattr`` (the same pattern the cache hooks use), so a legacy
    # backend that omits them still indexes; it just loses tablet-aware
    # routing/contention and reports no durability.
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Flush every memtable into an SSTable run (minor compaction);
        returns the rows written."""
        ...

    def compact(self, major: bool = False) -> int:
        """Compact SSTable runs (``major`` merges whole run sets and
        garbage-collects tombstones); returns the rows written."""
        ...

    def recover(self) -> RecoveryReport:
        """Simulate a tablet-server crash and recover bit-identical state
        from commit logs and SSTable runs."""
        ...


@runtime_checkable
class ShardedBackend(StorageBackend, Protocol):
    """A backend whose tables shard into tablets with per-tablet accounting.

    The server layer uses these hooks for tablet-aware request routing and
    contention modelling; backends without sharding can still satisfy the
    plain :class:`StorageBackend` protocol.
    """

    def tablet_stats(self) -> List[TabletStats]:
        """Per-tablet accounting across every table, in key order."""
        ...

    def tablet_count(self) -> int:
        """Total number of tablets across every table."""
        ...

    def hot_tablet_share(self) -> float:
        """Fraction of total storage time served by the hottest tablet."""
        ...


@runtime_checkable
class CacheAwareBackend(Protocol):
    """Optional extension: backends with block-cached scans and per-class
    skew accounting.

    Kept separate from :class:`ShardedBackend` so backends satisfying the
    original sharding protocol keep their tablet-aware contention: the
    consumers of these hooks (the contention model, ``MoistIndexer``'s
    cache accessors) probe for them with ``getattr`` and fall back
    gracefully when absent.
    """

    def tablet_skew(self) -> TabletSkew:
        """Hot-tablet concentration split by request class (reads vs
        writes), for the symmetric contention model."""
        ...

    def block_cache_stats(self) -> List[TabletCacheStats]:
        """Per-tablet block-cache hit/miss accounting across every table."""
        ...

    def cache_hit_rate(self) -> float:
        """Overall block-cache hit rate across every table's scans."""
        ...
