"""In-process BigTable emulator.

MOIST's storage layer is Google BigTable (Section 3.1).  The emulator here
reproduces the parts of BigTable's contract that the paper's algorithms rely
on:

* rows are kept **sorted by key**, so contiguous key ranges can be read with
  a single range scan (the basis of both NN search and clustering reads);
* values live in **column families** that are individually configured to be
  in-memory or on-disk, which is how the Location/Affiliation tables separate
  fresh records from aged ones;
* every cell is **timestamped** and a family keeps multiple versions;
* **batch** mutations and reads amortise the per-RPC overhead.

All operations are accounted against a :class:`~repro.bigtable.cost.CostModel`
so experiments can report simulated service time (and therefore QPS) that
reflects the *operation mix* of each algorithm rather than Python's
interpreter speed.  See DESIGN.md Section 6.

Since PR 4 every tablet is a full LSM engine: a sequence-numbered
**commit log** with group-commit fsync batching, a **memtable**, immutable
**SSTable runs** with key-range/Bloom metadata produced by minor compactions
(memtable flushes) and consolidated by size-tiered/major compactions with
tombstone garbage collection, and **crash recovery** that replays each
tablet's log tail over its runs to bit-identical state.  Durability work is
charged to a separate ledger so paper-facing service times stay calibrated.

Since PR 6 the backend protocols have multiple implementations: besides
the in-process emulator, :mod:`repro.bigtable.process_backend` federates
shard groups running in-process (:class:`LocalShardedBackend`) or in
forked worker processes (:class:`ProcessShardedBackend`) behind batched
RPC framing, with bit-identical merged accounting at every worker count.
"""

from repro.bigtable.sorted_map import SortedMap
from repro.bigtable.cost import CostModel, OpCounter, OpKind
from repro.bigtable.lsm import (
    MEMTABLE_SOURCE,
    TOMBSTONE,
    BloomFilter,
    CommitLog,
    RecoveryReport,
    SSTable,
    TableRecovery,
)
from repro.bigtable.scan import (
    BlockCache,
    BlockCacheOptions,
    Scanner,
    TabletCacheStats,
)
from repro.bigtable.tablet import Tablet, TabletLocator, TabletOptions, TabletStats
from repro.bigtable.table import ColumnFamily, Cell, Table
from repro.bigtable.backend import (
    CacheAwareBackend,
    ShardedBackend,
    StorageBackend,
    TabletSkew,
)
from repro.bigtable.emulator import BigtableEmulator

#: The federated backends live behind a lazy import (PEP 562):
#: ``process_backend`` pulls in the server package (RPC framing, shard
#: services), which itself imports this package — importing it eagerly
#: here would close that cycle during interpreter start-up.
_FEDERATED_EXPORTS = (
    "LocalShardedBackend",
    "ProcessShardedBackend",
    "WorkerPool",
    "build_recipes",
    "make_scaleout_backend",
)


def __getattr__(name: str):
    if name in _FEDERATED_EXPORTS:
        from repro.bigtable import process_backend

        return getattr(process_backend, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SortedMap",
    "CostModel",
    "OpCounter",
    "OpKind",
    "MEMTABLE_SOURCE",
    "TOMBSTONE",
    "BloomFilter",
    "CommitLog",
    "SSTable",
    "TableRecovery",
    "RecoveryReport",
    "BlockCache",
    "BlockCacheOptions",
    "Scanner",
    "TabletCacheStats",
    "ColumnFamily",
    "Cell",
    "Table",
    "Tablet",
    "TabletLocator",
    "TabletOptions",
    "TabletStats",
    "StorageBackend",
    "ShardedBackend",
    "CacheAwareBackend",
    "TabletSkew",
    "BigtableEmulator",
    "LocalShardedBackend",
    "ProcessShardedBackend",
    "WorkerPool",
    "build_recipes",
    "make_scaleout_backend",
]
