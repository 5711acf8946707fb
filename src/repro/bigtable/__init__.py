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
interpreter speed (README *Storage engine*).

Every tablet is a full LSM engine: a **commit log** with group-commit
fsync batching (kept as a record count per row key), a **memtable**,
immutable sorted **SSTable runs** produced by minor compactions (memtable
flushes) and consolidated by size-tiered/major compactions with tombstone
garbage collection, one merged **run view** per tablet that point and range
reads consult instead of each run, and priced **crash recovery**: re-opening
the runs and replaying the log tail would rebuild the memtable exactly, so
the emulator keeps the memtable and charges the replay by its record count.
Durability work is charged to a separate ledger so paper-facing service
times stay calibrated.

:class:`~repro.bigtable.emulator.BigtableEmulator` is the one storage
backend: the MOIST tables and the server layer call it directly.  To scale
out, :mod:`repro.bigtable.process_backend` runs several complete stacks —
each on its own emulator — as shard groups on forked or in-process
(loopback) workers behind the same batched RPC framing, and merges their
accounting bit-identically at every worker count.
"""
