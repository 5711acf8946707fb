"""Disk layer: the analytic model and the real-bytes tablet store.

Two halves live here.  :mod:`repro.disk.model` / :mod:`repro.disk.array`
are the *analytic* side used by the PPP archiver (Section 3.6): the paper
sizes the parallel ping-pong buffers with a simple mechanical-disk model —
a flush of a per-disk buffer of size ``sB/nd`` costs
``Td = Trot + Tseek + sB / (nd * Rdisk)``, the write-side utilisation is
``Ud = sB / (nd * Rdisk * (Trot + Tseek))`` and the read-side resolution
is ``Rd = k * nd / no``.

:mod:`repro.disk.store` is the *physical* side: one directory per shard
holding an atomically-replaced snapshot (every table's manifest and the
shard's accounting), an fsynced append-only log of the requests applied
since, and immutable SSTable run block files, all serialized through the
shared columnar codec (:mod:`repro.codec.blocks`).  The in-memory LSM
engine stays the source of truth during normal operation (nothing reads
the files); after a hard process kill the shard installs the snapshot and
re-runs the logged requests, rebuilding bit-identical state.
"""
