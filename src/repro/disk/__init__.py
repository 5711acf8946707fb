"""Disk layer: the analytic model and the real-bytes tablet store.

Two halves live here.  :mod:`repro.disk.model` / :mod:`repro.disk.array`
are the *analytic* side used by the PPP archiver (Section 3.6): the paper
sizes the parallel ping-pong buffers with a simple mechanical-disk model —
a flush of a per-disk buffer of size ``sB/nd`` costs
``Td = Trot + Tseek + sB / (nd * Rdisk)``, the write-side utilisation is
``Ud = sB / (nd * Rdisk * (Trot + Tseek))`` and the read-side resolution
is ``Rd = k * nd / no``.

:mod:`repro.disk.store` is the *physical* side: one directory per table
holding an fsynced append-only commit-log journal, immutable SSTable run
block files and an atomically-replaced manifest, all serialized through
the shared columnar codec (:mod:`repro.codec.blocks`).  The in-memory LSM
engine stays the source of truth during normal operation (the store is
write-through and write-only); after a hard process kill,
:func:`repro.disk.store.restore_table` rebuilds a bit-identical table from
the files alone.
"""
