"""Aged-data archiving: the Parallel Ping-Pong (PPP) scheme.

Sections 3.5-3.6: aged location records are drained from the Location Table
into per-disk double buffers; a full buffer page is flushed to its disk while
its twin keeps absorbing new records.  The placement hash keeps all of one
object's history on a single disk and co-locates objects that started out
nearby, which is what keeps on-disk history queries cheap.
"""
