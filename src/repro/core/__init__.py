"""MOIST core: the paper's primary contribution.

The public entry point is :class:`~repro.core.moist.MoistIndexer`, which wires
together the three BigTable schemas, the update procedure (Algorithm 1),
school clustering (Section 3.3), nearest-neighbour search with FLAG level
adaptation (Section 3.4) and aged-data archiving through the PPP archiver
(Sections 3.5-3.6).
"""
