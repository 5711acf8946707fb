"""MOIST's three BigTable schemas (Section 3.1).

* :class:`LocationTable` — per-object timestamped location records, freshest
  versions in an in-memory column, aged versions in disk columns.
* :class:`SpatialIndexTable` — spatial cell key -> ids of the *leaders*
  located in that cell.
* :class:`AffiliationTable` — leader/follower (L/F) records plus, for each
  leader, its Follower Info (follower id -> displacement vector).
"""
