"""Comparator systems the paper measures MOIST against.

* :class:`BxTree` — the B+-tree based moving-object index of Jensen et al.
  (the paper's main quantitative comparator, via the benchmark of Chen et
  al. [6]).  Built on our own :class:`BPlusTree` with a disk-page cost model
  so update/query costs are expressed in the same simulated-seconds currency
  as MOIST's BigTable operations.
* :class:`StaticClusteringIndex` — prototype-based static clustering
  (Section 2.3.1): every update still writes the object's location; pattern
  changes trigger re-assignment work.
* :class:`DynamicClusteringIndex` — virtual-centre dynamic clustering
  (Section 2.3.2): every update adjusts its cluster's moving pattern, so the
  storage write count scales with the update count.
* :func:`build_no_school_indexer` — MOIST with object schooling disabled
  (the paper's "worst case" configuration used in the BigTable stress
  experiments).
"""
