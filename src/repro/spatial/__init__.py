"""Hierarchical spatial indexer (the paper's S2Cell substitute).

The indexer recursively decomposes a square world into ``2^l x 2^l`` grids
and keys each grid cell by its position along a Hilbert space-filling curve
(Section 3.2.1).  The resulting integer keys have the property the paper
relies on throughout:

* cells that are geographically close tend to have close keys (locality), and
* all descendants of a cell occupy one *contiguous* key range, so a
  coarse-level cell can be fetched from the Spatial Index Table with a single
  range scan (Section 3.4.1).

``CellId`` is the public handle; ``hilbert`` and ``zcurve`` expose the raw
curve encodings (the Z-curve exists for the locality ablation benchmark);
``covering`` approximates rectangles and discs by cell unions.  The world
is planar: the paper's S2 cells cover a sphere, every experiment here a map.
"""
