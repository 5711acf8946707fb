"""Planar geometry primitives used by the spatial indexer and MOIST core.

The paper works on a normalised ``[0, 1]^2`` space (Section 3.2.1) and on a
synthetic ``1,000 x 1,000`` unit map (Section 4.1).  The primitives here are
deliberately lightweight: immutable points/vectors with the handful of
operations the indexer needs (displacement, distance, interpolation) plus an
axis-aligned bounding box used for cells and map regions.
"""
