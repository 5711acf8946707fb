"""Nearest-neighbour query workload generator."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import WorkloadError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point


@dataclass(frozen=True)
class NNQuery:
    """One nearest-neighbour query request."""

    location: Point
    k: int
    range_limit: Optional[float] = None


class NNQueryWorkload:
    """Generates NN queries with centres uniform over a region."""

    def __init__(
        self,
        region: BoundingBox,
        k: int = 10,
        range_limit: Optional[float] = None,
        seed: int = 23,
    ) -> None:
        if k <= 0:
            raise WorkloadError("k must be positive")
        if range_limit is not None and range_limit <= 0:
            raise WorkloadError("range_limit must be positive when given")
        self.region = region
        self.k = k
        self.range_limit = range_limit
        self.rng = random.Random(seed)

    def next_query(self) -> NNQuery:
        """One query with a uniformly random centre."""
        location = Point(
            self.rng.uniform(self.region.min_x, self.region.max_x),
            self.rng.uniform(self.region.min_y, self.region.max_y),
        )
        return NNQuery(location=location, k=self.k, range_limit=self.range_limit)

    def batch(self, count: int) -> List[NNQuery]:
        """``count`` independent queries."""
        if count <= 0:
            raise WorkloadError("count must be positive")
        return [self.next_query() for _ in range(count)]
