"""repro — a reproduction of MOIST (VLDB 2012).

MOIST (Moving Object Indexer with School Tracking) is a spatial indexer for
moving objects built on a BigTable-style key-value store.  It cuts update
latency by grouping co-moving nearby objects into *object schools* and
indexing only each school's leader, adapts nearest-neighbour search
granularity to local density (FLAG), and archives aged location history onto
parallel disks with a locality-preserving parallel ping-pong scheme (PPP).

Quickstart::

    from repro import MoistIndexer, MoistConfig, UpdateMessage, Point, Vector

    indexer = MoistIndexer(MoistConfig())
    indexer.update(UpdateMessage("bus-42", Point(500.0, 500.0), Vector(1.0, 0.0), 0.0))
    nearest = indexer.nearest_neighbors(Point(500.0, 500.0), k=5)

See ``README.md`` (*Architecture*) for the system inventory and
``python -m repro figures`` for every reproduced figure.
"""

from repro.core.config import MoistConfig
from repro.core.moist import MoistIndexer
from repro.core.update import UpdateOutcome, UpdateResult, UpdateStats
from repro.core.clustering import ClusteringReport
from repro.core.nn_search import NNQueryStats
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import (
    HistoryRecord,
    LocationRecord,
    NeighborResult,
    ObjectId,
    UpdateMessage,
    format_object_id,
)

__version__ = "1.0.0"

__all__ = [
    "MoistConfig",
    "MoistIndexer",
    "UpdateOutcome",
    "UpdateResult",
    "UpdateStats",
    "ClusteringReport",
    "NNQueryStats",
    "BoundingBox",
    "Point",
    "Vector",
    "HistoryRecord",
    "LocationRecord",
    "NeighborResult",
    "ObjectId",
    "UpdateMessage",
    "format_object_id",
    "__version__",
]
