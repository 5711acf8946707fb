"""Nearest-neighbour search (Section 3.4, Algorithm 2).

The search keeps two priority queues: ``Qcell`` pops the unexplored NN cell
closest to the query location, ``Qobj`` keeps the ``k`` closest objects seen
so far.  A cell's distance to the query lower-bounds the distance of every
object it contains, so the search stops as soon as the closest unexplored
cell is farther than the current ``k``-th neighbour.

Each NN cell spans a contiguous range of Spatial Index Table rows (storage
cells), so fetching a cell's objects is one key-range scan, executed tablet
by tablet.  Only leaders are stored in the table; when ``include_followers``
is set, the Affiliation Table is batch-read for the candidate leaders and
follower locations are derived from the leader location plus the stored
displacement (Section 3.4, step iii-iv).

A cell's candidates are ranked from a :class:`CandidateBlock` — a column of
ids, one of interleaved x / y coordinates and the followers' leader ids.  No
per-candidate object exists: a follower is ``leader x + dx, leader y + dy``
in the coordinate columns, a candidate strictly farther than the current
``k``-th neighbour never touches the heap, and ``Point`` /
``NeighborResult`` objects are built for the ``k`` survivors only.

Queries executed together can share their reads: a
:class:`QueryBatchContext` memoises cell scans, Follower Info batch reads,
(for predictive queries) Location Table batch reads and the assembled
candidate blocks across the batch.  Queries are read-only, so sharing never
changes a result — it only removes the repeat RPCs (and the repeat block
building) two overlapping queries would otherwise both pay for, which is
what makes the server's ``handle_query_batch`` strictly cheaper than
sequential execution on overlapping workloads.

Across batches the searcher memoises each non-predictive block with how it
was charged, while neither table's ``version`` moves: a hit reads no row but
pays every charge the live path would (:meth:`NearestNeighborSearcher._replay`).
The scan is replayed from its trace, the row keys each tablet returned,
priced through the block cache again.  The Follower Info read is compiled
into a plan on the block's first hit (:meth:`Table.compile_batch_read`): the
key count, the positions of the Affiliation tablets the leaders route to and
each one's row count, all atoms, so the plan costs the collector nothing and
a later hit routes no key.  Positions stay valid because every split and
merge bumps ``version``.  Every scan and batch read, live or replayed,
charges the shared ledger and the tablets' in one
:meth:`~repro.bigtable.cost.OpCounter.record_scan` or
:meth:`~repro.bigtable.cost.OpCounter.record_batch_read` call.
"""

from __future__ import annotations

import heapq
import itertools
from itertools import chain
from dataclasses import dataclass, field
from math import hypot
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from repro.core.config import MoistConfig
from repro.core.flag import FlagTuner
from repro.errors import QueryError
from repro.geometry.point import Point
from repro.model import LocationRecord, NeighborResult, ObjectId
from repro.spatial.cell import (
    CellId,
    box_distance,
    cell_box_lookup,
    edge_neighbor_positions,
)
from repro.tables.affiliation_table import AffiliationTable
from repro.tables.location_table import LocationTable
from repro.tables.spatial_index_table import SpatialIndexTable

#: Result order: nearest first, ties by object id.
_BY_DISTANCE_THEN_ID = itemgetter(2, 0)


@dataclass
class NNQueryStats:
    """Work accounting of a single NN query."""

    cells_visited: int = 0
    leaders_scanned: int = 0
    followers_considered: int = 0
    nn_level: int = 0


class CandidateBlock(NamedTuple):
    """The candidates of one NN cell as columns.

    Row ``i`` is the object ``ids[i]`` at ``(xy[2 * i], xy[2 * i + 1])``; the
    first ``n_leaders`` rows are the cell's leaders, the rest their
    followers, grouped by leader in leader order — follower row ``i``
    follows ``leader_ids[i - n_leaders]``.  The columns are tuples of atoms,
    which the collector stops tracking.
    """

    ids: Tuple[ObjectId, ...]
    xy: Tuple[float, ...]
    leader_ids: Tuple[ObjectId, ...]
    n_leaders: int


@dataclass
class QueryBatchContext:
    """Read-sharing scope for a batch of NN queries.

    Everything memoised here is immutable for the duration of a read-only
    batch, so two queries probing the same NN cell (or the same leaders'
    followers) share one storage access instead of issuing it twice.  The
    ``*_shared`` counters report how many RPCs the sharing saved.

    ``cell_blocks`` additionally memoises the assembled candidate columns
    of a cell per ``(cell, include_followers, at_time)`` — every query of
    one batch shares ``at_time``, so the predictive variant shares too.
    The second query probing the same cell skips rebuilding the block while
    tallying exactly the ``scans_shared``/``rows_shared`` the underlying
    memo hits would have produced.

    ``cell_objects`` holds a scanned cell's leaders as a dict, or the
    :class:`CandidateBlock` of a cross-batch memo hit, whose leader rows
    are the scan's result; the dict is built from it only when another
    variant of the cell needs it.
    """

    cell_objects: Dict[
        CellId, Union[Dict[ObjectId, Tuple[float, float]], CandidateBlock]
    ] = field(default_factory=dict)
    followers: Dict[ObjectId, Dict[ObjectId, Tuple[float, float]]] = field(
        default_factory=dict
    )
    latest_records: Dict[ObjectId, Optional[LocationRecord]] = field(
        default_factory=dict
    )
    cell_blocks: Dict[
        Tuple[CellId, bool, Optional[float]], CandidateBlock
    ] = field(default_factory=dict)
    scans_shared: int = 0
    rows_shared: int = 0


class NearestNeighborSearcher:
    """Executes NN queries against the Spatial Index / Affiliation tables."""

    def __init__(
        self,
        config: MoistConfig,
        spatial_table: SpatialIndexTable,
        affiliation_table: AffiliationTable,
        location_table: LocationTable,
        flag_tuner: Optional[FlagTuner] = None,
    ) -> None:
        self.config = config
        self.spatial_table = spatial_table
        self.affiliation_table = affiliation_table
        self.location_table = location_table
        self.flag_tuner = flag_tuner
        #: ``(cell level, cell pos, include_followers)`` -> ``(block, scan
        #: trace, non-empty Follower Info or None)`` at ``_memo_versions``;
        #: the first hit appends the compiled Follower Info read plan (or
        #: ``None`` when the block reads none).
        self._memo: Dict[Tuple[int, int, bool], tuple] = {}
        self._memo_versions: Optional[Tuple[int, int]] = None

    def query(
        self,
        location: Point,
        k: int,
        nn_level: Optional[int] = None,
        range_limit: Optional[float] = None,
        include_followers: bool = True,
        at_time: Optional[float] = None,
        use_flag: bool = True,
        stats: Optional[NNQueryStats] = None,
        context: Optional[QueryBatchContext] = None,
    ) -> List[NeighborResult]:
        """Return up to ``k`` nearest objects around ``location``.

        ``nn_level`` fixes the NN cell level explicitly (the paper's
        fixed-level baselines of Figure 12); otherwise FLAG picks it when a
        tuner is attached and ``use_flag`` is true, falling back to the
        configured default level.  ``range_limit`` bounds the search radius
        (the paper's "search range limit"); ``at_time`` enables the
        predictive variant, dead-reckoning leaders to the query time.
        ``context`` shares cell scans and batch reads with the other
        queries of one batch (see :class:`QueryBatchContext`).
        """
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        if range_limit is not None and range_limit < 0:
            raise QueryError("range_limit must be non-negative")
        level = self._resolve_level(location, nn_level, use_flag, at_time)
        if stats is None:
            stats = NNQueryStats()
        stats.nn_level = level

        world = self.config.world
        # Cells are expanded by curve position at this level: neighbours and
        # boxes are looked up by an int, and a CellId is built only for the
        # cells actually visited.
        start = CellId.from_point(location, level, world).pos
        box_at = cell_box_lookup(level, world)
        counter = itertools.count()
        tiebreak = counter.__next__
        heappush = heapq.heappush
        heappop = heapq.heappop
        heappushpop = heapq.heappushpop
        query_x = location.x
        query_y = location.y
        cell_queue: List[Tuple[float, int, int]] = [
            (box_distance(box_at(start), query_x, query_y), tiebreak(), start)
        ]
        seen_cells: Set[int] = {start}
        # Max-heap of the best k candidates as (-distance, tiebreak, block,
        # row); the tiebreak is unique, so blocks are never compared.
        best: List[Tuple[float, int, CandidateBlock, int]] = []
        # Beyond dist_max a candidate cannot enter the result: the range
        # limit until k candidates are held, then also the k-th distance.
        dist_max = range_limit if range_limit is not None else float("inf")
        max_cells = self.config.max_nn_cells_per_query

        while cell_queue and stats.cells_visited < max_cells:
            cell_distance, _, pos = heappop(cell_queue)
            if cell_distance > dist_max:
                break
            stats.cells_visited += 1
            block = self._candidate_block(
                CellId(level, pos), at_time, include_followers, stats, context
            )
            coordinates = iter(block.xy)
            for row, x, y in zip(itertools.count(), coordinates, coordinates):
                distance = hypot(x - query_x, y - query_y)
                # Strictly farther only: at equal distance the newer entry
                # displaces the older one (the tiebreak grows).
                if distance > dist_max:
                    continue
                if len(best) == k:
                    heappushpop(best, (-distance, tiebreak(), block, row))
                else:
                    heappush(best, (-distance, tiebreak(), block, row))
                    if len(best) < k:
                        continue
                dist_max = -best[0][0]
                if range_limit is not None and range_limit < dist_max:
                    dist_max = range_limit
            for neighbor in edge_neighbor_positions(level, pos):
                if neighbor in seen_cells:
                    continue
                seen_cells.add(neighbor)
                neighbor_distance = box_distance(box_at(neighbor), query_x, query_y)
                if neighbor_distance <= dist_max:
                    heappush(cell_queue, (neighbor_distance, tiebreak(), neighbor))

        new = tuple.__new__
        results = []
        for neg_distance, _, block, row in best:
            n_leaders = block.n_leaders
            leader_id = block.leader_ids[row - n_leaders] if row >= n_leaders else None
            point = Point(block.xy[2 * row], block.xy[2 * row + 1])
            results.append(
                new(
                    NeighborResult,
                    (block.ids[row], point, -neg_distance, leader_id is None, leader_id),
                )
            )
        results.sort(key=_BY_DISTANCE_THEN_ID)
        return results

    def query_many(
        self,
        queries: Sequence[object],
        include_followers: bool = True,
        at_time: Optional[float] = None,
        use_flag: bool = True,
        stats_list: Optional[List[NNQueryStats]] = None,
        context: Optional[QueryBatchContext] = None,
    ) -> List[List[NeighborResult]]:
        """Execute several NN queries with batch-scoped read sharing.

        ``queries`` are request objects carrying ``location``, ``k`` and
        ``range_limit`` attributes (:class:`repro.workload.queries.NNQuery`
        fits).  Results are returned in request order and are identical to
        running :meth:`query` per request — the shared
        :class:`QueryBatchContext` only dedupes the storage accesses, it
        never changes what a query observes.
        """
        if context is None:
            context = QueryBatchContext()
        results: List[List[NeighborResult]] = []
        for index, request in enumerate(queries):
            stats = stats_list[index] if stats_list is not None else None
            results.append(
                self.query(
                    request.location,
                    request.k,
                    range_limit=getattr(request, "range_limit", None),
                    include_followers=include_followers,
                    at_time=at_time,
                    use_flag=use_flag,
                    stats=stats,
                    context=context,
                )
            )
        return results

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve_level(
        self,
        location: Point,
        nn_level: Optional[int],
        use_flag: bool,
        at_time: Optional[float],
    ) -> int:
        if nn_level is not None:
            if not 1 <= nn_level <= self.config.storage_level:
                raise QueryError(
                    f"nn_level must be in [1, {self.config.storage_level}], got {nn_level}"
                )
            return nn_level
        if use_flag and self.flag_tuner is not None:
            now = at_time if at_time is not None else 0.0
            return self.flag_tuner.best_level(location, now)
        return self.config.default_nn_level

    def _scan_cell(
        self, cell: CellId, context: Optional[QueryBatchContext], trace=None
    ) -> Dict[ObjectId, Tuple[float, float]]:
        """Key-range scan of one NN cell's spatial-index rows, shared
        across the batch when a context is present (``trace``: see
        :meth:`Table.scan`).  A memo hit leaves its block in the context
        instead of the scan's dict; the dict is rebuilt from the block's
        leader rows here, the first time another variant of the cell asks."""
        if context is not None:
            cached = context.cell_objects.get(cell)
            if cached is not None:
                context.scans_shared += 1
                if type(cached) is CandidateBlock:
                    n_leaders = cached.n_leaders
                    xy = cached.xy
                    cached = context.cell_objects[cell] = dict(
                        zip(
                            cached.ids[:n_leaders],
                            zip(xy[0 : 2 * n_leaders : 2], xy[1 : 2 * n_leaders : 2]),
                        )
                    )
                return cached
        leaders = self.spatial_table.objects_in_cell(cell, trace)
        if context is not None:
            context.cell_objects[cell] = leaders
        return leaders

    @staticmethod
    def _shared_batch_read(object_ids, fetch, context, cache, absent):
        """Batch-read ``object_ids`` through a batch-scoped memo.

        ``fetch`` maps a list of ids to a dict of found rows.  Without a
        context that dict is the answer: an id missing from it is absent
        from the store.  With one, only ids missing from ``cache`` (the
        context dict backing this read kind) are fetched, an absent one is
        remembered as ``absent``, the saved rows are tallied on
        ``rows_shared`` and ``cache`` itself is the answer.  Either way,
        look ids up with ``.get``.
        """
        if context is None:
            return fetch(object_ids)
        missing = [object_id for object_id in object_ids if object_id not in cache]
        if missing:
            fetched = fetch(missing)
            for object_id in missing:
                cache[object_id] = fetched.get(object_id, absent)
        context.rows_shared += len(object_ids) - len(missing)
        return cache

    def _latest_records(
        self,
        object_ids: List[ObjectId],
        context: Optional[QueryBatchContext],
    ) -> Dict[ObjectId, Optional[LocationRecord]]:
        """Latest Location records of ``object_ids``, batch-read once per
        batch (``.get`` of an object without a record is ``None``)."""
        return self._shared_batch_read(
            object_ids,
            self.location_table.batch_latest,
            context,
            context.latest_records if context is not None else None,
            None,
        )

    def _followers_of(
        self, leader_ids: Sequence[ObjectId], context: Optional[QueryBatchContext]
    ) -> Dict[ObjectId, Dict[ObjectId, Tuple[float, float]]]:
        """Follower Info of ``leader_ids``, batch-read once per batch
        (``.get`` of a leader without an affiliation row is ``None`` or an
        empty dict; the shared empty default is never mutated by
        readers)."""
        return self._shared_batch_read(
            leader_ids,
            self.affiliation_table.batch_followers,
            context,
            context.followers if context is not None else None,
            {},
        )

    def _candidate_block(
        self,
        cell: CellId,
        at_time: Optional[float],
        include_followers: bool,
        stats: NNQueryStats,
        context: Optional[QueryBatchContext] = None,
    ) -> CandidateBlock:
        """Leaders (and optionally their followers) located in ``cell``.

        Every storage access is a key-range scan or a batch read — never a
        per-row point read — and all of them share through ``context`` when
        the query runs as part of a batch, as does the assembled block
        itself, per ``(cell, include_followers, at_time)``.  A block hit
        tallies the same ``scans_shared``/``rows_shared`` the underlying
        scan / latest-record / follower memo hits would have recorded,
        keeping the sharing report independent of this shortcut.  A
        non-predictive block also goes through the cross-batch memo.
        """
        if context is not None:
            cache_key = (cell, include_followers, at_time)
            block = context.cell_blocks.get(cache_key)
            if block is not None:
                n_leaders = block.n_leaders
                stats.leaders_scanned += n_leaders
                stats.followers_considered += len(block.ids) - n_leaders
                context.scans_shared += 1
                if at_time is not None:
                    context.rows_shared += n_leaders
                if include_followers:
                    context.rows_shared += n_leaders
                return block
        trace = None
        if at_time is None:
            memo = self._memo
            spatial, affiliation = self.spatial_table.table, self.affiliation_table.table
            versions = (spatial.version, affiliation.version)
            if versions != self._memo_versions:
                memo.clear()  # a table it read has changed
                self._memo_versions = versions
            memo_key = (cell.level, cell.pos, include_followers)
            entry = memo.get(memo_key)
            if entry is not None:
                return self._replay(memo_key, entry, cell, stats, context)
            trace = []

        leaders = self._scan_cell(cell, context, trace)
        ids = list(leaders)
        n_leaders = len(ids)
        stats.leaders_scanned += n_leaders
        if at_time is not None and leaders:
            # Predictive variant: dead-reckon each leader to the query time
            # from its latest Location record (LocationRecord.extrapolated,
            # inlined so no Point is built).
            records = self._latest_records(ids, context)
            xy = []
            for object_id, stored in leaders.items():
                record = records.get(object_id)
                if record is None:
                    xy.extend(stored)
                else:
                    x, y, dx, dy, timestamp = record
                    elapsed = at_time - timestamp
                    xy.append(x + dx * elapsed)
                    xy.append(y + dy * elapsed)
        else:
            xy = list(chain.from_iterable(leaders.values()))
        leader_ids: List[ObjectId] = []
        known = {}  # the block's non-empty Follower Info
        if include_followers and leaders:
            # Followers are appended behind the leaders, grouped by leader
            # in leader row order.
            follower_info = self._followers_of(ids, context).get
            for row in range(n_leaders):
                leader_id = ids[row]
                followers = follower_info(leader_id)
                if not followers:
                    continue
                known[leader_id] = followers
                leader_x = xy[2 * row]
                leader_y = xy[2 * row + 1]
                for follower_id, (dx, dy) in followers.items():
                    ids.append(follower_id)
                    xy.append(leader_x + dx)
                    xy.append(leader_y + dy)
                    leader_ids.append(leader_id)
            stats.followers_considered += len(ids) - n_leaders
        block = CandidateBlock(tuple(ids), tuple(xy), tuple(leader_ids), n_leaders)
        if context is not None:
            context.cell_blocks[cache_key] = block
        if trace:  # empty when the batch had scanned the cell already
            memo[memo_key] = (block, tuple(trace), known or None)
        return block

    def _replay(
        self,
        memo_key: Tuple[int, int, bool],
        entry: tuple,
        cell: CellId,
        stats: NNQueryStats,
        context: Optional[QueryBatchContext],
    ) -> CandidateBlock:
        """Serve a memoised block, paying what building it would have paid:
        its scan (unless the batch shares it) and its Follower Info read
        over the leaders the batch has not fetched; the context learns both,
        as after a build.

        The first hit compiles the read into a plan of atoms
        (:meth:`Table.compile_batch_read`) and stores it as the entry's
        fourth field.  The read is charged from the plan when no leader was
        fetched yet, live over the missing ones when some were."""
        include_followers = memo_key[2]
        if len(entry) == 3:
            block, trace, known = entry
            plan = None
            if include_followers and block.n_leaders:
                plan = self.affiliation_table.table.compile_batch_read(
                    block.ids[: block.n_leaders]
                )
            self._memo[memo_key] = block, trace, known, plan
        else:
            block, trace, known, plan = entry
        ids = block.ids
        n_leaders = block.n_leaders
        stats.leaders_scanned += n_leaders
        if context is not None and cell in context.cell_objects:
            context.scans_shared += 1
        else:
            self.spatial_table.table.replay_scan(*cell.key_range(), trace)
            if context is not None:  # _scan_cell reads the leaders off it
                context.cell_objects[cell] = block
        if plan is not None:
            table = self.affiliation_table.table
            if context is None:
                table.charge_batch_plan(plan)
            else:
                followers = context.followers
                missing = [leader for leader in ids[:n_leaders] if leader not in followers]
                if len(missing) == n_leaders:
                    table.charge_batch_plan(plan)
                elif missing:
                    table.charge_batch_read(missing)
                found = known or {}
                absent: dict = {}
                for leader in missing:
                    followers[leader] = found.get(leader, absent)
                context.rows_shared += n_leaders - len(missing)
            stats.followers_considered += len(ids) - n_leaders
        if context is not None:
            context.cell_blocks[(cell, include_followers, None)] = block
        return block
