"""Outside-in span timers for the traced pass.

One table, :data:`PROBES`, names every public callable the benchmark times,
by dotted name, with the layer it belongs to.  :class:`Tracer` resolves the
names, wraps each callable in place and restores it afterwards; nothing in
``src/`` knows it is being timed.  A name that no longer resolves is skipped
with one warning line and its layer reports ``null`` — a refactor that
deletes a layer must not have to edit the benchmark.

Self time follows the choosing-metrics rule: a span's duration minus the part
covered by probed spans beneath it.  Spans of the batch-level layers (client,
``server.*``, ``core.*``, ``archive.*``) are kept one by one; calls from the
``tables.*`` boundary down are only aggregated per (layer, calling layer),
because ~10^5 row-level spans per run would measure the recorder.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter
from typing import Dict, List, Optional, Tuple

#: ``(dotted name, layer, tag)``.  The tag splits ``bigtable.table`` into its
#: read and write halves; ``rows`` marks reads whose returned row count feeds
#: ``core.nn_search.rows_examined_per_result``.
PROBES: Tuple[Tuple[str, str, Optional[str]], ...] = (
    ("repro.server.scaleout.ScaleOutCluster.submit_update_batch", "server.scaleout", None),
    ("repro.server.scaleout.ScaleOutCluster.submit_query_batch", "server.scaleout", None),
    ("repro.server.worker.ShardService.update_batch", "server.worker", "update"),
    ("repro.server.worker.ShardService.query_batch", "server.worker", "query"),
    ("repro.server.cluster.ServerCluster.submit_update_batch", "server.cluster", None),
    ("repro.server.cluster.ServerCluster.submit_query_batch", "server.cluster", None),
    ("repro.server.frontend.FrontendServer.handle_update_batch", "server.frontend", None),
    ("repro.server.frontend.FrontendServer.handle_query_batch", "server.frontend", None),
    ("repro.core.moist.MoistIndexer.update_many", "core.moist", None),
    ("repro.core.moist.MoistIndexer.nearest_neighbors_batch", "core.moist", None),
    ("repro.core.moist.MoistIndexer.run_due_clustering", "core.moist", None),
    ("repro.core.update.UpdateProcessor.process_batch", "core.update", None),
    ("repro.core.nn_search.NearestNeighborSearcher.query_many", "core.nn_search", None),
    ("repro.core.flag.FlagTuner.best_level", "core.flag", None),
    ("repro.core.clustering.SchoolClusterer.cluster_due", "core.clustering", None),
    ("repro.core.moist.MoistIndexer.object_history", "core.history", None),
    ("repro.core.moist.MoistIndexer.location_of", "core.history", None),
    ("repro.core.moist.MoistIndexer.archive_aged", "core.history", None),
    ("repro.archive.ppp.PPPArchiver.archive", "archive.ppp", None),
    ("repro.archive.ppp.PPPArchiver.object_history", "archive.ppp", None),
    ("repro.tables.location_table.LocationTable.add_record", "tables.location", None),
    ("repro.tables.location_table.LocationTable.batch_add", "tables.location", None),
    ("repro.tables.location_table.LocationTable.latest", "tables.location", None),
    ("repro.tables.location_table.LocationTable.batch_latest", "tables.location", None),
    ("repro.tables.location_table.LocationTable.recent_history", "tables.location", None),
    ("repro.tables.location_table.LocationTable.full_history", "tables.location", None),
    ("repro.tables.location_table.LocationTable.age_out", "tables.location", None),
    ("repro.tables.location_table.LocationTable.drain_aged", "tables.location", None),
    ("repro.tables.spatial_index_table.SpatialIndexTable.objects_in_cell", "tables.spatial_index", None),
    ("repro.tables.spatial_index_table.SpatialIndexTable.count_in_cell", "tables.spatial_index", None),
    ("repro.tables.spatial_index_table.SpatialIndexTable.approximate_count_in_cell", "tables.spatial_index", None),
    ("repro.tables.spatial_index_table.SpatialIndexTable.move", "tables.spatial_index", None),
    ("repro.tables.spatial_index_table.SpatialIndexTable.add", "tables.spatial_index", None),
    ("repro.tables.spatial_index_table.SpatialIndexTable.remove", "tables.spatial_index", None),
    ("repro.tables.spatial_index_table.SpatialIndexTable.batch_remove", "tables.spatial_index", None),
    ("repro.tables.affiliation_table.AffiliationTable.role_of", "tables.affiliation", None),
    ("repro.tables.affiliation_table.AffiliationTable.batch_roles", "tables.affiliation", None),
    ("repro.tables.affiliation_table.AffiliationTable.set_leader", "tables.affiliation", None),
    ("repro.tables.affiliation_table.AffiliationTable.set_follower", "tables.affiliation", None),
    ("repro.tables.affiliation_table.AffiliationTable.add_follower", "tables.affiliation", None),
    ("repro.tables.affiliation_table.AffiliationTable.remove_follower", "tables.affiliation", None),
    ("repro.tables.affiliation_table.AffiliationTable.followers_of", "tables.affiliation", None),
    ("repro.tables.affiliation_table.AffiliationTable.batch_followers", "tables.affiliation", None),
    ("repro.tables.affiliation_table.AffiliationTable.batch_apply", "tables.affiliation", None),
    ("repro.bigtable.table.Table.scan", "bigtable.table", "rows"),
    ("repro.bigtable.table.Table.execute_plan", "bigtable.table", "rows"),
    ("repro.bigtable.table.Table.batch_read", "bigtable.table", "rows"),
    ("repro.bigtable.table.Table.read_latest", "bigtable.table", "read"),
    ("repro.bigtable.table.Table.read_versions", "bigtable.table", "read"),
    ("repro.bigtable.table.Table.read_row", "bigtable.table", "read"),
    ("repro.bigtable.table.Table.count_range", "bigtable.table", "read"),
    ("repro.bigtable.table.Table.write", "bigtable.table", "write"),
    ("repro.bigtable.table.Table.batch_write", "bigtable.table", "write"),
    ("repro.bigtable.table.Table.delete_cell", "bigtable.table", "write"),
    ("repro.bigtable.table.Table.delete_row", "bigtable.table", "write"),
    ("repro.bigtable.table.Table.batch_delete", "bigtable.table", "write"),
    ("repro.bigtable.table.Table.age_out", "bigtable.table", "write"),
    # The group-commit flush is where a batch's deferred ledger charges,
    # split checks, memtable flushes and the journal fsync actually run; it
    # has no public name, so a rename only costs a warning.
    ("repro.bigtable.table.Table._flush_group", "bigtable.table", "write"),
    ("repro.disk.store.DiskTableStore.journal_sync", "disk.store", "journal_sync"),
    ("repro.disk.store.DiskTableStore.checkpoint", "disk.store", "checkpoint"),
)

#: Layers whose spans are kept individually in the trace file.
_SPAN_LAYER_PREFIXES = ("client", "server.", "core.", "archive.")

CLIENT_LAYER = "client"
#: The client's own full collections (see ``harness.run_pass``).
GC_LAYER = "runtime.gc"


def resolve(dotted: str):
    """``(owner, attribute name, function)`` of a dotted name, or ``None``
    when any step of it no longer exists or is not a plain function."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for name in parts[split:-1]:
                owner = getattr(owner, name)
            target = inspect.getattr_static(owner, parts[-1])
        except AttributeError:
            return None
        return (owner, parts[-1], target) if inspect.isfunction(target) else None
    return None


class Tracer:
    """Installs the probes, records spans and aggregates self time."""

    def __init__(self) -> None:
        #: ``(layer, tag, calling layer) -> [calls, seconds, self seconds,
        #: calibrated self seconds, self seconds already calibrated, rows]``.
        self.aggregates: Dict[Tuple[str, Optional[str], str], List[float]] = {}
        self.spans: List[dict] = []
        self.unresolved: List[str] = []
        self.resolved_layers: set = {CLIENT_LAYER, GC_LAYER}
        self._installed: List[Tuple[object, str, object]] = []
        #: Open frames, innermost last: ``[layer, child seconds, span id]``.
        self._stack: List[list] = []
        self._batch = -1
        self._origin = 0.0

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        for dotted, layer, tag in PROBES:
            found = resolve(dotted)
            if found is None:
                self.unresolved.append(dotted)
                print(f"moistbench: warning: probe {dotted} does not resolve; "
                      f"layer {layer} loses it", file=sys.stderr)
                continue
            owner, name, function = found
            setattr(owner, name, self._wrap(function, dotted, layer, tag))
            self._installed.append((owner, name, function))
            self.resolved_layers.add(layer)
        self._origin = perf_counter()

    def uninstall(self) -> None:
        for owner, name, function in reversed(self._installed):
            setattr(owner, name, function)
        self._installed = []

    def _wrap(self, function, dotted: str, layer: str, tag: Optional[str]):
        stack = self._stack
        aggregates = self.aggregates
        spans = self.spans
        keep_span = layer.startswith(_SPAN_LAYER_PREFIXES)
        count_rows = tag == "rows"
        tracer = self

        def probe(*args, **kwargs):
            if not stack:  # outside a timed client call: not measured
                return function(*args, **kwargs)
            parent = stack[-1]
            frame = [layer, 0.0, None]
            if keep_span:
                frame[2] = len(spans)
                spans.append(None)
            stack.append(frame)
            rows = 0
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
                if count_rows:
                    rows = len(result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent[1] += duration
                key = (layer, tag, parent[0])
                entry = aggregates.get(key)
                if entry is None:
                    entry = aggregates[key] = [0, 0.0, 0.0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                entry[5] += rows
                if keep_span:
                    spans[frame[2]] = tracer._span(frame, dotted, start, end, parent[2])

        probe.__wrapped__ = function
        return probe

    def _span(self, frame: list, name: str, start: float, end: float, parent) -> dict:
        return {
            "id": frame[2],
            "name": name,
            "layer": frame[0],
            "start": start - self._origin,
            "end": end - self._origin,
            "parent": parent,
            "batch": self._batch,
        }

    # -- the client's own span around one timed call -----------------------
    def begin_call(self, batch: int, kind: str) -> None:
        self._batch = batch
        layer = GC_LAYER if kind == "gc" else CLIENT_LAYER
        self._stack.append([layer, 0.0, len(self.spans)])
        self.spans.append(None)

    def end_call(self, name: str, start: float, end: float, factor: float) -> None:
        """Close the client span and fold this call's self times into the
        calibrated totals with the call's own calibration factor."""
        frame = self._stack.pop()
        duration = end - start
        key = (frame[0], None, "")
        entry = self.aggregates.get(key)
        if entry is None:
            entry = self.aggregates[key] = [0, 0.0, 0.0, 0.0, 0.0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]
        self.spans[frame[2]] = self._span(frame, name, start, end, None)
        for entry in self.aggregates.values():
            entry[3] += (entry[2] - entry[4]) * factor
            entry[4] = entry[2]

    # -- read-out ------------------------------------------------------------
    def layer_totals(self) -> Dict[Tuple[str, Optional[str]], Dict[str, float]]:
        """Per ``(layer, tag)``: calls entering the layer from another
        layer, calibrated self seconds, raw self seconds, rows returned."""
        totals: Dict[Tuple[str, Optional[str]], Dict[str, float]] = {}
        for (layer, tag, caller), entry in self.aggregates.items():
            row = totals.setdefault(
                (layer, tag), {"calls": 0, "self_s": 0.0, "raw_self_s": 0.0, "rows": 0}
            )
            if caller != layer:
                row["calls"] += entry[0]
            row["self_s"] += entry[3]
            row["raw_self_s"] += entry[2]
            row["rows"] += entry[5]
        return totals

    def aggregate_rows(self) -> List[dict]:
        return [
            {
                "layer": layer,
                "tag": tag,
                "caller": caller,
                "calls": entry[0],
                "total_s": entry[1],
                "self_s": entry[2],
                "cal_self_s": entry[3],
            }
            for (layer, tag, caller), entry in sorted(
                self.aggregates.items(), key=lambda item: str(item[0])
            )
        ]
