"""From measured passes to named metrics.

End-to-end metrics come from an untraced pass only.  Per-layer metrics come
from three sources: the untraced client loop itself (``client.*``), counters
the system already keeps (ledgers, LSM, tablets, transport), and the traced
pass's self times.  A source that does not exist for a workload — a layer the
workload never builds, or a name a refactor removed — yields ``None``.
"""

from __future__ import annotations

import os
import resource
import statistics
from typing import Callable, Dict, List, Optional

from harness import Client, Pass

Value = Optional[float]


def end_to_end(outcome: Pass) -> Dict[str, float]:
    # Parent high-water mark plus the largest reaped worker (KiB on Linux),
    # each less the calibrator's table, which forked workers inherit.
    table = outcome.client.calibrator.footprint_kib
    parent = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - table
    worker = max(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss - table, 0)
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "ops_per_s": outcome.ops() / outcome.cal_s(),
        "round_ms_p50": statistics.median(outcome.round_cal_ms()),
        "peak_rss_mb": (parent + worker) / 1024.0,
        "sim_requests_per_s": outcome.sim_ops / outcome.sim_seconds,
    }


def _rate(outcome: Pass, kind: str) -> Value:
    seconds = outcome.cal_s(kind)
    return outcome.ops(kind) / seconds if seconds > 0 else None


def _batch_ms(outcome: Pass, kind: str, fraction: float) -> Value:
    ordered = sorted(1000.0 * s.cal for s in outcome.timed(kind))
    if not ordered:
        return None
    return ordered[min(int(len(ordered) * fraction), len(ordered) - 1)]


def client_layer(outcome: Pass) -> Dict[str, Value]:
    """The client loop's own breakdown of an untraced pass."""
    batches = outcome.timed("update") or outcome.timed("query")
    third = len(batches) // 3
    drift = None
    if third:
        early = statistics.median(s.cal for s in batches[:third])
        late = statistics.median(s.cal for s in batches[-third:])
        drift = late / early
    client: Client = outcome.client
    return {
        "client.updates_per_s": _rate(outcome, "update"),
        "client.queries_per_s": _rate(outcome, "query"),
        "client.history_reads_per_s": _rate(outcome, "history"),
        "client.update_batch_ms_p50": _batch_ms(outcome, "update", 0.50),
        "client.query_batch_ms_p50": _batch_ms(outcome, "query", 0.50),
        "client.update_batch_ms_p95": _batch_ms(outcome, "update", 0.95),
        "client.query_batch_ms_p90": _batch_ms(outcome, "query", 0.90),
        "client.batch_ms_drift": drift,
        "client.raw_wall_s": outcome.raw_s(),
        "client.cal_factor": outcome.cal_factor(),
        "client.failed_ratio": client.failed / max(client.attempted, 1),
        "workload.generate_s": outcome.generate_s,
    }


#: Probed layers reporting ``<layer>.self_s`` and ``<layer>.calls``.
TIMED_LAYERS = (
    "server.scaleout", "server.cluster", "server.frontend", "core.moist",
    "core.update", "core.nn_search", "core.flag", "core.clustering",
    "core.history", "archive.ppp", "tables.location", "tables.spatial_index",
    "tables.affiliation", "runtime.gc",
)


def traced_layers(tracer, traced: Pass, untraced: Pass) -> Dict[str, Value]:
    """Self times of the traced pass, in calibrated seconds."""
    totals = tracer.layer_totals()
    resolved = tracer.resolved_layers
    out: Dict[str, Value] = {}

    def total(layer: str, tags, field: str) -> Value:
        if layer not in resolved:
            return None
        return sum(row[field] for (name, tag), row in totals.items()
                   if name == layer and (tags is None or tag in tags))

    for layer in TIMED_LAYERS:
        out[f"{layer}.self_s"] = total(layer, None, "self_s")
        out[f"{layer}.calls"] = total(layer, None, "calls")
    reads = ("rows", "read")
    out["bigtable.table.read_self_s"] = total("bigtable.table", reads, "self_s")
    out["bigtable.table.write_self_s"] = total("bigtable.table", ("write",), "self_s")
    out["bigtable.table.read_calls"] = total("bigtable.table", reads, "calls")
    out["bigtable.table.write_calls"] = total("bigtable.table", ("write",), "calls")
    rows = total("bigtable.table", ("rows",), "rows")
    out["bigtable.table.rows_returned"] = rows
    out["core.nn_search.rows_examined_per_result"] = (
        rows / traced.neighbours if rows is not None and traced.neighbours else None
    )
    out["server.worker.apply_update_s"] = total("server.worker", ("update",), "self_s")
    out["server.worker.apply_query_s"] = total("server.worker", ("query",), "self_s")
    out["disk.store.journal_sync_s"] = total("disk.store", ("journal_sync",), "self_s")
    out["disk.store.journal_sync_calls"] = total("disk.store", ("journal_sync",), "calls")
    out["disk.store.checkpoint_s"] = total("disk.store", ("checkpoint",), "self_s")
    out["client.residue_s"] = totals.get(("client", None), {}).get("self_s")
    out["client.trace_overhead_ratio"] = traced.raw_s() / untraced.raw_s()
    return out


def self_time_gap(tracer, traced: Pass) -> float:
    """|sum of every layer's self time + client residue - traced wall| as a
    share of the traced wall: the budget must add up."""
    accounted = sum(row["raw_self_s"] for row in tracer.layer_totals().values())
    wall = traced.raw_s()
    return abs(accounted - wall) / wall


def _read(source: Callable[[], float]) -> Value:
    """A counter, or ``None`` when this system has no such thing."""
    try:
        value = source()
    except (AttributeError, KeyError, TypeError, ImportError):
        return None
    return None if value is None else float(value)


def collect_counters(workload, system, work_dir: str) -> Dict[str, Value]:
    """Counters the live system keeps, read before it is closed."""
    indexer = workload.indexer_of(system)
    backend = workload.backend_of(system)

    def log_fsyncs():
        from repro.bigtable.cost import OpKind
        return backend.counter.durability_count(OpKind.LOG_APPEND)

    try:
        phases = system.metrics_snapshot()
    except AttributeError:
        phases = None

    def phase(key: str) -> Callable[[], float]:
        return lambda: phases[key]

    out = {
        "core.update.shed_ratio": _read(lambda: indexer.shed_ratio()),
        "core.clustering.schools": _read(lambda: indexer.school_count),
        "archive.ppp.records_archived": _read(lambda: workload.archived),
        "bigtable.scan.cache_hit_rate": _read(lambda: backend.cache_hit_rate()),
        "bigtable.cost.storage_rpcs": _read(lambda: backend.counter.storage_rpc_count()),
        "bigtable.cost.sim_storage_s": _read(lambda: backend.counter.simulated_seconds),
        "bigtable.cost.durability_s": _read(lambda: backend.counter.durability_seconds),
        "bigtable.lsm.runs": _read(lambda: backend.run_count()),
        "bigtable.lsm.write_amplification": _read(lambda: backend.write_amplification()),
        "bigtable.lsm.log_fsyncs": _read(log_fsyncs),
        "bigtable.tablet.count": _read(lambda: backend.tablet_count()),
        "bigtable.tablet.hot_share": _read(lambda: backend.hot_tablet_share()),
        "server.rpc.frames": _read(lambda: backend.rpc_frame_count()),
        "server.rpc.bytes": _read(lambda: backend.serialized_bytes()),
        "server.scaleout.encode_s": _read(phase("encode_seconds")),
        "server.scaleout.send_s": _read(phase("send_seconds")),
        "server.scaleout.blocked_wait_s": _read(phase("blocked_wait_seconds")),
        "server.scaleout.decode_s": _read(phase("decode_seconds")),
    }
    if out["server.rpc.frames"] is not None:
        out.update(_disk_files(work_dir))
    return out


def _disk_files(work_dir: str) -> Dict[str, Value]:
    """Bytes on disk at the end of the timed section, by file role."""
    sizes = {"journal": 0, "run": 0, "state_blob": 0}
    for base, _, files in os.walk(work_dir):
        for name in files:
            size = os.path.getsize(os.path.join(base, name))
            if name == "journal.bin":
                sizes["journal"] += size
            elif name.endswith(".run"):
                sizes["run"] += size
            elif name == "SHARD_STATE.bin":
                sizes["state_blob"] += size
    return {f"disk.store.{role}_bytes": float(size) for role, size in sizes.items()}


def federation_layer(outcome: Pass) -> Dict[str, Value]:
    """What only the real federation run can report: client-side totals of
    the two submit calls and the per-request / per-update byte costs."""
    counters = outcome.counters
    requests = outcome.ops()
    updates = outcome.ops("update")
    wire = counters.get("server.rpc.bytes")
    return {
        "server.scaleout.update_s": outcome.cal_s("update"),
        "server.scaleout.query_s": outcome.cal_s("query"),
        "server.rpc.wire_bytes_per_request": wire / requests if wire is not None else None,
        "disk.store.disk_bytes_per_update": outcome.disk_growth_bytes / updates,
    }


def codec_wire(workload, client: Client, rounds: int = 4) -> Dict[str, Value]:
    """The wire codec timed on the workload's own batches, in the client's
    process: what one message costs to encode and decode, and its size."""
    try:
        from repro.server import rpc
        encode_updates = rpc.encode_update_batch
        decode_updates = rpc.decode_update_batch
        encode_queries = rpc.encode_query_batch
    except (ImportError, AttributeError):
        return {}
    update_batches: List[list] = []
    query_batches: List[list] = []
    for index in range(rounds):
        updates, queries = workload.round_inputs(index)
        update_batches.extend(updates)
        if queries:
            query_batches.append(queries)
    messages = sum(len(batch) for batch in update_batches)
    queries = sum(len(batch) for batch in query_batches)
    first = len(client.samples)
    bodies = client.call("encode_u", 0, lambda: [encode_updates(b) for b in update_batches])
    if bodies is None:
        return {}
    client.call("decode_u", 0, lambda: [decode_updates(body) for body in bodies])
    client.call("encode_q", 0, lambda: [encode_queries(b) for b in query_batches])

    def micros(kind: str, count: int) -> Value:
        return 1e6 * client.cal_seconds((kind,), first) / count if count else None

    return {
        "codec.wire.update_encode_us_per_msg": micros("encode_u", messages),
        "codec.wire.update_decode_us_per_msg": micros("decode_u", messages),
        "codec.wire.query_encode_us_per_q": micros("encode_q", queries),
        "codec.wire.update_bytes_per_msg": (
            sum(len(body) for body in bodies) / messages if messages else None
        ),
    }


def src_lines(root: str) -> Value:
    """``wc -l`` over ``src/**/*.py`` — the simplicity needle."""
    total = 0
    for base, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as handle:
                    total += handle.read().count(b"\n")
    return float(total) if total else None
