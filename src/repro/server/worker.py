"""Shard workers: one complete MOIST stack per shard group.

The scale-out execution model is shared-nothing over a *fixed* number of
logical shard groups.  Each shard group hosts a full, unmodified stack —
a :class:`~repro.bigtable.emulator.BigtableEmulator`, a
:class:`~repro.core.moist.MoistIndexer`, a
:class:`~repro.server.cluster.ServerCluster` of front-ends and (optionally)
a :class:`~repro.server.master.TabletMaster` — built deterministically from
a :class:`ShardRecipe`.  Updates route to the single shard owning the
object id; NN query batches broadcast to every shard and merge top-k on
the client side.

Worker *processes* are mere execution vehicles: ``shard → worker`` is
``shard_id % num_workers``, and no per-shard computation depends on which
worker ran it, so results are worker-count-independent by construction —
the determinism the acceptance criteria demand.  The same
:class:`ShardService` runs in-process (zero RPC) for the baseline backend.

``ShardService`` holds one shard's state; :data:`VERBS` is the declared
worker-side verb set (name → callable, read-only flag), and it holds what
production sends: the data plane (batched updates/queries via the compact
opcodes), the build, the master's rebalance and fault injection, and the
ledger and metrics reads the federation merges.  Reachability, mutability
and the accounting-checkpoint trigger all derive from that one table, on
both transports.

The checkpoint itself is a fixed-order walk (``accounting_state`` /
``_install_accounting``) over the owners of simulated-but-not-durable
state — this service's exactly-once slot, the emulator, the FLAG tuner,
the cluster, the master — each exporting and installing its own section;
this module names the sections and reads nobody's private attributes.
"""

from __future__ import annotations

import os
import shutil
import socket
from dataclasses import dataclass, replace
from functools import wraps
from random import Random
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from zlib import crc32

from repro.bigtable.emulator import BigtableEmulator
from repro.bigtable.tablet import TabletOptions
from repro.codec.values import pack_value, unpack_value
from repro.codec.wire import NeighborStreamEncoder
from repro.core.config import MoistConfig
from repro.disk.store import STORE_STEPS, StateBlob
from repro.errors import (
    CodecError,
    ConfigurationError,
    RpcError,
    StaleRequestError,
    UnrecoverableShardError,
)
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import UpdateMessage, format_object_id
from repro.server import rpc
from repro.server.cluster import ServerCluster
from repro.server.master import MasterOptions, TabletMaster

#: Accounting-checkpoint filename inside a shard's storage directory.
STATE_BLOB_NAME = "SHARD_STATE.bin"

#: Where a worker's wall time goes, per shard: the steps of
#: :func:`dispatch_request`; the parts of ``state_blob`` (export the
#: sections, pack them, write the slot); then the disk store's share of
#: ``apply`` (:data:`~repro.disk.store.STORE_STEPS`: the barrier closes'
#: ``journal_sync``, and ``checkpoint`` with its parts ``run_encode``,
#: ``run_write``, ``manifest_write`` and ``run_gc``).
DISPATCH_PHASES = ("decode", "dedup", "apply", "state_blob", "encode")
STATE_BLOB_STEPS = ("state_export", "state_pack", "state_write")
WORKER_PHASES = DISPATCH_PHASES + STATE_BLOB_STEPS + STORE_STEPS

#: The worker-side verb table: ``name -> (callable taking the service
#: first, read-only flag)``.  The one answer to "which verbs exist and
#: which can change shard state": ``CALL`` dispatch on both transports
#: resolves names through :func:`lookup_verb` — anything absent, private
#: names included, is an :class:`RpcError` — and every verb not flagged
#: read-only (like every data-plane batch) re-checkpoints the accounting
#: soft state when the recipe asks for durable accounting — once the
#: durability barrier it ran under has paid the journal fsyncs it owed.
#: Only production's verbs are registered here; a test harness adds its
#: own through :func:`_register` before any worker forks.
VERBS: Dict[str, Tuple[Callable[..., Any], bool]] = {}


def _register(name: str, function: Callable[..., Any], read_only: bool):
    """Add one verb; a name already in :data:`VERBS` is refused, so no
    later registration can shadow a verb in every forked worker."""
    if name in VERBS:
        raise ConfigurationError(f"worker verb {name!r} is already registered")

    @wraps(function)
    def barriered(service, *args, **kwargs):
        if service.indexer is None:  # nothing built yet: no store to hold
            return function(service, *args, **kwargs)
        with service.indexer.emulator.durability_barrier():
            return function(service, *args, **kwargs)

    verb = function if read_only else barriered
    VERBS[name] = (verb, read_only)
    return verb


def _verb(read_only: bool = False):
    """Register a :class:`ShardService` method (or any function taking the
    service first) as a callable verb under its own name."""
    return lambda function: _register(function.__name__, function, read_only)


def _forward(
    target: Callable[["ShardService"], object], read_only: bool, *names: str
) -> None:
    """Register verbs that are ``target(service).<same name>(...)``."""

    def forwarder(name: str):
        def verb(service, *args, **kwargs):
            return getattr(target(service), name)(*args, **kwargs)

        return verb

    for name in names:
        _register(name, forwarder(name), read_only)


def lookup_verb(method: str) -> Tuple[Callable[..., Any], bool]:
    """``(callable, read_only)`` of one verb; unknown names raise."""
    entry = VERBS.get(method)
    if entry is None:
        raise RpcError(f"unknown shard service method {method!r}")
    return entry


def shard_of(object_id: str, num_shards: int) -> int:
    """The shard group owning one object id (stable hash affinity)."""
    if num_shards <= 1:
        return 0
    return crc32(object_id.encode("utf-8")) % num_shards


@dataclass(frozen=True)
class ShardRecipe:
    """Deterministic build instructions for one shard group's stack.

    A recipe fully determines the shard's preloaded state: the preload
    consumes the seeded rng identically for *every* object index (matching
    :func:`repro.experiments.common.uniform_leader_indexer` draw for draw)
    and applies only the updates whose id hashes to this shard — so shard
    contents depend on ``(seed, num_objects, num_shards, shard_id)`` and on
    nothing else, least of all the worker count.  With ``num_shards=1`` the
    shard is exactly the plain single-process indexer.
    """

    num_objects: int
    num_shards: int = 1
    shard_id: int = 0
    seed: int = 17
    region_size: float = 1000.0
    storage_level: int = 12
    num_servers: int = 1
    request_overhead_s: float = 12e-6
    contention_alpha: float = 0.025
    record_service_times: bool = False
    with_master: bool = False
    master_options: Optional[MasterOptions] = None
    tablet_options: Optional[TabletOptions] = None
    #: Base directory for real-bytes persistence; each shard stores its
    #: tables under ``<storage_dir>/shard-<id>``.  When the directory holds
    #: a checkpoint from a previous process, ``build_indexer`` *restores*
    #: the shard instead of preloading it.
    storage_dir: Optional[str] = None
    #: Checkpoint the shard's *accounting* soft state (ledgers, caches,
    #: server metrics, the exactly-once slot) to
    #: ``SHARD_STATE.bin`` after every mutating verb.  The durable LSM
    #: state already survives SIGKILL bit-identically; with this on,
    #: a supervised respawn also restores every simulated tally, so a
    #: killed-and-healed run reports byte-identically to a fault-free one.
    durable_accounting: bool = False

    def __post_init__(self) -> None:
        if self.num_objects < 0:
            raise ConfigurationError("num_objects must be >= 0")
        if self.num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        if not 0 <= self.shard_id < self.num_shards:
            raise ConfigurationError(
                f"shard_id {self.shard_id} outside [0, {self.num_shards})"
            )
        if self.num_servers < 1:
            raise ConfigurationError("num_servers must be >= 1")

    def sibling(self, shard_id: int) -> "ShardRecipe":
        """The same recipe for another shard id."""
        return replace(self, shard_id=shard_id)

    @property
    def shard_storage_dir(self) -> Optional[str]:
        """This shard's private storage directory, or ``None``."""
        if self.storage_dir is None:
            return None
        return os.path.join(self.storage_dir, f"shard-{self.shard_id:02d}")


def _has_disk_checkpoint(storage_dir: str) -> bool:
    """True when a previous process left at least one table checkpoint
    under this shard directory (restore instead of preload)."""
    if not os.path.isdir(storage_dir):
        return False
    for entry in os.listdir(storage_dir):
        if os.path.exists(os.path.join(storage_dir, entry, "MANIFEST.bin")):
            return True
    return False


def _emulator(service: "ShardService"):
    return service._require_cluster().indexer.emulator


class ShardService:
    """The worker-side state and verbs of one shard group.

    Every entry of :data:`VERBS` is callable through the generic ``CALL``
    opcode (:meth:`call` in-process); ``update_batch``/``query_batch``
    additionally serve the compact binary opcodes.  One instance runs per
    shard id, inside a worker process (RPC) or inside the parent (the
    in-process baseline) — same code either way, which is what makes the
    two backends bit-identical.  It holds no test-only state: a verb a
    test harness registers keeps its own state outside the service.
    """

    def __init__(self) -> None:
        self.recipe: Optional[ShardRecipe] = None
        self.indexer = None
        self.cluster: Optional[ServerCluster] = None
        self.master: Optional[TabletMaster] = None
        #: Where the built recipe checkpoints its accounting soft state
        #: (``None``: no indexer yet, or the recipe keeps no checkpoint).
        self._state_blob: Optional[StateBlob] = None
        #: Per-shard stateful neighbour stream encoder (its decoder twin
        #: lives in the parent's pipe transport).  Keeping the state per
        #: *shard* — never per connection or worker — is what makes wire
        #: bytes invariant across worker counts.
        self.neighbor_encoder = NeighborStreamEncoder()
        #: Exactly-once slot: ``(request_id, opcode, result)`` of the last
        #: applied mutating request, or ``None``.  A round carries at most
        #: one request per shard and a heal resends only the round's
        #: uncollected requests under their pinned ids, so the newest
        #: request is the only one a resend can name.
        self._slot: Optional[Tuple[int, int, Any]] = None
        #: Wall seconds per :func:`dispatch_request` step and per part of
        #: ``state_blob`` since this process first served the shard
        #: (observability only).
        self.phase: Dict[str, float] = dict.fromkeys(
            DISPATCH_PHASES + STATE_BLOB_STEPS, 0.0
        )

    def call(self, method: str, *args, **kwargs) -> Any:
        """Run one verb by name (the in-process ``CALL``)."""
        return lookup_verb(method)[0](self, *args, **kwargs)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @_verb()
    def build_indexer(self, recipe: ShardRecipe) -> Dict[str, int]:
        """Build this shard's stack from a recipe (idempotence guard)."""
        if self.indexer is not None:
            raise ConfigurationError("this shard already built its indexer")
        from repro.baselines.no_school import build_no_school_indexer

        config = MoistConfig(
            world=BoundingBox(0.0, 0.0, recipe.region_size, recipe.region_size),
            storage_level=recipe.storage_level,
        )
        storage_dir = recipe.shard_storage_dir
        restoring = storage_dir is not None and _has_disk_checkpoint(storage_dir)
        state_blob = None
        if storage_dir is not None and recipe.durable_accounting:
            state_blob = StateBlob(os.path.join(storage_dir, STATE_BLOB_NAME))
        accounting = None
        restore_seq_bounds = None
        if restoring and state_blob is not None:
            # An unreadable blob raises: restoring without its ledgers and
            # exactly-once slot would not be the lossless respawn it claims.
            accounting = state_blob.read()
            if accounting is None:
                # The first build writes the blob before anything is acked,
                # so a manifest without one is that build, killed: nothing
                # to lose — start it over from the recipe.
                shutil.rmtree(storage_dir)
                restoring = False
            else:
                # Cap journal replay at the last *acked* sequence per table:
                # anything past it was never acknowledged to the parent, so
                # the supervisor's retry re-sends it exactly once.
                restore_seq_bounds = BigtableEmulator.acked_seqs(
                    accounting["emulator"]
                )
        indexer = build_no_school_indexer(
            config,
            tablet_options=recipe.tablet_options,
            storage_dir=storage_dir,
            restore_seq_bounds=restore_seq_bounds,
        )
        if restoring:
            # The emulator already restored every table bit-identically from
            # its disk store; rebuild the facade tallies instead of
            # re-preloading (which would double-apply every update).
            loaded = indexer.restore_facade_state()
        else:
            rng = Random(recipe.seed)
            loaded = 0
            # Nothing is acknowledged before this verb returns and a killed
            # first build starts over (above): one barrier, one fsync a store.
            with indexer.emulator.durability_barrier():
                for index in range(recipe.num_objects):
                    # Consume the rng for every index — owned or not — so
                    # shard contents are independent of how many shards exist.
                    location = Point(
                        rng.uniform(0.0, recipe.region_size),
                        rng.uniform(0.0, recipe.region_size),
                    )
                    velocity = Vector(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
                    object_id = format_object_id(index)
                    if shard_of(object_id, recipe.num_shards) != recipe.shard_id:
                        continue
                    indexer.update(
                        UpdateMessage(
                            object_id=object_id,
                            location=location,
                            velocity=velocity,
                            timestamp=0.0,
                        )
                    )
                    loaded += 1
        indexer.emulator.reset_counters()
        cluster = ServerCluster(
            indexer,
            num_servers=recipe.num_servers,
            request_overhead_s=recipe.request_overhead_s,
            contention_alpha=recipe.contention_alpha,
            record_service_times=recipe.record_service_times,
        )
        master = (
            TabletMaster(cluster, recipe.master_options)
            if recipe.with_master
            else None
        )
        self.recipe = recipe
        self.indexer = indexer
        self.cluster = cluster
        self.master = master
        self._state_blob = state_blob
        if accounting is not None:
            self._install_accounting(accounting)
        return {"objects_loaded": loaded, "tablets": indexer.emulator.tablet_count()}

    def _require_cluster(self) -> ServerCluster:
        if self.cluster is None:
            raise ConfigurationError("this shard has no indexer yet (build_indexer)")
        return self.cluster

    # ------------------------------------------------------------------
    # Accounting soft state (supervised respawn)
    # ------------------------------------------------------------------
    def _state_owners(self) -> Dict[str, object]:
        """``section -> its owner`` in blob order (``STATE_SECTIONS`` in
        :mod:`repro.disk.store`); ``None`` where the recipe builds none."""
        return {
            "dedup": self,
            "emulator": self._require_cluster().indexer.emulator,
            "flag": self.indexer.flag,
            "cluster": self.cluster,
            "master": self.master,
        }

    def accounting_state(self) -> Dict[str, Any]:
        """Everything simulated-but-not-durable: one named section per
        owner, each that owner's ``export_state()``.  The LSM state already
        survives SIGKILL exactly (manifest + runs + journal tail); this is
        the rest of what :meth:`metrics`/``to_report`` can observe, plus the
        exactly-once slot and the per-table acked journal watermarks that
        bound the restore."""
        return {
            name: None if owner is None else owner.export_state()
            for name, owner in self._state_owners().items()
        }

    def _install_accounting(self, state: Dict[str, Any]) -> None:
        """Hand each section to its owner on a freshly restored stack.  A
        snapshot that does not fit — a section missing, an owner this recipe
        does not build, a refusal by the owner — fails the build with a
        typed error instead of continuing on a partial install."""
        try:
            for name, owner in self._state_owners().items():
                if (owner is None) != (state[name] is None):
                    raise UnrecoverableShardError(
                        f"section {name!r} is not what this recipe builds"
                    )
                if owner is not None:
                    owner.install_state(state[name])
        except (KeyError, IndexError, TypeError, ValueError, CodecError) as exc:
            raise UnrecoverableShardError(
                f"accounting snapshot does not fit this shard: {exc!r}"
            ) from exc

    def export_state(self) -> Tuple[bytes, ...]:
        """The slot as a tuple of zero or one encoded entries."""
        return () if self._slot is None else (pack_value(self._slot),)

    def install_state(self, state: Tuple[bytes, ...]) -> None:
        if len(state) > 1:
            raise ValueError(f"{len(state)} exactly-once entries, at most 1")
        self._slot = None
        for encoded in state:
            request_id, opcode, result = unpack_value(encoded)
            self._slot = (request_id, opcode, result)

    def _write_accounting_checkpoint(self) -> None:
        """Persist :meth:`accounting_state` (when the recipe asks for it) —
        called after every state-changing verb, so the newest valid blob on
        disk always describes the last *completed* request."""
        blob = self._state_blob
        if blob is None:
            return
        started = perf_counter()
        state = self.accounting_state()
        exported = perf_counter()
        body = pack_value(state)
        packed = perf_counter()
        blob.write(body)
        phase = self.phase
        phase["state_export"] += exported - started
        phase["state_pack"] += packed - exported
        phase["state_write"] += perf_counter() - packed

    def _apply_once(
        self, request_id: int, opcode: int, lap: "_Laps", apply: Callable[[], Any]
    ) -> Any:
        """Run one mutating request exactly once under its pinned id.

        The slot's own id is a resend: its recorded result comes back and
        nothing runs.  A lower id, or the slot's id with another opcode, is
        a protocol violation (:class:`StaleRequestError`).  A higher id
        applies, is recorded, then checkpointed — before the response goes
        out, so a kill at any point leaves the shard either unaware of the
        request (the resend applies it) or able to replay its result."""
        slot = self._slot
        if slot is not None and request_id <= slot[0]:
            if request_id < slot[0] or opcode != slot[1]:
                raise StaleRequestError(
                    f"request id {request_id} (opcode {opcode}) is not newer "
                    f"than the last applied request {slot[0]} (opcode "
                    f"{slot[1]})"
                )
            lap.mark("dedup")
            return slot[2]
        lap.mark("dedup")
        result = apply()
        lap.mark("apply")
        self._slot = (request_id, opcode, result)
        self._write_accounting_checkpoint()
        lap.mark("state_blob")
        return result

    def _require_master(self) -> TabletMaster:
        if self.master is None:
            raise ConfigurationError("this shard was built without a tablet master")
        return self.master

    # ------------------------------------------------------------------
    # Data plane (compact opcodes ride these)
    # ------------------------------------------------------------------
    @_verb()
    def update_batch(
        self, messages: Sequence[UpdateMessage]
    ) -> Tuple[int, float]:
        """Apply one owned slice of a group-commit buffer; returns
        ``(processed, shard makespan)`` so the parent tracks the cluster
        makespan without an extra round trip."""
        cluster = self._require_cluster()
        processed = cluster.submit_update_batch(messages)
        return processed, cluster.makespan_seconds()

    @_verb()
    def query_batch(self, queries: Sequence[object]) -> Tuple[list, float]:
        """Run one broadcast probe set against this shard's objects."""
        cluster = self._require_cluster()
        results = cluster.submit_query_batch(queries)
        return results, cluster.makespan_seconds()

    # ------------------------------------------------------------------
    # Control plane (the plain master / cluster / emulator forwards are
    # registered below the class, one rule each)
    # ------------------------------------------------------------------
    @_verb()
    def apply_fault(
        self,
        kind: str,
        server_id: Optional[int] = None,
        crash_point: Optional[str] = None,
        describe_prefix: str = "",
    ) -> str:
        """One scheduled fault with the master's skip semantics: unfireable
        events are reported as skipped, never raised."""
        return describe_prefix + self._require_master().apply_fault(
            kind, server_id, crash_point
        )

    # ------------------------------------------------------------------
    # Ledgers & metrics
    # ------------------------------------------------------------------
    @_verb(read_only=True)
    def counter_snapshot(self):
        return _emulator(self).counter.snapshot()

    @_verb(read_only=True)
    def cache_totals(self) -> Tuple[int, int]:
        """(hits, lookups) over every table's block cache."""
        hits = 0
        lookups = 0
        for entry in _emulator(self).block_cache_stats():
            hits += entry.hits
            lookups += entry.lookups
        return hits, lookups

    @_verb(read_only=True)
    def metrics(self) -> Dict[str, Any]:
        """Everything the parent needs to merge per-shard accounting."""
        cluster = self._require_cluster()
        snapshot = cluster.metrics_snapshot()
        snapshot["master_actions"] = cluster.master_action_counts()
        snapshot["has_master"] = cluster.has_master
        snapshot["worker_phase"] = self.worker_phase()
        return snapshot

    def worker_phase(self) -> Dict[str, float]:
        """Wall seconds per :data:`WORKER_PHASES` entry: this shard's
        dispatch steps plus its tables' disk-store timers (zero without a
        store).  Wall-clock, so never part of a report."""
        phase = dict.fromkeys(WORKER_PHASES, 0.0)
        phase.update(self.phase)
        emulator = self.indexer.emulator
        for name in emulator.table_names():
            for step, seconds in emulator.table(name).store_seconds().items():
                phase[step] += seconds
        return phase

    @_verb(read_only=True)
    def service_time_samples(self) -> List[float]:
        """Per-request simulated service-time samples, flattened in server
        order (empty unless the recipe set ``record_service_times``).  The
        parent merges every shard's samples in fixed shard order and sorts,
        so the scale-out percentile is identical for every worker count."""
        samples: List[float] = []
        for server in self._require_cluster().servers:
            samples.extend(server.service_time_samples)
        return samples


_forward(_emulator, True, "run_count", "tablet_stats", "tablet_count")
_forward(ShardService._require_cluster, False, "reset_metrics")
_forward(ShardService._require_master, False, "rebalance")


# --------------------------------------------------------------------------
# Worker process entry point
# --------------------------------------------------------------------------


class _Laps:
    """Adds the wall time between consecutive marks to named totals."""

    __slots__ = ("totals", "last")

    def __init__(self, totals: Dict[str, float]) -> None:
        self.totals = totals
        self.last = perf_counter()

    def mark(self, name: str) -> None:
        now = perf_counter()
        self.totals[name] += now - self.last
        self.last = now


def dispatch_request(
    services: Dict[int, ShardService],
    shard_id: int,
    opcode: int,
    body: bytes,
    request_id: int = 0,
) -> bytes:
    """Decode one request frame, run it, encode the response body.

    Every mutating request — a data-plane batch or a CALL to a verb not
    flagged read-only — runs through the shard's exactly-once slot
    (:meth:`ShardService._apply_once`): a resend of the last applied
    request replays its recorded result, and a fresh one applies under the
    verb's durability barrier (journal bytes reach the disk as it returns),
    is recorded, then re-checkpoints the accounting soft state.  A
    read-only verb neither records nor is checked: a resend runs it again.
    ``build_indexer`` bypasses the slot too — it is the verb that installs
    the slot on a restore, and the supervisor's rebuild carries a newer id
    than the round it heals, whose resend must still replay.
    """
    service = services.get(shard_id)
    if service is None:
        service = ShardService()
        services[shard_id] = service
    if opcode == rpc.OP_PING:
        return b""
    lap = _Laps(service.phase)
    if opcode == rpc.OP_UPDATE_BATCH:
        messages = rpc.decode_update_batch(body)
        lap.mark("decode")
        recorded = service._apply_once(
            request_id, opcode, lap, lambda: service.update_batch(messages)
        )
        response = rpc.UPDATE_RESULT.pack(*recorded)
    elif opcode == rpc.OP_QUERY_BATCH:
        queries = rpc.decode_query_batch(body)
        lap.mark("decode")
        results, makespan = service._apply_once(
            request_id, opcode, lap, lambda: service.query_batch(queries)
        )
        # Stateful per-shard stream encoding: only what changed since this
        # shard's previous response frame actually rides the wire.  A
        # replay re-encodes the recorded *results* with the current stream
        # encoder: a respawned worker starts a fresh encoder and the parent
        # resets its decoder twin, so recorded raw bytes from the previous
        # process would not decode.
        response = rpc.MAKESPAN.pack(makespan) + service.neighbor_encoder.encode(
            results, queries
        )
    elif opcode == rpc.OP_CALL:
        method, args, kwargs = rpc.decode_call(body)
        verb, read_only = lookup_verb(method)
        lap.mark("decode")
        if read_only or method == "build_indexer":
            result = verb(service, *args, **kwargs)
            lap.mark("apply")
            if not read_only:
                service._write_accounting_checkpoint()
                lap.mark("state_blob")
        else:
            result = service._apply_once(
                request_id, opcode, lap, lambda: verb(service, *args, **kwargs)
            )
        response = rpc.encode_result(result)
    else:
        raise RpcError(f"unknown opcode {opcode}")
    lap.mark("encode")
    return response


def worker_main(sock: socket.socket) -> None:
    """Main loop of one worker process: serve frames until shutdown/EOF.

    A worker hosts every shard whose id maps to it; services are created
    lazily on the first frame addressed to their shard id.
    """
    services: Dict[int, ShardService] = {}

    def _dispatch(
        shard_id: int, opcode: int, body: bytes, request_id: int
    ) -> bytes:
        return dispatch_request(services, shard_id, opcode, body, request_id)

    try:
        rpc.serve(sock, _dispatch)
    finally:
        sock.close()
