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
the determinism the acceptance criteria demand.  The in-process baseline
serves the same frames with the same :class:`ShardService`, unforked.

``ShardService`` holds one shard's state; :data:`VERBS` is the declared
worker-side verb set (name → callable, read-only flag), and it holds what
production sends: the data plane (batched updates/queries via the compact
opcodes), the build, the master's rebalance and fault injection, the
metrics reset, and ``metrics`` — the shard's one accounting record, the
only read-only verb, from which the federation derives every merged read.
Reachability, mutability and what reaches the request log all derive from
that one table, in a forked worker or a loopback one.

A shard with a storage directory persists its inputs
(:mod:`repro.disk.store`): every mutating request that passes the
exactly-once slot is logged — its wire bytes, fsynced — before it applies,
and the shard snapshots after its build and after every
:data:`SNAPSHOT_EVERY`-th logged request.  A restart installs the snapshot
and re-runs the logged requests through the same dispatch.  The snapshot's
accounting half is a fixed-order walk (``accounting_state`` /
``_install_accounting``) over the owners of simulated-but-not-durable
state — this service's exactly-once slot, the emulator, the FLAG tuner,
the cluster, the master — each exporting and installing its own section;
this module names the sections and reads nobody's private attributes.
"""

from __future__ import annotations

import os
import socket
from dataclasses import dataclass, replace
from functools import partial
from random import Random
from time import perf_counter
from typing import Any, Callable, Dict, Optional, Sequence, Tuple
from zlib import crc32

from repro.bigtable.tablet import TabletOptions
from repro.codec.values import pack_value, unpack_value
from repro.codec.wire import encode_neighbor_batches
from repro.core.config import MoistConfig
from repro.disk.store import STORE_STEPS, ShardStore
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

#: A shard with a storage directory snapshots after this many logged
#: requests (and after its build), at the request boundary.
SNAPSHOT_EVERY = 32

#: Where a worker's wall time goes, per shard: the steps of
#: :func:`dispatch_request`, then the disk store's share of ``apply``
#: (:data:`~repro.disk.store.STORE_STEPS`: ``snapshot`` with its parts
#: ``run_encode``, ``run_write``, ``snapshot_write`` and ``run_gc``).
DISPATCH_PHASES = ("decode", "dedup", "log_append", "apply", "encode")
WORKER_PHASES = DISPATCH_PHASES + STORE_STEPS

#: The worker-side verb table: ``name -> (callable taking the service
#: first, read-only flag)``.  The one answer to "which verbs exist and
#: which can change shard state": ``CALL`` dispatch resolves names through
#: :func:`lookup_verb` — anything absent, private names included, is an
#: :class:`RpcError` — and every verb not flagged read-only (like every
#: data-plane batch) runs under the exactly-once slot and, on a shard with
#: a storage directory, is logged before it applies.  Only production's verbs are registered here; a test harness
#: adds its own through :func:`_register` before any worker forks.
VERBS: Dict[str, Tuple[Callable[..., Any], bool]] = {}


def _register(name: str, function: Callable[..., Any], read_only: bool):
    """Add one verb; a name already in :data:`VERBS` is refused, so no
    later registration can shadow a verb in every forked worker."""
    if name in VERBS:
        raise ConfigurationError(f"worker verb {name!r} is already registered")
    VERBS[name] = (function, read_only)
    return function


def _verb(read_only: bool = False):
    """Register a :class:`ShardService` method (or any function taking the
    service first) as a callable verb under its own name."""
    return lambda function: _register(function.__name__, function, read_only)


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
    #: Base directory for real-bytes persistence; each shard keeps its
    #: snapshot and request log under ``<storage_dir>/shard-<id>``.  When
    #: the directory holds a snapshot from a previous process,
    #: ``build_indexer`` *restores* the shard — every table and simulated
    #: tally, and the exactly-once slot — instead of preloading it.
    storage_dir: Optional[str] = None

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


def _master(service: "ShardService") -> TabletMaster:
    """The shard's tablet master, reached through its cluster."""
    master = service._require_cluster().master
    if master is None:
        raise ConfigurationError("this shard was built without a tablet master")
    return master


class ShardService:
    """The worker-side state and verbs of one shard group.

    Every entry of :data:`VERBS` is callable through the generic ``CALL``
    opcode (:meth:`serve`, the one request entry point);
    ``update_batch``/``query_batch`` additionally serve the compact binary
    opcodes.  One instance runs per shard id on a forked or a loopback
    worker; the same frames reach it either way.  It holds no test-only
    state: a verb a test harness registers keeps its own outside.
    """

    def __init__(self) -> None:
        self.recipe: Optional[ShardRecipe] = None
        self.cluster: Optional[ServerCluster] = None
        #: The built recipe's snapshot and request log (``None``: no
        #: indexer yet, or the recipe has no storage directory).
        self._store: Optional[ShardStore] = None
        #: Requests logged since the last snapshot.
        self._logged = 0
        #: Exactly-once slot: ``(request_id, opcode, result)`` of the last
        #: applied mutating request, or ``None``.  A round carries at most
        #: one request per shard and a heal resends only the round's
        #: uncollected requests under their pinned ids, so the newest
        #: request is the only one a resend can name.
        self._slot: Optional[Tuple[int, int, Any]] = None
        #: Wall seconds per :func:`dispatch_request` step since this
        #: process first served the shard or the last ``reset_metrics``
        #: (observability only).
        self.phase: Dict[str, float] = dict.fromkeys(DISPATCH_PHASES, 0.0)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @_verb()
    def build_indexer(self, recipe: ShardRecipe) -> Dict[str, int]:
        """Build this shard's stack from a recipe (idempotence guard).  A
        storage directory that holds a snapshot restores the shard: the
        snapshot's tables and accounting, then its logged requests re-run;
        otherwise the shard preloads and writes its first snapshot."""
        if self.cluster is not None:
            raise ConfigurationError("this shard already built its indexer")
        from repro.baselines.no_school import build_no_school_indexer

        config = MoistConfig(
            world=BoundingBox(0.0, 0.0, recipe.region_size, recipe.region_size),
            storage_level=recipe.storage_level,
        )
        storage_dir = recipe.shard_storage_dir
        store = None if storage_dir is None else ShardStore(storage_dir)
        snapshot = None if store is None else store.load()
        indexer = build_no_school_indexer(
            config, tablet_options=recipe.tablet_options, snapshot=snapshot
        )
        if snapshot is not None:
            # The snapshot already restored every table bit-identically;
            # rebuild the facade tallies instead of re-preloading (which
            # would double-apply every update).
            loaded = indexer.restore_facade_state()
        else:
            rng = Random(recipe.seed)
            loaded = 0
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
        if recipe.with_master:  # the master installs itself as cluster.master
            TabletMaster(cluster, recipe.master_options)
        self.recipe = recipe
        self.cluster = cluster
        self._store = store
        if snapshot is None:
            if store is not None:
                self._snapshot()
        else:
            self._install_accounting(snapshot.state)
            for request_id, opcode, body in snapshot.frames:
                try:
                    self.serve(opcode, body, request_id, replaying=True)
                except Exception:
                    # It raised when first applied, too, and the parent got
                    # that error: the replay goes on past it, as the shard
                    # went on serving.
                    continue
        return {"objects_loaded": loaded, "tablets": indexer.emulator.tablet_count()}

    def _require_cluster(self) -> ServerCluster:
        if self.cluster is None:
            raise ConfigurationError("this shard has no indexer yet (build_indexer)")
        return self.cluster

    # ------------------------------------------------------------------
    # Accounting soft state (supervised respawn)
    # ------------------------------------------------------------------
    def _state_owners(self) -> Dict[str, object]:
        """``section -> its owner`` in snapshot order (``STATE_SECTIONS`` in
        :mod:`repro.disk.store`); ``None`` where the recipe builds none."""
        cluster = self._require_cluster()
        return {
            "dedup": self,
            "emulator": cluster.indexer.emulator,
            "flag": cluster.indexer.flag,
            "cluster": cluster,
            "master": cluster.master,
        }

    def accounting_state(self) -> Dict[str, Any]:
        """Everything simulated-but-not-durable: one named section per
        owner, each that owner's ``export_state()``.  A snapshot's manifests
        carry the tables; this is the rest of what
        :meth:`metrics`/``to_report`` can observe, plus the exactly-once
        slot."""
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

    def _snapshot(self) -> None:
        """Persist every table and :meth:`accounting_state`; the request
        log starts over."""
        emulator = self.cluster.indexer.emulator
        self._store.snapshot(
            {name: emulator.table(name) for name in emulator.table_names()},
            self.accounting_state(),
        )
        self._logged = 0

    def _apply_once(
        self,
        request_id: int,
        opcode: int,
        body: bytes,
        lap: "_Laps",
        apply: Callable[[], Any],
        replaying: bool = False,
    ) -> Any:
        """Run one mutating request exactly once under its pinned id.

        The slot's own id is a resend: its recorded result comes back and
        nothing runs.  A lower id, or the slot's id with another opcode, is
        a protocol violation (:class:`StaleRequestError`).  A higher id is
        logged (``body``, fsynced) when the shard persists, then applies and
        is recorded — so a kill at any point leaves the shard either
        unaware of the request (the resend applies it) or able to re-run it
        from the log and replay its result.  Every :data:`SNAPSHOT_EVERY`-th
        logged request ends in a snapshot.  A ``replaying`` restore runs a
        logged request again: no check, no second frame."""
        if not replaying:
            slot = self._slot
            if slot is not None and request_id <= slot[0]:
                if request_id < slot[0] or opcode != slot[1]:
                    raise StaleRequestError(
                        f"request id {request_id} (opcode {opcode}) is not "
                        f"newer than the last applied request {slot[0]} "
                        f"(opcode {slot[1]})"
                    )
                lap.mark("dedup")
                return slot[2]
            lap.mark("dedup")
            if self._store is not None:
                self._store.append(request_id, opcode, body)
                lap.mark("log_append")
        if self._store is not None:
            self._logged += 1
        result = apply()
        self._slot = (request_id, opcode, result)
        if self._logged >= SNAPSHOT_EVERY:
            self._snapshot()
        lap.mark("apply")
        return result

    def serve(
        self, opcode: int, body: bytes, request_id: int, replaying: bool = False
    ) -> bytes:
        """Decode one request, run it, encode the response body.

        Every mutating request — a data-plane batch or a CALL to a verb not
        flagged read-only — runs through the exactly-once slot
        (:meth:`_apply_once`), which logs it on a shard that persists.  A
        read-only verb neither records nor is checked: a resend runs it
        again.  ``build_indexer`` bypasses the slot too — it is the verb
        that installs the slot on a restore, and the supervisor's rebuild
        carries a newer id than the round it heals, whose resend must still
        replay; a build whose own id is not newer comes from a new parent,
        whose ids the restored slot cannot name, so the slot goes.  A
        ``replaying`` restore re-runs a logged frame and encodes nothing.
        """
        lap = _Laps(dict.fromkeys(DISPATCH_PHASES, 0.0) if replaying else self.phase)
        decode = rpc.REQUEST_DECODERS.get(opcode)
        if decode is None:
            raise RpcError(f"unknown opcode {opcode}")
        payload = decode(body)
        if opcode == rpc.OP_UPDATE_BATCH:
            apply, logged = partial(self.update_batch, payload), True
        elif opcode == rpc.OP_QUERY_BATCH:
            apply, logged = partial(self.query_batch, payload), True
        else:
            method, args, kwargs = payload
            verb, read_only = lookup_verb(method)
            logged = not read_only and method != "build_indexer"
            apply = partial(verb, self, *args, **kwargs)
        lap.mark("decode")
        if logged:
            result = self._apply_once(request_id, opcode, body, lap, apply, replaying)
        else:
            result = apply()
            slot = self._slot
            if payload[0] == "build_indexer" and slot and slot[0] >= request_id:
                self._slot = None
            lap.mark("apply")
        if replaying:
            return b""
        if opcode == rpc.OP_UPDATE_BATCH:
            response = rpc.UPDATE_RESULT.pack(*result)
        elif opcode == rpc.OP_QUERY_BATCH:
            results, makespan = result
            response = rpc.MAKESPAN.pack(makespan) + encode_neighbor_batches(
                results, payload
            )
        else:
            response = rpc.encode_result(result)
        lap.mark("encode")
        return response

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
    # Control plane
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
        return describe_prefix + _master(self).apply_fault(
            kind, server_id, crash_point
        )

    @_verb()
    def rebalance(self) -> None:
        """One tick of the shard's tablet master."""
        _master(self).rebalance()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @_verb(read_only=True)
    def metrics(self) -> Dict[str, Any]:
        """This shard's one accounting record, in plain data: the ledger
        snapshot, the tablet rows, ``(hits, lookups)`` over the block
        caches, each server's full ``export_state()`` row (its sixth field
        the service-time samples), the master's action counts and the
        worker's wall seconds per :data:`WORKER_PHASES` step (zero for the
        store's steps without a store; wall-clock, so never part of a
        report).  The federation derives every merged read from it."""
        cluster = self._require_cluster()
        emulator = cluster.indexer.emulator
        hits = lookups = 0
        for entry in emulator.block_cache_stats():
            hits += entry.hits
            lookups += entry.lookups
        phase = dict.fromkeys(WORKER_PHASES, 0.0)
        phase.update(self.phase)
        if self._store is not None:
            phase.update(self._store.seconds)
        return {
            "ledger": emulator.counter.snapshot(),
            "tablets": emulator.tablet_stats(),
            "cache": (hits, lookups),
            "servers": [server.export_state() for server in cluster.servers],
            "master_actions": cluster.master_action_counts(),
            "worker_phase": phase,
        }

    @_verb()
    def reset_metrics(self) -> None:
        """Zero the servers' accounting and this worker's wall timers —
        the dispatch steps and the store's — so the next :meth:`metrics`
        covers only what ran since."""
        self._require_cluster().reset_metrics()
        self.phase.update(dict.fromkeys(DISPATCH_PHASES, 0.0))
        if self._store is not None:
            self._store.seconds.update(dict.fromkeys(STORE_STEPS, 0.0))


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
    """Run one request frame on its shard (:meth:`ShardService.serve`),
    creating the shard's service on its first frame."""
    service = services.get(shard_id)
    if service is None:
        service = ShardService()
        services[shard_id] = service
    if opcode == rpc.OP_PING:
        return b""
    return service.serve(opcode, body, request_id)


def worker_main(sock: socket.socket) -> None:
    """Main loop of one worker process: serve frames until shutdown/EOF.

    A worker hosts every shard whose id maps to it; services are created
    lazily on the first frame addressed to their shard id.
    """
    try:
        rpc.serve(sock, partial(dispatch_request, {}))
    finally:
        sock.close()
