"""Shared-nothing shard federations over one of two worker pools.

A pool hosts the shard services and hands out one framed
:class:`~repro.server.rpc.RpcConnection` per worker: :class:`WorkerPool`
forks its workers, :class:`LoopbackPool` keeps them in this process behind
in-memory sockets — the zero-transport baseline every scale-out run must
match bit for bit.  Both expose one surface (connections, kill, pause,
respawn, shutdown), so supervision and chaos run unchanged on either, and
the same :class:`PipeTransport` (codecs, pinned request ids, one
``sendall`` per worker per round, phase timers) carries every round of
the :class:`ScatterGatherEngine`: data-plane batches and control-plane
CALLs alike.

:class:`FederatedShardedBackend` federates a fixed set of shard groups —
each a complete MOIST stack over its own
:class:`~repro.bigtable.emulator.BigtableEmulator` — over one pool.  It
holds no tables: it drives the shards' verbs and merges the accounting that
result assembly, the supervisor and the benchmark read.

Determinism model: the shard count is the unit of determinism, the worker
count is the unit of parallelism.  Shard contents and every per-shard
computation depend only on the :class:`~repro.server.worker.ShardRecipe`;
the parent merges per-shard ledgers, tablet stats and cache tallies in
fixed shard order, so merged simulated seconds, RPC counts and skew
reports are identical at every worker count and on either pool.

Worker lifecycle: :class:`WorkerPool` spawns forked daemon workers, signals
and respawns them, and shuts them down gracefully (shutdown frame → join →
terminate); a dead or hung worker shows up as a failed collect in the
engine's round.  Pools are context managers, :class:`WorkerPool` registers
an ``atexit`` hook, and a build that fails closes what it built, so pytest
and moistbench never leak zombie workers.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import socket
import tempfile
import time
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bigtable.cost import CostModel, OpCounter
from repro.bigtable.tablet import hot_share
from repro.codec.wire import decode_neighbor_batches
from repro.errors import ConfigurationError, FrameCorruptionError, WorkerDiedError
from repro.server import rpc
from repro.server.worker import (
    ShardRecipe,
    ShardService,
    dispatch_request,
    worker_main,
)


#: Seconds each shutdown stage (frame, SIGTERM, SIGKILL) waits per worker.
_JOIN_TIMEOUT_S = 5.0


def _child_main(child_sock: socket.socket, parent_sock: socket.socket) -> None:
    # The fork duplicated the parent's end into this process; close it so
    # the pair delivers EOF when either side goes away.
    parent_sock.close()
    worker_main(child_sock)


def _close_if_reaped(process: multiprocessing.process.BaseProcess) -> bool:
    """Close a joined worker, releasing its sentinel pipe; ``False`` (and
    nothing done) while it still runs."""
    if process.exitcode is None:
        return False
    process.close()
    return True


class _Pool:
    """What both pools share: a framed connection per worker, the respawn
    handoff; each adds kill, pause, shutdown and ``_replace``."""

    connections: List[rpc.RpcConnection]
    _closed = False

    @property
    def num_workers(self) -> int:
        return len(self.connections)

    def respawn_worker(self, index: int) -> rpc.RpcConnection:
        """Replace a dead or hung worker.  The replacement's connection
        *continues the old request-id counter*, so retried requests keep
        their original ids for the worker-side exactly-once slot and fresh
        ids are always newer than the one it recorded."""
        if self._closed:
            raise ConfigurationError("the worker pool is shut down")
        old_connection = self.connections[index]
        old_connection.close()
        self._replace(index, old_connection.next_request_id)
        return self.connections[index]

    def __enter__(self) -> "_Pool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class WorkerPool(_Pool):
    """A fixed set of forked worker processes with framed connections.

    Workers are daemons (the OS reaps them if the parent dies hard), and
    the pool registers an ``atexit`` shutdown besides being usable as a
    context manager — belt and braces against zombie processes.
    """

    def __init__(self, num_workers: int, timeout_s: float = 120.0) -> None:
        if num_workers < 1:
            raise ConfigurationError("a worker pool needs at least one worker")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                "the process backend needs POSIX fork; use the in-process "
                "backend on this platform"
            )
        self._context = multiprocessing.get_context("fork")
        self.timeout_s = timeout_s
        self.connections = []
        self.processes: List[multiprocessing.process.BaseProcess] = []
        try:
            for _ in range(num_workers):
                process, connection = self._spawn_worker()
                self.connections.append(connection)
                self.processes.append(process)
        except BaseException:
            # A spawn that fails part-way (EMFILE, ENOMEM) must not strand
            # the workers already forked: stop them before re-raising.
            self.shutdown()
            raise
        atexit.register(self.shutdown)

    def _spawn_worker(
        self, initial_request_id: int = 0
    ) -> Tuple[multiprocessing.process.BaseProcess, rpc.RpcConnection]:
        parent_sock, child_sock = socket.socketpair()
        process = self._context.Process(
            target=_child_main, args=(child_sock, parent_sock), daemon=True
        )
        process.start()
        child_sock.close()
        connection = rpc.RpcConnection(
            parent_sock, self.timeout_s, initial_request_id=initial_request_id
        )
        return process, connection

    # ------------------------------------------------------------------
    # Supervision hooks
    # ------------------------------------------------------------------
    def kill_worker(self, index: int, sig: int = signal.SIGKILL) -> None:
        """Deliver a signal to one worker (chaos injection / supervisor)."""
        process = self.processes[index]
        if process.pid is not None and process.is_alive():
            try:
                os.kill(process.pid, sig)
            except ProcessLookupError:
                pass

    def pause_worker(self, index: int) -> None:
        """SIGSTOP one worker: it stays alive but stops answering, the
        failure mode a ping deadline (not waitpid) has to catch."""
        self.kill_worker(index, signal.SIGSTOP)

    def _replace(self, index: int, next_request_id: int) -> None:
        """SIGKILL the old process (it also fells a SIGSTOPped worker,
        which would shrug off SIGTERM), then fork its replacement."""
        old_process = self.processes[index]
        if old_process.is_alive():
            old_process.kill()
        old_process.join(timeout=5.0)
        _close_if_reaped(old_process)
        worker = self._spawn_worker(next_request_id)
        self.processes[index], self.connections[index] = worker

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Graceful stop: shutdown frame → join → terminate → kill.

        Idempotent under double invocation (``atexit`` + context manager
        both call it; the first run flips ``_closed`` and unregisters the
        atexit hook, the second returns immediately).  The final SIGKILL
        pass reaps SIGSTOPped workers, which ignore both the shutdown
        frame and SIGTERM.  Each reaped worker is closed, which releases
        its sentinel pipe, and leaves :attr:`processes`: what stays there
        outlived even SIGKILL."""
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.shutdown)
        for connection in self.connections:
            try:
                connection.send_request(0, rpc.OP_SHUTDOWN, b"")
            except Exception:
                pass
        for process in self.processes:
            process.join(timeout=_JOIN_TIMEOUT_S)
        for process in self.processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=_JOIN_TIMEOUT_S)
        for process in self.processes:
            if process.is_alive():
                process.kill()
                process.join(timeout=_JOIN_TIMEOUT_S)
        self.processes = [
            process for process in self.processes if not _close_if_reaped(process)
        ]
        for connection in self.connections:
            connection.close()

class LoopbackPool(_Pool):
    """:class:`WorkerPool`'s surface with every worker in this process: an
    :class:`~repro.server.rpc.RpcConnection` over a
    :class:`~repro.server.rpc.LoopbackSocket` that serves ``services[index]``
    through :func:`~repro.server.worker.dispatch_request` — a forked
    worker's frames, ids and error frames, without the fork or the pipe."""

    def __init__(self, num_workers: int, timeout_s: float = 120.0) -> None:
        if num_workers < 1:
            raise ConfigurationError("a worker pool needs at least one worker")
        self.timeout_s = timeout_s
        workers = [self._spawn_worker() for _ in range(num_workers)]
        self.services, self.sockets, self.connections = map(list, zip(*workers))

    def _spawn_worker(self, initial_request_id: int = 0) -> tuple:
        services: Dict[int, ShardService] = {}
        sock = rpc.LoopbackSocket(partial(dispatch_request, services))
        connection = rpc.RpcConnection(sock, self.timeout_s, initial_request_id)
        return services, sock, connection

    def kill_worker(self, index: int) -> None:
        """Drop the worker's shards; its connection reads EOF."""
        self.sockets[index].close()
        self.services[index] = {}

    def pause_worker(self, index: int) -> None:
        """The worker stops answering until it is respawned."""
        self.sockets[index].paused = True

    def _replace(self, index: int, next_request_id: int) -> None:
        worker = self._spawn_worker(next_request_id)
        self.services[index], self.sockets[index], self.connections[index] = worker

    def shutdown(self) -> None:
        """Every worker exits, for good (idempotent)."""
        self._closed = True
        for index in range(self.num_workers):
            self.kill_worker(index)


# --------------------------------------------------------------------------
# The shard transport: how a round of per-shard requests reaches the workers
# --------------------------------------------------------------------------


def zero_phase() -> Dict[str, float]:
    """The four wall-clock phase timers a transport keeps."""
    return {
        "encode_seconds": 0.0,
        "send_seconds": 0.0,
        "blocked_wait_seconds": 0.0,
        "decode_seconds": 0.0,
    }


class PipeTransport:
    """Requests frame onto a pool's connections, forked or loopback.

    A request is ``(shard_id, opcode, payload)`` with the payload still
    typed — a message list, a query list or a ``(method, args, kwargs)``
    CALL triple.  :meth:`send` puts one round on its way and returns one
    token ``(shard_id, opcode, request_id, body, payload)`` per request;
    :meth:`collect` returns a token's decoded result or raises
    :class:`WorkerDiedError` / :class:`FrameCorruptionError`;
    :meth:`worker_of` (``shard_id % num_workers``) names its failure domain.

    Owns everything wire-shaped: the codecs, request-id allocation *before*
    the send (ids must survive a send-time failure — they pin the resend
    for the worker-side exactly-once slot), one ``sendall`` per worker per
    round, and the phase timers.  A failed send is not raised but
    remembered per worker and surfaces from :meth:`collect`, so a round's
    failures all arrive through one door.
    """

    def __init__(self, pool: "WorkerPool | LoopbackPool") -> None:
        self.pool = pool
        self.phase = zero_phase()
        self._send_failed: Dict[int, str] = {}

    def worker_of(self, shard_id: int) -> int:
        return shard_id % self.pool.num_workers

    def send(self, requests: Sequence[Tuple[int, int, Any]]) -> List[tuple]:
        clock = time.perf_counter
        started = clock()
        bodies: Dict[int, bytes] = {}  # a broadcast payload encodes once
        for _shard_id, opcode, payload in requests:
            if id(payload) not in bodies:
                bodies[id(payload)] = rpc.REQUEST_ENCODERS[opcode](payload)
        encoded = clock()
        self.phase["encode_seconds"] += encoded - started
        by_worker: Dict[int, List[int]] = {}
        for index, request in enumerate(requests):
            by_worker.setdefault(self.worker_of(request[0]), []).append(index)
        tokens: List[Any] = [None] * len(requests)
        for worker, indices in by_worker.items():
            ids = self.pool.connections[worker].allocate_request_ids(len(indices))
            for index, request_id in zip(indices, ids):
                shard_id, opcode, payload = requests[index]
                tokens[index] = (
                    shard_id, opcode, request_id, bodies[id(payload)], payload
                )
            if worker in self._send_failed:
                continue  # known dead: only a heal makes sending useful
            try:
                self.transmit(worker, [tokens[index] for index in indices])
            except WorkerDiedError as exc:
                # The raise site already wrapped the OS error ("send
                # failed: ..."): record it verbatim, don't wrap again.
                self._send_failed[worker] = str(exc)
        self.phase["send_seconds"] += clock() - encoded
        return tokens

    def transmit(self, worker: int, tokens: Sequence[tuple]) -> None:
        """Put ``tokens`` on one worker's wire, in order, in one ``sendall``
        under their pinned request ids — the first send, and the engine's
        resend after a heal."""
        self.pool.connections[worker].send_requests(
            [(token[0], token[1], token[3]) for token in tokens],
            request_ids=[token[2] for token in tokens],
        )

    def collect(self, token: tuple, deadline_s: Optional[float] = None) -> Any:
        shard_id, opcode, request_id, _body, payload = token
        worker = self.worker_of(shard_id)
        if worker in self._send_failed:
            raise WorkerDiedError(self._send_failed[worker])
        clock = time.perf_counter
        started = clock()
        _opcode, body = self.pool.connections[worker].wait(
            request_id, deadline_s=deadline_s
        )
        received = clock()
        self.phase["blocked_wait_seconds"] += received - started
        if opcode == rpc.OP_UPDATE_BATCH:
            result = rpc.UPDATE_RESULT.unpack(body)
        elif opcode == rpc.OP_QUERY_BATCH:
            # Distances never ride the wire: the decoder recomputes them
            # from the probe set.
            (makespan,) = rpc.MAKESPAN.unpack_from(body)
            result = (
                decode_neighbor_batches(memoryview(body)[rpc.MAKESPAN.size:], payload),
                makespan,
            )
        else:
            result = rpc.decode_result(body)
        self.phase["decode_seconds"] += clock() - received
        return result

    def rebind(self, worker: int) -> None:
        """Forget a replaced worker's failed send: its new connection can
        be sent to again."""
        self._send_failed.pop(worker, None)


class ScatterGatherEngine:
    """One round of per-shard requests over one shard transport — the one
    send path, for data-plane batches and control-plane CALLs alike.

    :meth:`round` puts every request on the wire before reading the first
    reply and returns the results **in send order**, so what the caller
    commits never depends on arrival order.  A collect that raises
    :class:`WorkerDiedError` / :class:`FrameCorruptionError` — dead worker,
    failed send, expired per-call deadline, corrupt frame — marks the
    owning worker and the sweep moves on.  After each sweep every marked
    worker is healed through the supervisor (sorted worker order, bounded
    by ``retry_policy`` with backoff between attempts) and its uncollected
    requests of the round are re-sent in the original order under the
    original request ids, which the worker-side exactly-once slot uses to
    replay what the dead worker had already applied and apply the rest
    exactly once.  Without a supervisor the first failed sweep raises;
    without a retry policy each collect waits out the connection's own
    timeout.
    """

    def __init__(
        self,
        transport: object,
        retry_policy: Optional[rpc.RetryPolicy] = None,
        supervisor: Optional[object] = None,
    ) -> None:
        self.transport = transport
        self.retry_policy = retry_policy
        self.supervisor = supervisor

    def round(self, requests: Sequence[Tuple[int, int, Any]]) -> List[Any]:
        """Send one round of ``(shard_id, opcode, payload)`` requests and
        return their results in send order.  A round names each shard at
        most once: the worker keeps one exactly-once slot per shard."""
        shard_ids = [request[0] for request in requests]
        if len(set(shard_ids)) != len(shard_ids):
            raise ConfigurationError(
                f"a round names a shard more than once: {shard_ids}"
            )
        transport = self.transport
        policy = self.retry_policy
        deadline_s = None if policy is None else policy.call_deadline_s
        tokens = transport.send(requests)
        owners = [transport.worker_of(shard_id) for shard_id in shard_ids]
        results: Dict[int, Any] = {}
        failed: Dict[int, str] = {}
        attempts = 1
        while True:
            for index, token in enumerate(tokens):
                if index in results or owners[index] in failed:
                    continue
                try:
                    results[index] = transport.collect(token, deadline_s)
                except (WorkerDiedError, FrameCorruptionError) as exc:
                    failed[owners[index]] = f"shard {shard_ids[index]}: {exc}"
            if not failed:
                break
            if self.supervisor is None or attempts >= policy.max_attempts:
                reasons = "; ".join(
                    f"worker {worker}: {reason}"
                    for worker, reason in sorted(failed.items())
                )
                raise WorkerDiedError(
                    f"scatter round failed after {attempts} attempts ({reasons})"
                )
            time.sleep(policy.backoff_s(attempts))
            attempts += 1
            for worker in sorted(failed):
                self.supervisor.handle_worker_failure(worker, failed[worker])
                transport.transmit(
                    worker,
                    [
                        tokens[index]
                        for index, owner in enumerate(owners)
                        if owner == worker and index not in results
                    ],
                )
            failed.clear()
        if self.supervisor is not None:
            for worker in set(owners):
                self.supervisor.notify_success(worker)
        return [results[index] for index in range(len(tokens))]


class ShardClient:
    """One shard's synchronous view of a transport: the supervisor's
    rebuild, which must not heal recursively, and the single-shard
    property suites."""

    def __init__(self, transport: object, shard_id: int) -> None:
        self.transport = transport
        self.shard_id = shard_id

    def _request(self, opcode: int, payload: Any) -> Any:
        (token,) = self.transport.send([(self.shard_id, opcode, payload)])
        return self.transport.collect(token)

    def call(self, method: str, *args, **kwargs) -> Any:
        return self._request(rpc.OP_CALL, (method, args, kwargs))


class FederatedShardedBackend:
    """A fixed set of shard groups over one pool (:class:`WorkerPool` or
    :class:`LoopbackPool`) and its :class:`PipeTransport`, driven by one
    :class:`ScatterGatherEngine`; built on construction (a failed build
    closes the pool).

    The engine starts fail-fast, with no supervisor and no retry policy —
    the build round runs before either exists;
    :class:`~repro.server.scaleout.ScaleOutCluster` hands it both.  Every
    merged read is derived from one round of the shards' ``metrics``
    records (the worker's only read-only verb), merged in fixed shard
    order: ledger absorption, tablet-row concatenation (whose length is
    the tablet count and whose ``run_count`` sum the run count), the
    emulator's hot-share rule over the concatenated rows, the summed
    cache tallies.  That mirrors the single-emulator semantics — the
    reason merged accounting is bit-identical between pools and across
    worker counts.
    """

    def __init__(
        self, pool: "WorkerPool | LoopbackPool", recipes: Sequence[ShardRecipe]
    ) -> None:
        if not recipes:
            pool.shutdown()
            raise ConfigurationError("a federation needs at least one shard")
        self.pool = pool
        self.transport = PipeTransport(pool)
        self.engine = ScatterGatherEngine(self.transport)
        self.recipes = list(recipes)
        self.clients = [ShardClient(self.transport, i) for i in range(len(recipes))]
        #: Temporary storage root owned by this backend (the ``disk``
        #: flavour with no caller-provided directory); cleaned on close.
        self._owned_tmpdir: Optional[tempfile.TemporaryDirectory] = None
        try:
            self.build_all()
        except BaseException:
            self.close()  # a rejected build must not strand its workers
            raise

    @property
    def num_shards(self) -> int:
        return len(self.recipes)

    # ------------------------------------------------------------------
    # Control-plane rounds
    # ------------------------------------------------------------------
    def call_round(self, calls: Sequence[Tuple[str, tuple, dict]]) -> List[Any]:
        """One ``(method, args, kwargs)`` CALL per shard as one engine
        round; results in shard order."""
        return self.engine.round(
            [(shard_id, rpc.OP_CALL, call) for shard_id, call in enumerate(calls)]
        )

    def scatter(self, method: str, *args, **kwargs) -> List[Any]:
        """Broadcast one call to every shard; results in shard order."""
        return self.call_round([(method, args, kwargs)] * self.num_shards)

    def build_all(self) -> List[Dict[str, int]]:
        """Build every shard's indexer from its recipe (one round, so a
        multi-worker pool preloads shards in parallel)."""
        return self.call_round(
            [("build_indexer", (recipe,), {}) for recipe in self.recipes]
        )

    # ------------------------------------------------------------------
    # Merged storage accounting (what result assembly and the benchmark
    # read), each derived from one round of the shards' ``metrics`` records
    # ------------------------------------------------------------------
    def _metrics(self) -> List[Dict[str, Any]]:
        return self.scatter("metrics")

    @property
    def counter(self) -> OpCounter:
        """Merged cluster-wide ledger (snapshot merge in shard order)."""
        merged = OpCounter(model=CostModel())
        for record in self._metrics():
            merged.absorb(record["ledger"])
        return merged

    def run_count(self) -> int:
        return sum(stats.run_count for stats in self.tablet_stats())

    def write_amplification(self) -> float:
        return self.counter.write_amplification()

    def tablet_stats(self) -> list:
        stats: List[Any] = []
        for record in self._metrics():
            stats.extend(record["tablets"])
        return stats

    def tablet_count(self) -> int:
        return len(self.tablet_stats())

    def hot_tablet_share(self) -> float:
        return hot_share(self.tablet_stats())

    def cache_hit_rate(self) -> float:
        hits = 0
        lookups = 0
        for record in self._metrics():
            shard_hits, shard_lookups = record["cache"]
            hits += shard_hits
            lookups += shard_lookups
        if lookups == 0:
            return 0.0
        return hits / lookups

    # ------------------------------------------------------------------
    # Supervision hooks, wire counters, lifecycle
    # ------------------------------------------------------------------
    def shards_of_worker(self, index: int) -> List[int]:
        """Shard ids hosted by one worker, in shard order."""
        return [
            shard_id
            for shard_id in range(self.num_shards)
            if self.transport.worker_of(shard_id) == index
        ]

    def respawn_worker(self, index: int) -> None:
        """Replace one worker and reset the transport's state for it (a
        fresh connection, no remembered send failure).  The caller
        re-issues ``build_indexer`` per shard to restore state — that is
        the supervisor's job, not the transport's."""
        self.pool.respawn_worker(index)
        self.transport.rebind(index)

    def serialized_bytes(self) -> int:
        """Bytes moved over the pool's live connections, both ways."""
        return sum(
            connection.bytes_sent + connection.bytes_received
            for connection in self.pool.connections
        )

    def rpc_frame_count(self) -> int:
        """Request frames sent over the pool's live connections."""
        return sum(connection.frames_sent for connection in self.pool.connections)

    def close(self) -> None:
        self.pool.shutdown()
        if self._owned_tmpdir is not None:
            self._owned_tmpdir.cleanup()
            self._owned_tmpdir = None

    def __enter__(self) -> "FederatedShardedBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------------
# Builders
# --------------------------------------------------------------------------


#: ``backend`` name -> the pool its workers run on (``disk`` also persists).
POOLS = {"inprocess": LoopbackPool, "process": WorkerPool, "disk": WorkerPool}


def build_recipes(num_shards: int, **recipe_kwargs) -> List[ShardRecipe]:
    """One :class:`ShardRecipe` per shard group, shard ids assigned."""
    if num_shards < 1:
        raise ConfigurationError("num_shards must be >= 1")
    base = ShardRecipe(num_shards=num_shards, shard_id=0, **recipe_kwargs)
    return [base.sibling(shard_id) for shard_id in range(num_shards)]


def make_scaleout_backend(
    backend: str,
    num_shards: int,
    num_workers: int = 1,
    timeout_s: float = 120.0,
    **recipe_kwargs,
) -> FederatedShardedBackend:
    """A preloaded shard federation on ``min(num_workers, num_shards)`` workers.

    ``backend="inprocess"`` keeps every worker in the parent
    (:class:`LoopbackPool`); ``backend="process"`` forks them
    (:class:`WorkerPool`); ``backend="disk"`` is the process backend with
    every shard additionally persisting its tables to real files (under
    ``recipe_kwargs["storage_dir"]``, or a temporary directory owned and
    cleaned up by the backend when none is given).  Same recipes and the
    same frames every way, so simulated results match bit for bit.
    """
    if backend not in POOLS:
        raise ConfigurationError(
            f"unknown backend {backend!r} (expected one of {sorted(POOLS)})"
        )
    owned_tmpdir: Optional[tempfile.TemporaryDirectory] = None
    if backend == "disk" and recipe_kwargs.get("storage_dir") is None:
        owned_tmpdir = tempfile.TemporaryDirectory(prefix="moist-disk-")
        recipe_kwargs["storage_dir"] = owned_tmpdir.name
    try:
        recipes = build_recipes(num_shards, **recipe_kwargs)
        pool = POOLS[backend](min(num_workers, num_shards), timeout_s=timeout_s)
        built = FederatedShardedBackend(pool, recipes)
    except BaseException:
        if owned_tmpdir is not None:
            owned_tmpdir.cleanup()
        raise
    built._owned_tmpdir = owned_tmpdir
    return built
