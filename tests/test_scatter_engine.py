"""The one scatter-gather loop, against a scripted in-memory transport.

No fork, no socket: :class:`ScriptedTransport` plays the shard transport
(`send` / `collect` / `transmit` / `worker_of`) and fails exactly where the
script says — this send, that collect, that frame, on attempt *n* — so the
engine's contract can be pinned in milliseconds for *both* round kinds it
serves: a shard-partitioned update round and a query broadcast, each with
several shards on every worker.  The process-level chaos suites prove the
same loop against real SIGKILLs on top of this.
"""

import pytest

from repro.errors import ConfigurationError, FrameCorruptionError, WorkerDiedError
from repro.server import rpc
from repro.bigtable.process_backend import ScatterGatherEngine

NO_BACKOFF = rpc.RetryPolicy(max_attempts=3, base_backoff_s=0.0, call_deadline_s=1.0)


class ScriptedTransport:
    """Three-field tokens ``(shard_id, opcode, request_id)`` over
    ``num_workers`` pretend workers (``shard % num_workers``, per-worker id
    counters), with every wire event appended to :attr:`log`."""

    def __init__(self, num_workers):
        self.num_workers = num_workers
        self.log = []
        self._next_id = [100 * (worker + 1) for worker in range(num_workers)]
        self._sends = [0] * num_workers
        self._transmissions = {}
        self._send_failed = {}
        #: ``(worker, nth send to it)`` pairs whose send fails.
        self.fail_sends = set()
        #: ``(shard_id, request_id, attempt) -> exception`` raised by the
        #: collect of that token's ``attempt``-th transmission.
        self.fail_collects = {}
        #: The deadline every collect was given, in collect order.
        self.deadlines = []

    def worker_of(self, shard_id):
        return shard_id % self.num_workers

    def send(self, requests):
        by_worker = {}
        tokens = []
        for shard_id, opcode, _payload in requests:
            worker = self.worker_of(shard_id)
            token = (shard_id, opcode, self._next_id[worker])
            self._next_id[worker] += 1
            tokens.append(token)
            by_worker.setdefault(worker, []).append(token)
        for worker, group in by_worker.items():
            if worker in self._send_failed:
                continue
            self._sends[worker] += 1
            if (worker, self._sends[worker]) in self.fail_sends:
                self._send_failed[worker] = "send failed: scripted"
                self.log.append(("send-failed", worker, group))
            else:
                self.transmit(worker, group)
        return tokens

    def transmit(self, worker, tokens):
        assert all(self.worker_of(token[0]) == worker for token in tokens)
        self.log.append(("sendall", worker, list(tokens)))
        for token in tokens:
            self._transmissions[token] = self._transmissions.get(token, 0) + 1

    def collect(self, token, deadline_s=None):
        self.deadlines.append(deadline_s)
        shard_id, opcode, request_id = token
        worker = self.worker_of(shard_id)
        if worker in self._send_failed:
            raise WorkerDiedError(self._send_failed[worker])
        fault = self.fail_collects.get(
            (shard_id, request_id, self._transmissions[token])
        )
        if fault is not None:
            raise fault
        self.log.append(("collect", worker, token))
        return ("result", shard_id, request_id)

    def rebind(self, worker):
        self._send_failed.pop(worker, None)


class RecordingSupervisor:
    def __init__(self, transport):
        self.transport = transport
        self.heals = []
        self.successes = []

    def handle_worker_failure(self, worker, reason):
        self.heals.append((worker, reason))
        self.transport.rebind(worker)

    def notify_success(self, worker):
        self.successes.append(worker)


def update_round(num_shards):
    """A shard-partitioned update batch: several shards on every worker,
    shard 1 left out (its bucket came up empty)."""
    return [
        (shard, rpc.OP_UPDATE_BATCH, [f"u{shard}"])
        for shard in range(num_shards)
        if shard != 1
    ]


def query_round(num_shards):
    """One broadcast: the same probe set to every shard."""
    queries = ["q0", "q1"]
    return [(shard, rpc.OP_QUERY_BATCH, queries) for shard in range(num_shards)]


ROUND_KINDS = pytest.mark.parametrize(
    "make_round", [update_round, query_round], ids=["update-round", "query-round"]
)


def _engine(num_workers, supervised=True, policy=NO_BACKOFF):
    transport = ScriptedTransport(num_workers)
    supervisor = RecordingSupervisor(transport) if supervised else None
    return ScatterGatherEngine(transport, policy, supervisor), transport, supervisor


def _shards(requests):
    return [shard_id for shard_id, _opcode, _payload in requests]


def _sendalls(transport, worker):
    return [tokens for kind, w, tokens in transport.log if kind == "sendall" and w == worker]


def _fail(transport, requests, worker, position, fault, attempts=(1,)):
    """Fail the collect of the ``position``-th request the round sends to
    ``worker`` on each of ``attempts`` (its id is the one
    :class:`ScriptedTransport` allocates)."""
    shards = [s for s in _shards(requests) if transport.worker_of(s) == worker]
    request_id = 100 * (worker + 1) + position
    for attempt in attempts:
        transport.fail_collects[(shards[position], request_id, attempt)] = fault


@ROUND_KINDS
def test_fault_free_round_returns_results_in_send_order(make_round):
    engine, transport, supervisor = _engine(num_workers=2)
    requests = make_round(8)
    results = engine.round(requests)
    assert [result[1] for result in results] == _shards(requests)
    # One sendall per worker, nothing re-sent, ids ascending.
    for worker in (0, 1):
        (sendall,) = _sendalls(transport, worker)
        assert len(sendall) > 1  # several shards share the worker
        ids = [token[2] for token in sendall]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
    assert supervisor.heals == []
    assert sorted(supervisor.successes) == [0, 1]


@ROUND_KINDS
@pytest.mark.parametrize(
    "fault", [WorkerDiedError("connection closed mid-frame"), FrameCorruptionError("crc mismatch")],
    ids=["dropped-collect", "corrupt-frame"],
)
def test_failed_collect_resends_the_whole_uncollected_set_with_original_ids(
    make_round, fault
):
    engine, transport, supervisor = _engine(num_workers=2)
    requests = make_round(8)
    # Worker 1's *second* token fails on its first transmission: the first
    # was already collected, everything after it is still uncollected.
    _fail(transport, requests, 1, 1, fault)
    results = engine.round(requests)
    assert [result[1] for result in results] == _shards(requests)
    first_sends = _sendalls(transport, 1)[0]
    assert len(first_sends) >= 3
    assert [worker for worker, _reason in supervisor.heals] == [1]
    assert f"shard {first_sends[1][0]}" in supervisor.heals[0][1]
    # Exactly one extra sendall, to worker 1 only: every uncollected token,
    # original ids, original order.
    assert _sendalls(transport, 1) == [first_sends, first_sends[1:]]
    assert len(_sendalls(transport, 0)) == 1
    # Results carry the original request ids, so the resend was not re-keyed.
    assert sorted(result[2] for result in results) == sorted(
        token[2] for worker in (0, 1) for token in _sendalls(transport, worker)[0]
    )


@ROUND_KINDS
def test_failed_send_surfaces_at_collect_and_heals_there(make_round):
    engine, transport, supervisor = _engine(num_workers=2)
    transport.fail_sends.add((0, 1))  # the very first send to worker 0
    requests = make_round(8)
    results = engine.round(requests)  # the send never raises
    assert [result[1] for result in results] == _shards(requests)
    assert supervisor.heals == [(0, "shard 0: send failed: scripted")]
    (resend,) = _sendalls(transport, 0)
    assert [token[0] for token in resend] == [
        shard_id for shard_id in _shards(requests) if shard_id % 2 == 0
    ]
    assert [token[2] for token in resend] == sorted(token[2] for token in resend)


@ROUND_KINDS
def test_attempts_are_bounded_by_the_retry_policy(make_round):
    engine, transport, supervisor = _engine(num_workers=2)
    requests = make_round(8)
    _fail(transport, requests, 1, 0, WorkerDiedError("hung"), (1, 2, 3, 4))
    with pytest.raises(WorkerDiedError, match=r"after 3 attempts .*worker 1: shard \d+: hung"):
        engine.round(requests)
    assert [worker for worker, _reason in supervisor.heals] == [1, 1]
    assert supervisor.successes == []


@ROUND_KINDS
def test_without_a_supervisor_the_first_failed_sweep_raises(make_round):
    engine, transport, _none = _engine(num_workers=2, supervised=False)
    requests = make_round(8)
    _fail(transport, requests, 1, 0, WorkerDiedError("gone"))
    with pytest.raises(WorkerDiedError, match=r"after 1 attempts .*worker 1: shard \d+: gone"):
        engine.round(requests)
    # Nothing was re-sent: no healer, no retry.
    assert len(_sendalls(transport, 1)) == 1


@ROUND_KINDS
def test_two_failed_workers_heal_in_sorted_worker_order(make_round):
    engine, transport, supervisor = _engine(num_workers=3)
    requests = make_round(9)
    # Shard 2 (worker 2) is collected before shard 6 (worker 0), so
    # discovery order is 2, 0 — healing must still go 0, 2.
    _fail(transport, requests, 2, 0, WorkerDiedError("killed"))
    _fail(transport, requests, 0, 2, WorkerDiedError("killed"))
    results = engine.round(requests)
    assert [result[1] for result in results] == _shards(requests)
    assert [worker for worker, _reason in supervisor.heals] == [0, 2]
    assert supervisor.heals[1][1] == "shard 2: killed"
    resend_order = [
        worker for kind, worker, _tokens in transport.log if kind == "sendall"
    ][-2:]
    assert resend_order == [0, 2]
    assert sorted(supervisor.successes) == [0, 1, 2]


def test_worker_side_errors_are_not_transport_failures():
    engine, transport, supervisor = _engine(num_workers=1)
    requests = query_round(2)
    _fail(transport, requests, 0, 0, ConfigurationError("guard"))
    with pytest.raises(ConfigurationError, match="guard"):
        engine.round(requests)
    assert supervisor.heals == []


def test_an_empty_round_sends_nothing_and_returns_nothing():
    engine, transport, supervisor = _engine(num_workers=2)
    assert engine.round([]) == []
    assert transport.log == []
    assert supervisor.heals == [] and supervisor.successes == []


@ROUND_KINDS
@pytest.mark.parametrize("where", ["first", "last"])
def test_a_failed_collect_resends_exactly_the_uncollected_suffix(make_round, where):
    engine, transport, supervisor = _engine(num_workers=2)
    requests = make_round(8)
    owned = [s for s in _shards(requests) if transport.worker_of(s) == 1]
    position = 0 if where == "first" else len(owned) - 1
    _fail(transport, requests, 1, position, WorkerDiedError("killed"))
    results = engine.round(requests)
    assert [result[1] for result in results] == _shards(requests)
    first_sends = _sendalls(transport, 1)[0]
    # A failure on the first token resends all of them; on the last, only it.
    assert _sendalls(transport, 1) == [first_sends, first_sends[position:]]
    assert supervisor.heals == [(1, f"shard {owned[position]}: killed")]


@ROUND_KINDS
def test_a_worker_failing_twice_in_one_round_resends_a_shrinking_suffix(make_round):
    engine, transport, supervisor = _engine(num_workers=2)
    requests = make_round(8)
    # The first token fails on its first transmission, the third on its
    # second: each heal resends only what is still uncollected.
    _fail(transport, requests, 1, 0, WorkerDiedError("killed"), (1,))
    _fail(transport, requests, 1, 2, WorkerDiedError("killed again"), (2,))
    results = engine.round(requests)
    assert [result[1] for result in results] == _shards(requests)
    first_sends = _sendalls(transport, 1)[0]
    assert _sendalls(transport, 1) == [first_sends, first_sends, first_sends[2:]]
    assert [worker for worker, _reason in supervisor.heals] == [1, 1]
    assert len(_sendalls(transport, 0)) == 1


def test_heals_wait_the_policy_backoff_between_sweeps(monkeypatch):
    from repro.bigtable import process_backend

    slept = []
    monkeypatch.setattr(process_backend.time, "sleep", slept.append)
    policy = rpc.RetryPolicy(
        max_attempts=3, base_backoff_s=0.25, backoff_multiplier=2.0, call_deadline_s=1.0
    )
    engine, transport, supervisor = _engine(num_workers=2, policy=policy)
    requests = update_round(8)
    _fail(transport, requests, 0, 0, WorkerDiedError("killed"), (1, 2))
    engine.round(requests)
    assert slept == [policy.backoff_s(1), policy.backoff_s(2)] == [0.25, 0.5]
    assert [worker for worker, _reason in supervisor.heals] == [0, 0]


@ROUND_KINDS
def test_a_round_naming_a_shard_twice_is_refused_before_any_send(make_round):
    # One exactly-once slot per shard is correct only if a round carries at
    # most one request per shard.
    engine, transport, supervisor = _engine(num_workers=2)
    requests = make_round(8)
    with pytest.raises(ConfigurationError, match="more than once"):
        engine.round(requests + requests[-1:])
    assert transport.log == [] and supervisor.heals == []


def test_without_a_retry_policy_collects_wait_the_connections_own_timeout():
    # The federation's build round runs before a cluster hands the engine
    # its policy: fail-fast, on the connection's deadline.
    transport = ScriptedTransport(2)
    engine = ScatterGatherEngine(transport)
    engine.round(query_round(4))
    assert transport.deadlines == [None] * 4
    engine.retry_policy = NO_BACKOFF
    engine.round(query_round(4))
    assert transport.deadlines[4:] == [NO_BACKOFF.call_deadline_s] * 4
