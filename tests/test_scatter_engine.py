"""The one scatter-gather loop, against a scripted in-memory transport.

No fork, no socket: :class:`ScriptedTransport` plays the shard transport
(`send` / `collect` / `transmit` / `worker_of`) and fails exactly where the
script says — this send, that collect, that frame, on attempt *n* — so the
engine's contract can be pinned in milliseconds for *both* round kinds it
serves: an update window (several partial rounds in flight) and a query
round (one broadcast behind the barrier).  The process-level chaos suites
prove the same loop against real SIGKILLs on top of this.
"""

import pytest

from repro.errors import ConfigurationError, FrameCorruptionError, WorkerDiedError
from repro.server import rpc
from repro.server.scaleout import ScatterGatherEngine

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


def update_window(num_shards):
    """Three partial rounds, like shard-partitioned update batches."""
    return [
        ([(shard, rpc.OP_UPDATE_BATCH, [f"u{shard}"]) for shard in range(num_shards)], 0),
        ([(shard, rpc.OP_UPDATE_BATCH, [f"v{shard}"]) for shard in range(1, num_shards)], 1),
        ([(shard, rpc.OP_UPDATE_BATCH, [f"w{shard}"]) for shard in range(num_shards)], 2),
    ]


def query_round(num_shards):
    """One broadcast: the same probe set to every shard."""
    queries = ["q0", "q1"]
    return [([(shard, rpc.OP_QUERY_BATCH, queries) for shard in range(num_shards)], None)]


ROUND_KINDS = pytest.mark.parametrize(
    "make_rounds", [update_window, query_round], ids=["update-window", "query-round"]
)


def _engine(num_workers, supervised=True, policy=NO_BACKOFF):
    transport = ScriptedTransport(num_workers)
    supervisor = RecordingSupervisor(transport) if supervised else None
    return ScatterGatherEngine(transport, policy, supervisor), transport, supervisor


def _enqueue_all(engine, rounds):
    for requests, round_index in rounds:
        engine.enqueue(requests, round_index)
    return [
        (shard_id, round_index)
        for requests, round_index in rounds
        for shard_id, _opcode, _payload in requests
    ]


def _sendalls(transport, worker):
    return [tokens for kind, w, tokens in transport.log if kind == "sendall" and w == worker]


@ROUND_KINDS
def test_fault_free_drain_commits_in_send_order(make_rounds):
    engine, transport, supervisor = _engine(num_workers=2)
    rounds = make_rounds(4)
    expected = _enqueue_all(engine, rounds)
    assert engine.inflight_rounds == len(rounds)
    drained = engine.drain()
    assert [(shard_id, round_index) for shard_id, _result, round_index in drained] == expected
    assert all(result[1] == shard_id for shard_id, result, _round in drained)
    assert engine.inflight_rounds == 0
    # One sendall per worker per round, nothing re-sent, ids ascending.
    for worker in (0, 1):
        sendalls = _sendalls(transport, worker)
        assert len(sendalls) == len(rounds)
        ids = [token[2] for group in sendalls for token in group]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
    assert supervisor.heals == []
    assert sorted(supervisor.successes) == [0, 1]
    assert engine.drain() == []


@ROUND_KINDS
@pytest.mark.parametrize(
    "fault", [WorkerDiedError("connection closed mid-frame"), FrameCorruptionError("crc mismatch")],
    ids=["dropped-collect", "corrupt-frame"],
)
def test_failed_collect_resends_the_whole_uncollected_set_with_original_ids(
    make_rounds, fault
):
    engine, transport, supervisor = _engine(num_workers=2)
    rounds = make_rounds(4)
    expected = _enqueue_all(engine, rounds)
    first_sends = [token for group in _sendalls(transport, 1) for token in group]
    # Worker 1's *second* token fails on its first transmission: the first
    # was already collected, everything after it is still uncollected.
    failing = first_sends[1]
    transport.fail_collects[(failing[0], failing[2], 1)] = fault
    drained = engine.drain()
    assert [(shard_id, round_index) for shard_id, _result, round_index in drained] == expected
    assert [worker for worker, _reason in supervisor.heals] == [1]
    assert f"shard {failing[0]}" in supervisor.heals[0][1]
    # Exactly one extra sendall, to worker 1 only: every uncollected token,
    # original ids, original order.
    assert _sendalls(transport, 1)[-1] == first_sends[1:]
    assert len(_sendalls(transport, 1)) == len(rounds) + 1
    assert len(_sendalls(transport, 0)) == len(rounds)
    # Results carry the original request ids, so the resend was not re-keyed.
    by_shard_round = {(s, r): result[2] for s, result, r in drained}
    assert sorted(by_shard_round.values()) == sorted(
        token[2]
        for worker in (0, 1)
        for group in _sendalls(transport, worker)[: len(rounds)]
        for token in group
    )


@ROUND_KINDS
def test_failed_send_defers_to_the_drain_and_heals_there(make_rounds):
    engine, transport, supervisor = _engine(num_workers=2)
    transport.fail_sends.add((0, 1))  # the very first send to worker 0
    rounds = make_rounds(4)
    expected = _enqueue_all(engine, rounds)  # enqueue never raises
    # Known-dead worker: later rounds allocate ids but stay off the wire.
    assert _sendalls(transport, 0) == []
    drained = engine.drain()
    assert [(shard_id, round_index) for shard_id, _result, round_index in drained] == expected
    assert supervisor.heals == [(0, "shard 0: send failed: scripted")]
    (resend,) = _sendalls(transport, 0)
    assert [token[0] for token in resend] == [
        shard_id for shard_id, _round in expected if shard_id % 2 == 0
    ]
    assert [token[2] for token in resend] == sorted(token[2] for token in resend)


@ROUND_KINDS
def test_attempts_are_bounded_by_the_retry_policy(make_rounds):
    engine, transport, supervisor = _engine(num_workers=2)
    _enqueue_all(engine, make_rounds(4))
    first = _sendalls(transport, 1)[0][0]
    for attempt in (1, 2, 3, 4):
        transport.fail_collects[(first[0], first[2], attempt)] = WorkerDiedError("hung")
    with pytest.raises(WorkerDiedError, match="after 3 attempts .*worker 1: shard 1: hung"):
        engine.drain()
    assert [worker for worker, _reason in supervisor.heals] == [1, 1]
    assert supervisor.successes == []
    assert engine.inflight_rounds == 0  # a failed drain leaves nothing behind


@ROUND_KINDS
def test_without_a_supervisor_the_first_failed_sweep_raises(make_rounds):
    engine, transport, _none = _engine(num_workers=2, supervised=False)
    rounds = make_rounds(4)
    _enqueue_all(engine, rounds)
    first = _sendalls(transport, 1)[0][0]
    transport.fail_collects[(first[0], first[2], 1)] = WorkerDiedError("gone")
    with pytest.raises(WorkerDiedError, match="after 1 attempts .*worker 1: shard 1: gone"):
        engine.drain()
    # Nothing was re-sent: no healer, no retry.
    assert len(_sendalls(transport, 1)) == len(rounds)


@ROUND_KINDS
def test_two_failed_workers_heal_in_sorted_worker_order(make_rounds):
    engine, transport, supervisor = _engine(num_workers=3)
    rounds = make_rounds(6)
    expected = _enqueue_all(engine, rounds)
    # Shard 2 (worker 2) fails before shard 3 (worker 0) in the sweep, so
    # discovery order is 2, 0 — healing must still go 0, 2.
    for worker, position in ((2, 0), (0, 1)):
        token = _sendalls(transport, worker)[0][position]
        transport.fail_collects[(token[0], token[2], 1)] = WorkerDiedError("killed")
    drained = engine.drain()
    assert [(shard_id, round_index) for shard_id, _result, round_index in drained] == expected
    assert [worker for worker, _reason in supervisor.heals] == [0, 2]
    assert supervisor.heals[1][1] == "shard 2: killed"
    resend_order = [
        worker for kind, worker, _tokens in transport.log if kind == "sendall"
    ][-2:]
    assert resend_order == [0, 2]
    assert sorted(supervisor.successes) == [0, 1, 2]


def test_worker_side_errors_are_not_transport_failures():
    engine, transport, supervisor = _engine(num_workers=1)
    _enqueue_all(engine, query_round(2))
    token = _sendalls(transport, 0)[0][0]
    transport.fail_collects[(token[0], token[2], 1)] = ConfigurationError("guard")
    with pytest.raises(ConfigurationError, match="guard"):
        engine.drain()
    assert supervisor.heals == []


def test_discard_forgets_the_window_without_collecting():
    engine, transport, _supervisor = _engine(num_workers=2)
    _enqueue_all(engine, update_window(4))
    engine.discard()
    assert engine.inflight_rounds == 0
    assert engine.drain() == []
    assert not any(kind == "collect" for kind, _worker, _tokens in transport.log)
