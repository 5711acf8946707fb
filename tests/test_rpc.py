"""The RPC layer in isolation: framing, compact codecs, pipelining.

Everything here runs over a plain ``socketpair`` with a thread serving
:func:`repro.server.rpc.serve` — no worker processes — so failures point
at the transport, not at the shard stacks built on top of it.
"""

import socket
import threading

import pytest

from repro.errors import (
    CodecError,
    ConfigurationError,
    FrameCorruptionError,
    RpcError,
    StaleRequestError,
    WorkerDiedError,
)
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import UpdateMessage
from repro.server import rpc
from repro.workload.queries import NNQuery


# --------------------------------------------------------------------------
# Framing
# --------------------------------------------------------------------------
def test_frame_round_trip_over_socketpair():
    left, right = socket.socketpair()
    try:
        left.sendall(rpc.encode_frame(rpc.KIND_REQUEST, 7, 3, rpc.OP_PING, b"hi"))
        kind, request_id, shard_id, opcode, body = rpc.read_frame(right)
        assert (kind, request_id, shard_id, opcode, body) == (
            rpc.KIND_REQUEST,
            7,
            3,
            rpc.OP_PING,
            b"hi",
        )
    finally:
        left.close()
        right.close()


def test_read_frame_raises_on_truncated_stream():
    left, right = socket.socketpair()
    try:
        frame = rpc.encode_frame(rpc.KIND_REQUEST, 1, 0, rpc.OP_PING, b"payload")
        left.sendall(frame[: len(frame) - 3])
        left.close()
        with pytest.raises(WorkerDiedError):
            rpc.read_frame(right)
    finally:
        right.close()


def test_read_frame_detects_flipped_body_bit():
    left, right = socket.socketpair()
    try:
        frame = bytearray(
            rpc.encode_frame(rpc.KIND_REQUEST, 1, 0, rpc.OP_CALL, b"payload")
        )
        frame[-2] ^= 0x01  # one bit, deep in the body
        left.sendall(bytes(frame))
        with pytest.raises(FrameCorruptionError, match="crc mismatch"):
            rpc.read_frame(right)
    finally:
        left.close()
        right.close()


def test_read_frame_detects_flipped_header_bit():
    left, right = socket.socketpair()
    try:
        frame = bytearray(
            rpc.encode_frame(rpc.KIND_REQUEST, 7, 3, rpc.OP_CALL, b"payload")
        )
        frame[5] ^= 0x40  # inside the request id field
        left.sendall(bytes(frame))
        with pytest.raises(FrameCorruptionError):
            rpc.read_frame(right)
    finally:
        left.close()
        right.close()


def test_read_frame_times_out_as_worker_death():
    left, right = socket.socketpair()
    try:
        right.settimeout(0.05)
        left.sendall(b"\x00\x00\x00\x20")  # length prefix, then silence
        with pytest.raises(WorkerDiedError, match="timed out"):
            rpc.read_frame(right)
    finally:
        left.close()
        right.close()


# --------------------------------------------------------------------------
# Compact codecs
# --------------------------------------------------------------------------
def _messages():
    return [
        UpdateMessage("obj%010d" % i, Point(1.5 * i, 2.5), Vector(0.1, -0.2), float(i))
        for i in range(5)
    ]


def test_update_batch_codec_round_trips_compact():
    messages = _messages()
    body = rpc.encode_update_batch(messages)
    assert body[0] == 1  # columnar flag: ids reconstruct from their numbers
    assert rpc.decode_update_batch(body) == messages


def test_update_batch_codec_rides_the_general_frame_for_odd_ids():
    odd = [
        UpdateMessage("weird-id", Point(1.0, 2.0), Vector(0.0, 0.0), 0.0),
    ]
    body = rpc.encode_update_batch(odd)
    assert body[0] == 0  # general flag: the list as one tagged value
    assert rpc.decode_update_batch(body) == odd
    # A general frame carries updates and nothing else.
    queries = rpc.encode_query_batch([NNQuery(location=Point(1.0, 1.0), k=-1)])
    assert queries[0] == 0
    with pytest.raises(CodecError):
        rpc.decode_update_batch(queries)


def test_query_batch_codec_round_trips():
    queries = [
        NNQuery(location=Point(3.0, 4.0), k=7),
        NNQuery(location=Point(1.0, 1.0), k=2, range_limit=50.0),
    ]
    assert rpc.decode_query_batch(rpc.encode_query_batch(queries)) == queries


def test_call_codec_round_trips_args_and_kwargs():
    body = rpc.encode_call("migrate", ("spatial", "t0"), {"crash_point": None})
    assert rpc.decode_call(body) == ("migrate", ("spatial", "t0"), {"crash_point": None})


def test_error_codec_preserves_exception_type():
    original = ConfigurationError("no such server")
    decoded = rpc.decode_error(rpc.encode_error(original))
    assert isinstance(decoded, ConfigurationError)
    assert str(decoded) == "no such server"


def test_call_codec_rejects_bodies_that_are_not_a_call():
    for value in ["ping", ("ping", (), {}, 1), ("ping", [], {}), ("ping", (), {1: 2})]:
        with pytest.raises(CodecError):
            rpc.decode_call(rpc.encode_result(value))
    with pytest.raises(CodecError, match="stray"):
        rpc.decode_call(rpc.encode_call("ping", (), {}) + b"\x01")
    with pytest.raises(CodecError, match="no value tag"):
        rpc.encode_call("create_table", (object(),), {})


def test_error_codec_resolves_names_against_repro_errors_only():
    class Foreign(Exception):
        pass

    for original in (ValueError("bad literal"), Foreign("boom"), KeyError("k")):
        decoded = rpc.decode_error(rpc.encode_error(original))
        assert type(decoded) is RpcError
        assert str(decoded) == f"{type(original).__name__}: {original}"
    # A name that is an attribute of the module but not one of its errors.
    for name in ("annotations", "__doc__", "ReproError.__init__"):
        decoded = rpc.decode_error(rpc.encode_result((name, "x")))
        assert type(decoded) is RpcError and str(decoded) == f"{name}: x"
    for body in (b"", b"\x00", rpc.encode_result(7), rpc.encode_result((1, 2, 3))):
        assert type(rpc.decode_error(body)) is RpcError


# --------------------------------------------------------------------------
# Connection pipelining against a live serve() loop
# --------------------------------------------------------------------------
def _echo_dispatch(shard_id, opcode, body, request_id):
    if opcode == rpc.OP_PING:
        return b""
    return bytes([shard_id]) + body


def _stop_serving(connection, thread):
    """Ask the serve loop to exit and reap the thread."""
    request_id = connection.send_request(0, rpc.OP_SHUTDOWN, b"")
    connection.wait(request_id)
    thread.join(timeout=5.0)
    connection.close()
    assert not thread.is_alive()


@pytest.fixture()
def served_connection():
    left, right = socket.socketpair()
    thread = threading.Thread(target=rpc.serve, args=(right, _echo_dispatch))
    thread.start()
    connection = rpc.RpcConnection(left, timeout_s=10.0)
    yield connection
    _stop_serving(connection, thread)


def test_pipelined_requests_resolve_out_of_order(served_connection):
    first = served_connection.send_request(1, rpc.OP_CALL, b"a")
    second = served_connection.send_request(2, rpc.OP_CALL, b"b")
    # Waiting on the later id first forces the earlier response to park.
    assert served_connection.wait(second) == (rpc.OP_CALL, b"\x02b")
    assert served_connection.wait(first) == (rpc.OP_CALL, b"\x01a")
    assert not served_connection._parked


def test_batched_send_requests_round_trip(served_connection):
    ids = served_connection.send_requests(
        [(0, rpc.OP_CALL, b"x"), (3, rpc.OP_CALL, b"y"), (0, rpc.OP_PING, b"")]
    )
    bodies = [served_connection.wait(request_id)[1] for request_id in ids]
    assert bodies == [b"\x00x", b"\x03y", b""]


def test_connection_counts_frames_and_bytes(served_connection):
    sent_before = served_connection.bytes_sent
    frames_before = served_connection.frames_sent
    request_id = served_connection.send_request(0, rpc.OP_CALL, b"abc")
    served_connection.wait(request_id)
    wire_frame = rpc.encode_frame(
        rpc.KIND_REQUEST, request_id, 0, rpc.OP_CALL, b"abc"
    )
    assert served_connection.frames_sent - frames_before == 1
    assert served_connection.bytes_sent - sent_before == len(wire_frame)
    # The echo response carries one extra byte (the shard id prefix).
    assert served_connection.bytes_received >= len(wire_frame) + 1


def test_dispatch_errors_reraise_client_side():
    def failing_dispatch(shard_id, opcode, body, request_id):
        raise ConfigurationError("remote guard tripped")

    left, right = socket.socketpair()
    thread = threading.Thread(target=rpc.serve, args=(right, failing_dispatch))
    thread.start()
    connection = rpc.RpcConnection(left, timeout_s=10.0)
    request_id = connection.send_request(0, rpc.OP_CALL, b"")
    with pytest.raises(ConfigurationError, match="remote guard tripped"):
        connection.wait(request_id)
    _stop_serving(connection, thread)


# --------------------------------------------------------------------------
# Failure paths: deadlines, mid-frame closures, corruption, stale retries
# --------------------------------------------------------------------------
def test_wait_deadline_expires_as_worker_death():
    left, right = socket.socketpair()
    try:
        connection = rpc.RpcConnection(left, timeout_s=30.0)
        request_id = connection.send_request(0, rpc.OP_PING, b"")
        # The deadline surfaces either as a socket timeout mapped to
        # WorkerDiedError or, on a late wakeup, as the explicit expiry.
        with pytest.raises(WorkerDiedError, match="timed out|deadline expired"):
            connection.wait(request_id, deadline_s=0.05)
    finally:
        left.close()
        right.close()


def test_wait_surfaces_peer_closed_mid_frame():
    left, right = socket.socketpair()
    try:
        connection = rpc.RpcConnection(left, timeout_s=10.0)
        request_id = connection.send_request(0, rpc.OP_PING, b"")
        # Half a response frame, then the "worker" dies.
        frame = rpc.encode_frame(rpc.KIND_RESPONSE, request_id, 0, rpc.OP_PING, b"")
        right.sendall(frame[: len(frame) // 2])
        right.close()
        # Clean EOF surfaces as "closed mid-frame"; a close with our
        # request still unread in the peer's buffer arrives as ECONNRESET.
        with pytest.raises(WorkerDiedError, match="closed mid-frame|receive failed"):
            connection.wait(request_id)
    finally:
        left.close()


def test_truncated_pipelined_response_fails_every_outstanding_wait():
    left, right = socket.socketpair()
    try:
        connection = rpc.RpcConnection(left, timeout_s=10.0)
        first = connection.send_request(0, rpc.OP_CALL, b"a")
        second = connection.send_request(1, rpc.OP_CALL, b"b")
        # The first response arrives whole, the second is cut mid-frame.
        right.sendall(
            rpc.encode_frame(rpc.KIND_RESPONSE, first, 0, rpc.OP_CALL, b"ok")
        )
        tail = rpc.encode_frame(rpc.KIND_RESPONSE, second, 1, rpc.OP_CALL, b"gone")
        right.sendall(tail[: len(tail) - 4])
        right.close()
        assert connection.wait(first) == (rpc.OP_CALL, b"ok")
        with pytest.raises(WorkerDiedError):
            connection.wait(second)
    finally:
        left.close()


def test_corrupt_response_surfaces_as_frame_corruption():
    left, right = socket.socketpair()
    try:
        connection = rpc.RpcConnection(left, timeout_s=10.0)
        request_id = connection.send_request(0, rpc.OP_CALL, b"")
        frame = bytearray(
            rpc.encode_frame(rpc.KIND_RESPONSE, request_id, 0, rpc.OP_CALL, b"xyz")
        )
        frame[-1] ^= 0xFF
        right.sendall(bytes(frame))
        with pytest.raises(FrameCorruptionError):
            connection.wait(request_id)
    finally:
        left.close()
        right.close()


def test_inject_bitflip_corrupts_exactly_one_send():
    left, right = socket.socketpair()
    try:
        connection = rpc.RpcConnection(left, timeout_s=10.0)
        connection.inject_fault("bitflip")
        connection.send_request(0, rpc.OP_CALL, b"abc")
        with pytest.raises(FrameCorruptionError):
            rpc.read_frame(right)
        # The fault is consumed: the next frame is clean.
        request_id = connection.send_request(0, rpc.OP_CALL, b"abc")
        kind, got_id, _shard, _opcode, body = rpc.read_frame(right)
        assert (kind, got_id, body) == (rpc.KIND_REQUEST, request_id, b"abc")
    finally:
        left.close()
        right.close()


def test_inject_truncate_leaves_the_peer_blocked():
    left, right = socket.socketpair()
    try:
        connection = rpc.RpcConnection(left, timeout_s=10.0)
        connection.inject_fault("truncate")
        connection.send_request(0, rpc.OP_CALL, b"abcdefgh")
        right.settimeout(0.05)
        with pytest.raises(WorkerDiedError, match="timed out"):
            rpc.read_frame(right)
    finally:
        left.close()
        right.close()


def test_inject_fault_rejects_unknown_modes():
    left, right = socket.socketpair()
    try:
        connection = rpc.RpcConnection(left, timeout_s=10.0)
        with pytest.raises(RpcError, match="fault mode"):
            connection.inject_fault("meteor")
    finally:
        left.close()
        right.close()


def test_explicit_request_ids_pin_the_retry_frame(served_connection):
    first = served_connection.send_request(1, rpc.OP_CALL, b"a")
    assert served_connection.wait(first) == (rpc.OP_CALL, b"\x01a")
    # A retry re-sends with the original id; the echo server happily
    # answers it again (dedup lives in the shard dispatch, not here).
    retried = served_connection.send_request(1, rpc.OP_CALL, b"a", request_id=first)
    assert retried == first
    assert served_connection.wait(first) == (rpc.OP_CALL, b"\x01a")
    # Fresh sends continue the counter past the pinned id.
    assert served_connection.send_request(0, rpc.OP_PING, b"") > first


def test_allocate_then_send_pins_batched_ids(served_connection):
    ids = served_connection.allocate_request_ids(3)
    assert ids == sorted(ids)
    sent = served_connection.send_requests(
        [(0, rpc.OP_CALL, b"x"), (1, rpc.OP_CALL, b"y"), (2, rpc.OP_CALL, b"z")],
        request_ids=ids,
    )
    assert sent == ids
    bodies = [served_connection.wait(request_id)[1] for request_id in ids]
    assert bodies == [b"\x00x", b"\x01y", b"\x02z"]


def test_initial_request_id_continues_a_dead_connections_counter():
    left, right = socket.socketpair()
    thread = threading.Thread(target=rpc.serve, args=(right, _echo_dispatch))
    thread.start()
    connection = rpc.RpcConnection(left, timeout_s=10.0, initial_request_id=41)
    request_id = connection.send_request(0, rpc.OP_CALL, b"q")
    assert request_id == 41
    assert connection.next_request_id == 42
    assert connection.wait(request_id) == (rpc.OP_CALL, b"\x00q")
    _stop_serving(connection, thread)


def test_stale_request_errors_cross_the_wire_typed():
    def stale_dispatch(shard_id, opcode, body, request_id):
        raise StaleRequestError(f"request id {request_id} is older")

    left, right = socket.socketpair()
    thread = threading.Thread(target=rpc.serve, args=(right, stale_dispatch))
    thread.start()
    connection = rpc.RpcConnection(left, timeout_s=10.0)
    request_id = connection.send_request(0, rpc.OP_CALL, b"")
    with pytest.raises(StaleRequestError, match="older"):
        connection.wait(request_id)
    _stop_serving(connection, thread)


def test_serve_exits_on_corrupt_request_frame():
    left, right = socket.socketpair()

    def serve_then_close():
        # Mirror ``worker_main``: the worker's end closes when the serve
        # loop returns, which is what turns its exit into EOF for the
        # parent instead of a silent peer.
        try:
            rpc.serve(right, _echo_dispatch)
        finally:
            right.close()

    thread = threading.Thread(target=serve_then_close)
    thread.start()
    try:
        connection = rpc.RpcConnection(left, timeout_s=10.0)
        connection.inject_fault("bitflip")
        request_id = connection.send_request(0, rpc.OP_CALL, b"abc")
        # The worker cannot trust the corrupt header enough to address an
        # error frame, so it exits; the parent sees EOF — promptly, so the
        # deadline only bounds a regression.
        with pytest.raises(WorkerDiedError, match="closed mid-frame|receive failed"):
            connection.wait(request_id, deadline_s=1.0)
        thread.join(timeout=1.0)
        assert not thread.is_alive()
        connection.close()
    finally:
        left.close()


# --------------------------------------------------------------------------
# Batched sends: coalescing, error shape
# --------------------------------------------------------------------------
def test_send_requests_coalesce_into_one_send(served_connection):
    sends = []
    original = served_connection._send_bytes

    def counting_send(payload):
        sends.append(len(payload))
        original(payload)

    served_connection._send_bytes = counting_send
    frames_before = served_connection.frames_sent
    ids = served_connection.send_requests(
        [(0, rpc.OP_CALL, b"a"), (1, rpc.OP_CALL, b"b"), (2, rpc.OP_CALL, b"c")]
    )
    served_connection._send_bytes = original
    # One sendall carried all three frames (one per worker per window
    # step); the frame counter still advances per frame so wire accounting
    # stays comparable.
    assert len(sends) == 1
    assert served_connection.frames_sent - frames_before == 3
    bodies = [served_connection.wait(rid)[1] for rid in ids]
    assert bodies == [b"\x00a", b"\x01b", b"\x02c"]


def test_send_requests_is_a_noop_when_empty(served_connection):
    frames_before = served_connection.frames_sent
    bytes_before = served_connection.bytes_sent
    assert served_connection.send_requests([]) == []
    assert served_connection.frames_sent == frames_before
    assert served_connection.bytes_sent == bytes_before


def test_send_failure_is_wrapped_exactly_once():
    left, right = socket.socketpair()
    connection = rpc.RpcConnection(left, timeout_s=10.0)
    left.close()
    right.close()
    with pytest.raises(WorkerDiedError) as excinfo:
        connection.send_request(0, rpc.OP_PING, b"")
    message = str(excinfo.value)
    # Regression: the raise site wraps the OS error once; callers must
    # not wrap again ("send failed: send failed: [Errno 32] ...").
    assert message.startswith("send failed: ")
    assert message.count("send failed: ") == 1


def test_retry_policy_backoff_schedule():
    policy = rpc.RetryPolicy(
        base_backoff_s=0.1, backoff_multiplier=2.0, max_backoff_s=0.5
    )
    assert policy.backoff_s(0) == 0.0
    assert policy.backoff_s(1) == pytest.approx(0.1)
    assert policy.backoff_s(2) == pytest.approx(0.2)
    assert policy.backoff_s(3) == pytest.approx(0.4)
    assert policy.backoff_s(4) == pytest.approx(0.5)  # capped
    assert policy.backoff_s(10) == pytest.approx(0.5)
