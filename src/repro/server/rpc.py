"""Length-prefixed binary RPC framing for the multiprocess scale-out path.

One frame on the wire is::

    4 bytes  big-endian payload length
    payload: 1 byte   frame kind   (request / response / error)
             4 bytes  request id   (pipelining correlation token)
             2 bytes  shard id
             1 byte   opcode
             4 bytes  crc32 over the four header fields + body
             N bytes  body

The crc protects the wire as the request-log and run-block crcs protect the
disk: a flipped bit or a truncated pipelined frame surfaces as a typed
:class:`~repro.errors.FrameCorruptionError` at the framing layer instead of
a decode crash deep inside a codec.

Bodies for the hot opcodes (update batches, query batches, neighbour
results) ride the shared columnar codec layer (:mod:`repro.codec.wire`):
varint object ids, fixed-width float columns and delta-encoded timestamps
that *reconstruct* the library's records on the far side.  Every body is
self-contained — a neighbour frame carries its own object table and
recomputes distances from the probe set it answers — so neither end of a
connection keeps codec state.  Batches the columnar layout cannot carry —
non-conforming object ids, a negative ``k``, a distance the probe set does
not reproduce — ride the *general* frame (flag byte 0): the same list as
one tagged value (:mod:`repro.codec.values`).  Control-plane verbs ride
the generic ``CALL`` opcode: the body is the tagged tuple
``(method, args, kwargs)``, the result one tagged value.  There is no
other encoding: a value the tagged codec has no tag for is a
:class:`~repro.errors.CodecError` at the sender.

An error raised inside a worker crosses as ``(class name, message)``.  The
name is resolved against :mod:`repro.errors` **only** — a library error
re-raises client-side as itself, so ``except`` clauses behave identically
across the process boundary — and anything else (``ValueError``,
``KeyError``, a foreign class) re-raises as
``RpcError("<RemoteType>: <message>")``.  Nothing that arrives over the
socket is instantiated outside :mod:`repro.errors` and the codec's closed
record table, and none of it is ever executed.
"""

from __future__ import annotations

import socket
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import errors as _errors
from repro.codec import wire as _wire
from repro.codec.values import pack_value, unpack_value
from repro.errors import CodecError, FrameCorruptionError, ReproError, RpcError, WorkerDiedError

# --------------------------------------------------------------------------
# Frame layout
# --------------------------------------------------------------------------

_LENGTH = struct.Struct("!I")
_HEADER_FIELDS = struct.Struct("!BIHB")  # kind, request id, shard id, opcode
_HEADER_CRC = struct.Struct("!I")
_HEADER = struct.Struct("!BIHBI")  # header fields + crc32(fields + body)

KIND_REQUEST = 0
KIND_RESPONSE = 1
KIND_ERROR = 2

OP_PING = 0
OP_CALL = 1
OP_UPDATE_BATCH = 2
OP_QUERY_BATCH = 3
OP_SHUTDOWN = 4

MAX_FRAME_BYTES = 1 << 30  # sanity bound against corrupted length prefixes
_RECV_CHUNK = 1 << 20


def encode_frame(kind: int, request_id: int, shard_id: int, opcode: int, body: bytes) -> bytes:
    """One wire frame, length prefix included."""
    fields = _HEADER_FIELDS.pack(kind, request_id & 0xFFFFFFFF, shard_id, opcode)
    crc = zlib.crc32(body, zlib.crc32(fields))
    payload_len = _HEADER.size + len(body)
    return b"".join(
        (
            _LENGTH.pack(payload_len),
            fields,
            _HEADER_CRC.pack(crc),
            body,
        )
    )


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    # Collected as the bytes arrive, never allocated from the length prefix:
    # a damaged prefix may claim a gigabyte that is not coming.
    parts = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(min(remaining, _RECV_CHUNK))
        except socket.timeout:
            raise WorkerDiedError(
                f"timed out waiting for {remaining} more frame bytes"
            ) from None
        if not chunk:
            raise WorkerDiedError("connection closed mid-frame")
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


def read_frame(sock: socket.socket) -> Tuple[int, int, int, int, bytes]:
    """Blocking read of one frame -> (kind, request_id, shard_id, opcode, body)."""
    (payload_len,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    if payload_len < _HEADER.size or payload_len > MAX_FRAME_BYTES:
        raise RpcError(f"corrupt frame length {payload_len}")
    payload = _recv_exact(sock, payload_len)
    kind, request_id, shard_id, opcode, crc = _HEADER.unpack_from(payload)
    body = payload[_HEADER.size:]
    expected = zlib.crc32(body, zlib.crc32(payload[:_HEADER_FIELDS.size]))
    if crc != expected:
        raise FrameCorruptionError(
            f"frame crc mismatch: header says 0x{crc:08x}, computed 0x{expected:08x}"
        )
    return kind, request_id, shard_id, opcode, body


# --------------------------------------------------------------------------
# Body codecs
# --------------------------------------------------------------------------

#: Response body of ``OP_UPDATE_BATCH``: (processed, shard makespan).
UPDATE_RESULT = struct.Struct("!Id")
#: Prefix of an ``OP_QUERY_BATCH`` response body: the shard makespan, then
#: the neighbour frame (:func:`repro.codec.wire.encode_neighbor_batches`).
MAKESPAN = struct.Struct("!d")


#: The data-plane batch bodies (columnar, or the general frame).
encode_update_batch = _wire.encode_update_batch
decode_update_batch = _wire.decode_update_batch
encode_query_batch = _wire.encode_query_batch
decode_query_batch = _wire.decode_query_batch


def encode_call(method: str, args: tuple, kwargs: dict) -> bytes:
    """Generic CALL body: the tagged tuple ``(method, args, kwargs)``."""
    return pack_value((method, tuple(args), kwargs))


def decode_call(body: bytes) -> Tuple[str, tuple, dict]:
    call = unpack_value(body)
    if (
        type(call) is not tuple
        or tuple(map(type, call)) != (str, tuple, dict)
        or any(type(name) is not str for name in call[2])
    ):
        raise CodecError("CALL body is not (method, args, kwargs)")
    return call


#: Generic CALL result: one tagged value filling the body.
encode_result = pack_value
decode_result = unpack_value

#: ``opcode -> request body codec``; a CALL's payload is the tuple
#: ``(method, args, kwargs)``.
REQUEST_ENCODERS = {
    OP_UPDATE_BATCH: encode_update_batch,
    OP_QUERY_BATCH: encode_query_batch,
    OP_CALL: lambda call: encode_call(*call),
}
REQUEST_DECODERS = {
    OP_UPDATE_BATCH: decode_update_batch,
    OP_QUERY_BATCH: decode_query_batch,
    OP_CALL: decode_call,
}


def encode_error(error: BaseException) -> bytes:
    return pack_value((type(error).__name__, str(error)))


def decode_error(body: bytes) -> BaseException:
    """The exception an error frame stands for: the named
    :mod:`repro.errors` class, or :class:`RpcError` naming the remote type."""
    try:
        name, message = unpack_value(body)
    except (CodecError, TypeError, ValueError) as exc:
        return RpcError(f"undecodable remote error: {exc!r}")
    kind = getattr(_errors, name, None) if type(name) is str else None
    if isinstance(kind, type) and issubclass(kind, ReproError):
        return kind(message)
    return RpcError(f"{name}: {message}")


# --------------------------------------------------------------------------
# Retry policy
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Parent-side retry schedule for supervised scatter-gather.

    Each attempt gets ``call_deadline_s`` of wall-clock to produce a
    response; failed attempts back off exponentially before the supervisor
    respawns the worker and the round's uncollected requests — data-plane
    batches and CALLs alike — are re-sent *with their original request
    ids*, so the worker-side exactly-once slot can suppress double
    application.
    """

    #: Total tries per request (first send included).
    max_attempts: int = 3
    #: Per-attempt response deadline, seconds of wall-clock.
    call_deadline_s: float = 30.0
    #: Sleep before retry ``n`` is ``base * multiplier**(n-1)``, capped.
    base_backoff_s: float = 0.05
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 2.0

    def backoff_s(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1 = first retry)."""
        if attempt <= 0:
            return 0.0
        delay = self.base_backoff_s * self.backoff_multiplier ** (attempt - 1)
        return min(delay, self.max_backoff_s)


# --------------------------------------------------------------------------
# Client-side connection with pipelining
# --------------------------------------------------------------------------


class RpcConnection:
    """One framed, pipelined connection to a worker process.

    ``send_request`` writes one frame (``send_requests`` a whole round in
    one ``sendall``) and returns immediately with the request id; ``wait``
    blocks until that id's response arrives, parking any other
    responses it reads along the way.  This lets a round of per-shard
    requests go out back-to-back before the first response is collected —
    the round-trip cost of a scatter is one pipeline flush, not one
    round-trip per shard.
    """

    def __init__(
        self,
        sock: socket.socket,
        timeout_s: float = 120.0,
        initial_request_id: int = 0,
    ) -> None:
        self._sock = sock
        self._sock.settimeout(timeout_s)
        self.timeout_s = timeout_s
        # A respawned worker's replacement connection continues the old
        # counter so retried requests keep their original ids and fresh
        # requests are always newer than the one the exactly-once slot holds.
        self._next_request_id = initial_request_id & 0xFFFFFFFF
        self._parked: Dict[int, Tuple[int, int, bytes]] = {}
        self._closed = False
        self._pending_fault: Optional[str] = None
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0

    # -- sending -----------------------------------------------------------

    def _allocate_id(self) -> int:
        request_id = self._next_request_id
        self._next_request_id = (request_id + 1) & 0xFFFFFFFF
        return request_id

    @property
    def next_request_id(self) -> int:
        """The id the next allocated request will get (respawn handoff)."""
        return self._next_request_id

    def send_request(
        self,
        shard_id: int,
        opcode: int,
        body: bytes,
        request_id: Optional[int] = None,
    ) -> int:
        """Send one frame.  ``request_id`` pins an explicit id — the retry
        path re-sends with the *original* id so the worker-side dedup
        window recognises the duplicate; fresh requests allocate one."""
        if request_id is None:
            request_id = self._allocate_id()
        frame = encode_frame(KIND_REQUEST, request_id, shard_id, opcode, body)
        self._send_bytes(frame)
        self.frames_sent += 1
        return request_id

    def allocate_request_ids(self, count: int) -> List[int]:
        """Reserve ``count`` ids without sending anything.

        The pipe transport allocates before the batched send so the ids
        survive a send-time failure — they pin the retry frames for
        the worker-side exactly-once slot."""
        return [self._allocate_id() for _ in range(count)]

    def send_requests(
        self,
        requests: Iterable[Tuple[int, int, bytes]],
        request_ids: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """Batched dispatch: frame every (shard, opcode, body) request and
        flush them in one ``sendall`` — a whole round of work per syscall.
        ``request_ids`` pins pre-allocated (or retried) ids positionally;
        without it each request allocates a fresh id."""
        frames = []
        ids = []
        for index, (shard_id, opcode, body) in enumerate(requests):
            request_id = (
                self._allocate_id() if request_ids is None else request_ids[index]
            )
            frames.append(
                encode_frame(KIND_REQUEST, request_id, shard_id, opcode, body)
            )
            ids.append(request_id)
        if frames:
            self._send_bytes(b"".join(frames))
            self.frames_sent += len(frames)
        return ids

    def inject_fault(self, mode: str) -> None:
        """Corrupt the next outgoing send (chaos harness hook).

        ``"bitflip"`` inverts the first body byte so the frame arrives with
        a broken crc; ``"truncate"`` ships only the first half of the bytes
        and drops the rest, leaving the peer blocked mid-frame.
        """
        if mode not in ("bitflip", "truncate"):
            raise RpcError(f"unknown fault mode {mode!r}")
        self._pending_fault = mode

    def _send_bytes(self, data: bytes) -> None:
        if self._closed:
            raise RpcError("connection is closed")
        if self._pending_fault is not None:
            mode, self._pending_fault = self._pending_fault, None
            if mode == "bitflip":
                corrupted = bytearray(data)
                corrupted[min(_LENGTH.size + _HEADER.size, len(corrupted) - 1)] ^= 0xFF
                data = bytes(corrupted)
            else:  # truncate: half the frame, then silence
                data = data[: max(len(data) // 2, 1)]
        try:
            self._sock.sendall(data)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise WorkerDiedError(f"send failed: {exc}") from exc
        self.bytes_sent += len(data)

    # -- receiving ---------------------------------------------------------

    def wait(
        self, request_id: int, deadline_s: Optional[float] = None
    ) -> Tuple[int, bytes]:
        """Block until ``request_id``'s response arrives -> (opcode, body).

        ``deadline_s`` bounds the wall-clock wait for *this call* (the
        constructor ``timeout_s`` is the default); expiry raises
        :class:`WorkerDiedError` so a hung worker surfaces as a failure the
        supervisor can heal instead of a 120 s stall.  Error frames
        re-raise the worker's original exception here.
        """
        budget = self.timeout_s if deadline_s is None else deadline_s
        deadline = None if budget is None else time.monotonic() + budget
        while request_id not in self._parked:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise WorkerDiedError(
                        f"deadline expired waiting for request {request_id}"
                    )
                try:
                    self._sock.settimeout(remaining)
                except OSError as exc:
                    raise WorkerDiedError(f"receive failed: {exc}") from exc
            kind, got_id, _shard, opcode, body = self._read_frame()
            self._parked[got_id] = (kind, opcode, body)
        kind, opcode, body = self._parked.pop(request_id)
        if kind == KIND_ERROR:
            raise decode_error(body)
        if kind != KIND_RESPONSE:
            raise RpcError(f"unexpected frame kind {kind} for request {request_id}")
        return opcode, body

    def _read_frame(self) -> Tuple[int, int, int, int, bytes]:
        if self._closed:
            raise RpcError("connection is closed")
        try:
            frame = read_frame(self._sock)
        except OSError as exc:
            raise WorkerDiedError(f"receive failed: {exc}") from exc
        self.bytes_received += _LENGTH.size + _HEADER.size + len(frame[4])
        return frame

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass


# --------------------------------------------------------------------------
# Worker-side serve loop
# --------------------------------------------------------------------------


def serve_one(sock, dispatch) -> bool:
    """Read one request frame, run it and send the reply; ``False`` once
    the worker should exit: after a shutdown frame, on EOF, or on a frame
    that fails its crc (its header leaves no request id to address an error
    frame to; the parent sees EOF and the supervisor respawns the worker).

    ``dispatch(shard_id, opcode, body, request_id) -> bytes`` runs the
    request (the id feeds the worker-side exactly-once slot); an exception
    becomes an error frame naming its class and message.
    """
    try:
        kind, request_id, shard_id, opcode, body = read_frame(sock)
    except (FrameCorruptionError, WorkerDiedError, RpcError, OSError):
        return False
    if kind != KIND_REQUEST:
        return True
    if opcode == OP_SHUTDOWN:
        frame = encode_frame(KIND_RESPONSE, request_id, shard_id, opcode, b"")
    else:
        try:
            result = dispatch(shard_id, opcode, body, request_id)
            frame = encode_frame(KIND_RESPONSE, request_id, shard_id, opcode, result)
        except Exception as exc:  # noqa: BLE001 - forwarded to the client
            frame = encode_frame(
                KIND_ERROR, request_id, shard_id, opcode, encode_error(exc)
            )
    try:
        sock.sendall(frame)
    except OSError:
        return False
    return opcode != OP_SHUTDOWN


def serve(sock: socket.socket, dispatch) -> None:
    """Worker main loop: :func:`serve_one` until shutdown or EOF."""
    sock.settimeout(None)
    while serve_one(sock, dispatch):
        pass


class _Buffer:
    """A :class:`LoopbackSocket`'s far end: reads requests, writes replies."""

    def __init__(self) -> None:
        self.requests = bytearray()
        self.replies = bytearray()

    def recv(self, count: int) -> bytes:
        chunk = bytes(self.requests[:count])
        del self.requests[:count]
        return chunk

    def sendall(self, data: bytes) -> None:
        self.replies += data


class LoopbackSocket:
    """An in-memory socket whose far end is a worker served in this process:
    :meth:`sendall` runs each request frame it completes through
    :func:`serve_one`, and :meth:`recv` returns the buffered replies.
    Nothing blocks: a far end that is ``paused`` or left mid-frame by a
    truncated send never answers, so a read raises ``socket.timeout`` at
    once (the caller's deadline path).  Once the far end has exited
    (:meth:`close`, a shutdown frame, a frame that fails its crc) a send
    breaks the pipe and a read past the buffered replies is EOF.
    """

    def __init__(self, dispatch) -> None:
        self._dispatch = dispatch
        self._far = _Buffer()
        self.paused = False

    def settimeout(self, timeout: Optional[float]) -> None:
        pass

    def sendall(self, data: bytes) -> None:
        if self._dispatch is None:
            raise BrokenPipeError("the loopback worker has exited")
        requests = self._far.requests
        requests += data
        while not self.paused and len(requests) >= _LENGTH.size:
            if len(requests) < _LENGTH.size + _LENGTH.unpack_from(requests)[0]:
                return  # a truncated frame: the worker waits for the rest
            if not serve_one(self._far, self._dispatch):
                self.close()
                return

    def recv(self, count: int) -> bytes:
        replies = self._far.replies
        if not replies and self._dispatch is not None:
            raise socket.timeout("the loopback worker has not answered")
        chunk = bytes(replies[:count])
        del replies[:count]
        return chunk

    def close(self) -> None:
        """The far end exits: its dispatch (and what it holds) goes."""
        self._dispatch = None
