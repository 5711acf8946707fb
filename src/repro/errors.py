"""Exception hierarchy shared by the whole ``repro`` package.

Every subsystem raises subclasses of :class:`ReproError` so that callers can
catch library-level failures without accidentally swallowing programming
errors (``TypeError``, ``AttributeError`` and friends propagate untouched).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SpatialError(ReproError):
    """Invalid spatial-index operation (bad level, out-of-range coordinate)."""


class StorageError(ReproError):
    """Errors raised by the BigTable emulator layer."""


class TableNotFoundError(StorageError):
    """A named table does not exist in the emulator."""


class RowNotFoundError(StorageError):
    """A point read targeted a row key that is absent."""


class ColumnFamilyError(StorageError):
    """A mutation referenced a column family that was never declared."""


class SchemaError(ReproError):
    """A MOIST table wrapper received a malformed record."""


class ClusteringError(ReproError):
    """School clustering was invoked with inconsistent state."""


class ArchiveError(ReproError):
    """Errors raised by the PPP aged-data archiving subsystem."""


class WorkloadError(ReproError):
    """Invalid workload configuration (e.g. empty road network)."""


class ConfigurationError(ReproError):
    """A configuration object failed validation."""


class QueryError(ReproError):
    """A query (NN, history, point) was malformed or unanswerable."""


class CodecError(ReproError):
    """A value cannot be encoded, or bytes cannot be decoded.

    Raised at the *sender* for a value the tagged codec has no tag for (a
    subclass, a foreign type, a record off its declared field types), and
    at the reader for truncated input, a count larger than the bytes that
    remain, an unknown tag or the retired tag 0."""


class RpcError(ReproError):
    """A cross-process RPC failed (framing, dispatch or transport)."""


class WorkerDiedError(RpcError):
    """A tablet worker process died or stopped answering mid-conversation."""


class FrameCorruptionError(RpcError):
    """An RPC frame failed its header crc32 check (bit flip or truncation)."""


class StaleRequestError(RpcError):
    """A worker received a request id it has already moved past.

    Raised by the worker-side exactly-once slot when a mutating request's id
    is *older* than the last applied one, or repeats it under another opcode
    — a retry protocol bug, since the parent collects every response of a
    round before sending the next.
    """


class WorkerCircuitOpenError(RpcError):
    """A worker's circuit breaker tripped: too many consecutive failures.

    The supervisor stops respawning and surfaces a terminal error instead of
    retrying forever against a worker (or a workload) that cannot recover.
    """


class UnrecoverableShardError(RpcError):
    """A shard's durable state cannot be restored to a consistent point.

    Raised when its snapshot is damaged or does not fit the shard, or when
    its request log is damaged anywhere but its final frame (the one frame
    a kill can tear)."""
