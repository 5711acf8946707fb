"""Tablet-aware contention model for the shared BigTable.

Front-ends only contend when they hit the *same tablet*, so the inflation
of a request's storage time scales with how concentrated the load actually
is, rather than assuming every request of every front-end collides on a
single storage shard.

The factor applied to a request's storage time is::

    1 + alpha * (num_servers - 1) * hot_share

where ``hot_share`` measures how concentrated load is on the hottest tablet,
from the backend's per-tablet ledgers.  With one monolithic tablet
``hot_share == 1`` and every request collides; with load spread over many
tablets it approaches 1/num_tablets and contention all but vanishes — which
is exactly the scale-out story the paper's Section 4.3.3 tells ("MOIST has
very little communication overhead with the increase in the number of
machines").

Reads and writes contribute symmetrically:
:meth:`~repro.bigtable.emulator.BigtableEmulator.tablet_skew` reports the
hottest *read* tablet's share of read time and the hottest *write*
tablet's share of write time separately, blended by each class's share of
traffic.  A query storm piling onto one spatial-index tablet therefore
inflates contention exactly as the equivalent write front on a location
tablet would — the skew does not hide inside a combined total where a
balanced write load could dilute it.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from repro.bigtable.emulator import BigtableEmulator
from repro.errors import ConfigurationError

#: Requests between two re-samples of the backend's tablet skew.
REFRESH_EVERY = 32


class TabletContentionModel:
    """Computes the storage-time inflation of a cluster from tablet skew.

    ``hot_share`` is re-sampled from the backend's tablet ledgers every
    :data:`REFRESH_EVERY` requests: skew moves slowly relative to request
    rate, and sampling every request would dominate the simulation's own
    cost.
    """

    def __init__(
        self,
        backend: BigtableEmulator,
        num_servers: int,
        alpha: float = 0.025,
    ) -> None:
        if num_servers < 1:
            raise ConfigurationError("num_servers must be >= 1")
        if alpha < 0:
            raise ConfigurationError("alpha must be non-negative")
        self.backend = backend
        #: Optional callable returning ``tablet_id -> replica count``
        #: (primary included), set by the tablet master when it replicates
        #: read-hot tablets for query fan-out.
        self.replica_counts: Optional[Callable[[], Mapping[str, int]]] = None
        self.num_servers = num_servers
        self.alpha = alpha
        self._requests_since_refresh: Optional[int] = None
        self._cached_factor = 1.0

    def factor(self) -> float:
        """Current storage-time inflation factor (>= 1)."""
        if self.num_servers == 1 or self.alpha == 0.0:
            return 1.0
        if (
            self._requests_since_refresh is None
            or self._requests_since_refresh >= REFRESH_EVERY
        ):
            self._cached_factor = 1.0 + self.alpha * (self.num_servers - 1) * (
                self._hot_share()
            )
            self._requests_since_refresh = 0
        self._requests_since_refresh += 1
        return self._cached_factor

    def _hot_share(self) -> float:
        """Symmetric read/write skew: the hottest read tablet and the
        hottest write tablet, each weighted by its class's traffic share.
        A control plane that replicates read-hot tablets registers
        :attr:`replica_counts`; the hot read tablet's skew is then divided
        by its fan-out (reads spread over every replica)."""
        skew = self.backend.tablet_skew()
        if self.replica_counts is not None:
            return skew.replica_adjusted_share(self.replica_counts())
        return skew.blended_share

    def invalidate(self) -> None:
        """Force a re-sample on the next request (e.g. after counter resets)."""
        self._requests_since_refresh = None

    def export_state(self) -> tuple:
        """``(requests since the last re-sample, cached factor)``: where the
        next re-sample falls decides every later service time."""
        return (self._requests_since_refresh, self._cached_factor)

    def install_state(self, state: tuple) -> None:
        self._requests_since_refresh, self._cached_factor = state
