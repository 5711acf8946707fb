"""Double (ping-pong) buffering of aged records (Section 3.5)."""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ArchiveError
from repro.model import HistoryRecord


class PingPongBuffer:
    """Two swapping in-memory buffers feeding one archival disk.

    New records are appended to the *active* buffer.  When the active buffer
    reaches the page size it is handed to the caller for flushing and the
    buffers swap roles — exactly the paper's double-buffering scheme, which
    is sound as long as a buffer can be flushed faster than its twin fills
    (``min Tm >= max Td``).
    """

    def __init__(self, page_records: int) -> None:
        if page_records <= 0:
            raise ArchiveError("page_records must be positive")
        self.page_records = page_records
        self._buffers: List[List[HistoryRecord]] = [[], []]
        self._active = 0
        #: Number of buffer swaps performed so far.
        self.swaps = 0
        #: Timestamp at which the currently active buffer started filling
        #: (used to measure the fill time Tm).
        self._fill_started_at: Optional[float] = None
        #: Observed fill times of completed pages.
        self.fill_times: List[float] = []

    def append(self, record: HistoryRecord, now: float) -> Optional[List[HistoryRecord]]:
        """Add one record; returns a full page to flush, or ``None``.

        The returned list is the *previous* active buffer after a swap; the
        caller is responsible for flushing it to disk.
        """
        active = self._buffers[self._active]
        if not active:
            self._fill_started_at = now
        active.append(record)
        if len(active) < self.page_records:
            return None
        if self._fill_started_at is not None:
            self.fill_times.append(max(now - self._fill_started_at, 0.0))
        return self._swap()

    def drain(self) -> List[HistoryRecord]:
        """Return and clear whatever is in the active buffer (shutdown path)."""
        active = self._buffers[self._active]
        page = list(active)
        active.clear()
        self._fill_started_at = None
        return page

    def min_fill_time(self) -> Optional[float]:
        """``min Tm`` observed so far (None before the first full page)."""
        if not self.fill_times:
            return None
        return min(self.fill_times)

    def _swap(self) -> List[HistoryRecord]:
        page = self._buffers[self._active]
        self._active = 1 - self._active
        self._buffers[self._active] = []
        self.swaps += 1
        flushed = list(page)
        page.clear()
        return flushed
