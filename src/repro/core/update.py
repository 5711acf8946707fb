"""The MOIST update procedure (Algorithm 1).

An update ``(ID, Loc, V, t)`` is routed to one of four branches:

* the object has never been seen -> it becomes the leader of a new
  single-member school;
* the object is a **leader** -> its Location Table row gains a record and its
  Spatial Index Table entry moves to the new cell;
* the object is a **follower** whose reported location stays within ε of the
  location estimated from its leader -> the update is **shed** (no writes);
* the object is a follower that drifted beyond ε -> it departs its school
  and is promoted to the leader of a new school.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import hypot
from typing import List, Optional, Sequence

from repro.core.config import MoistConfig
from repro.model import ObjectId, UpdateMessage
from repro.tables.affiliation_table import LEADER_CODE, AffiliationTable
from repro.tables.location_table import LocationTable
from repro.tables.spatial_index_table import SpatialIndexTable


class UpdateOutcome(enum.Enum):
    """How an update was handled."""

    NEW_LEADER = "new_leader"
    LEADER_UPDATED = "leader_updated"
    SHED = "shed"
    PROMOTED = "promoted"


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of one update."""

    object_id: ObjectId
    outcome: UpdateOutcome
    #: Distance between the reported and the estimated location (followers
    #: only; ``None`` for leader paths).
    estimation_error: Optional[float] = None


@dataclass
class UpdateStats:
    """Running counters over every processed update."""

    total: int = 0
    new_leaders: int = 0
    leader_updates: int = 0
    shed: int = 0
    promotions: int = 0
    #: Sum of follower estimation errors, for mean-error reporting.
    error_sum: float = 0.0
    error_samples: int = 0

    def record(self, result: UpdateResult) -> None:
        """Fold one result into the counters."""
        self.total += 1
        if result.outcome is UpdateOutcome.NEW_LEADER:
            self.new_leaders += 1
        elif result.outcome is UpdateOutcome.LEADER_UPDATED:
            self.leader_updates += 1
        elif result.outcome is UpdateOutcome.SHED:
            self.shed += 1
        elif result.outcome is UpdateOutcome.PROMOTED:
            self.promotions += 1
        if result.estimation_error is not None:
            self.error_sum += result.estimation_error
            self.error_samples += 1

    @property
    def shed_ratio(self) -> float:
        """Fraction of updates that required no storage writes."""
        if self.total == 0:
            return 0.0
        return self.shed / self.total


@dataclass
class UpdateProcessor:
    """Executes Algorithm 1 against the three MOIST tables."""

    config: MoistConfig
    location_table: LocationTable
    spatial_table: SpatialIndexTable
    affiliation_table: AffiliationTable
    stats: UpdateStats = field(default_factory=UpdateStats)

    def process(self, message: UpdateMessage) -> UpdateResult:
        """Handle one update message and return what happened."""
        result = self._dispatch(message)
        self.stats.record(result)
        return result

    def process_batch(self, messages: Sequence[UpdateMessage]) -> List[UpdateResult]:
        """Handle a batch of update messages through the group-commit path.

        Each message runs the exact same Algorithm 1 branches as
        :meth:`process` — reads observe every earlier write of the batch and
        the simulated storage cost is identical to processing the messages
        one at a time.  What the batch amortises is the Python-level
        bookkeeping: all three MOIST tables stay in group-commit mode for
        the whole batch, so per-mutation counter updates and tablet
        split/merge checks are flushed in bulk instead of paid per message,
        and every row insert of the batch lands in the tablet memtable's
        unsorted write buffer — the sorted runs are rebuilt at most once per
        touched tablet when the deferred split/merge checks run at flush,
        instead of once per insert.
        """
        results: List[UpdateResult] = []
        if not messages:
            return results
        append = results.append
        record = self.stats.record
        dispatch = self._dispatch
        with self.location_table.table.group_commit(), \
                self.spatial_table.table.group_commit(), \
                self.affiliation_table.table.group_commit():
            for message in messages:
                result = dispatch(message)
                record(result)
                append(result)
        return results

    def _dispatch(self, message: UpdateMessage) -> UpdateResult:
        """Route one message to its Algorithm 1 branch."""
        lf_record = self.affiliation_table.role_of(message.object_id)
        if lf_record is None:
            return self._register_new_leader(message)
        if lf_record[0] == LEADER_CODE:
            return self._update_leader(message)
        return self._update_follower(message, lf_record)

    # ------------------------------------------------------------------
    # Branches
    # ------------------------------------------------------------------
    def _register_new_leader(self, message: UpdateMessage) -> UpdateResult:
        """First sighting of an object: it leads a new single-member school."""
        self.affiliation_table.set_leader(message.object_id, message.timestamp)
        self.location_table.add_record(message.object_id, message.as_record())
        self.spatial_table.add(message.object_id, message.location, message.timestamp)
        return UpdateResult(message.object_id, UpdateOutcome.NEW_LEADER)

    def _update_leader(self, message: UpdateMessage) -> UpdateResult:
        """Algorithm 1, lines 2-3."""
        previous = self.location_table.latest(message.object_id)
        self.location_table.add_record(message.object_id, message.as_record())
        previous_location = previous[:2] if previous is not None else None
        self.spatial_table.move(
            message.object_id,
            previous_location,
            message.location,
            message.timestamp,
        )
        return UpdateResult(message.object_id, UpdateOutcome.LEADER_UPDATED)

    def _update_follower(self, message: UpdateMessage, lf_record) -> UpdateResult:
        """Algorithm 1, lines 5-14."""
        _, _, leader_id, offset_x, offset_y = lf_record
        leader_record = self.location_table.latest(leader_id)
        estimation_error: Optional[float] = None
        if leader_record is not None:
            # record.extrapolated(t).displaced(d).distance_to(p) on the bare
            # rows, float operation for float operation.
            x, y, dx, dy, timestamp = leader_record
            elapsed = message.timestamp - timestamp
            location = message.location
            estimation_error = hypot(
                ((x + dx * elapsed) + offset_x) - location.x,
                ((y + dy * elapsed) + offset_y) - location.y,
            )
            within_school = (
                self.config.enable_schools
                and estimation_error <= self.config.deviation_threshold
            )
            if within_school:
                return UpdateResult(
                    message.object_id, UpdateOutcome.SHED, estimation_error
                )
        # The follower departed its school (or the leader vanished): promote
        # it to the leader of a new school.
        self.affiliation_table.remove_follower(leader_id, message.object_id)
        self.affiliation_table.set_leader(message.object_id, message.timestamp)
        self.location_table.add_record(message.object_id, message.as_record())
        self.spatial_table.add(message.object_id, message.location, message.timestamp)
        return UpdateResult(message.object_id, UpdateOutcome.PROMOTED, estimation_error)
