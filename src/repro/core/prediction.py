"""Trajectory smoothing and short-horizon prediction (Section 3.5).

The Location Table keeps ``m`` recent records per object in memory precisely
so that applications can run "travel-path rendering, current location
positioning (via algorithms such as Viterbi), and future location
prediction".  This module provides both:

* :class:`ViterbiSmoother` — snaps a noisy trajectory onto a grid of
  candidate cells with the classic Viterbi dynamic program (emission cost =
  distance from the observation to the candidate cell centre, transition
  cost = distance between consecutive candidates scaled by the plausible
  speed), returning the most likely clean path;
* :class:`LinearPredictor` — least-squares constant-velocity fit over the
  recent records, used for "where will this object be in t seconds" queries
  and for smarter follower-location estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import QueryError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import LocationRecord
from repro.spatial.cell import CellId
from repro.spatial.cell import WORLD_UNIT_BOX


@dataclass(frozen=True)
class PredictedState:
    """A predicted position with the velocity estimate that produced it."""

    location: Point
    velocity: Vector
    at_time: float


class LinearPredictor:
    """Constant-velocity model fitted to an object's recent records."""

    def __init__(self, records: Sequence[LocationRecord]) -> None:
        if not records:
            raise QueryError("prediction needs at least one location record")
        #: Records sorted oldest -> newest.
        self.records = sorted(records, key=lambda record: record.timestamp)

    def fitted_velocity(self) -> Vector:
        """Least-squares velocity over the record window.

        Falls back to the newest record's reported velocity when the window
        holds a single observation or spans zero time.  The fit runs in two
        fused passes over the records with scalar accumulators — no
        intermediate lists, and each sum accumulates in the same order as
        the original per-quantity passes, so results are bit-identical.
        """
        records = self.records
        count = len(records)
        if count < 2:
            return records[-1].velocity
        t0 = records[0].timestamp
        span = records[-1].timestamp - t0
        if span <= 0:
            return records[-1].velocity
        sum_t = 0.0
        sum_x = 0.0
        sum_y = 0.0
        for record in records:
            sum_t += record.timestamp - t0
            location = record.location
            sum_x += location.x
            sum_y += location.y
        mean_t = sum_t / count
        mean_x = sum_x / count
        mean_y = sum_y / count
        denominator = 0.0
        num_x = 0.0
        num_y = 0.0
        for record in records:
            t_centred = (record.timestamp - t0) - mean_t
            denominator += t_centred ** 2
            location = record.location
            num_x += t_centred * (location.x - mean_x)
            num_y += t_centred * (location.y - mean_y)
        if denominator <= 0:
            return records[-1].velocity
        return Vector(num_x / denominator, num_y / denominator)

    def predict(self, at_time: float) -> PredictedState:
        """Dead-reckon the newest record forward (or backward) to ``at_time``."""
        newest = self.records[-1]
        velocity = self.fitted_velocity()
        dt = at_time - newest.timestamp
        location = Point(
            newest.location.x + velocity.dx * dt,
            newest.location.y + velocity.dy * dt,
        )
        return PredictedState(location=location, velocity=velocity, at_time=at_time)


class ViterbiSmoother:
    """Snap a noisy trajectory onto grid-cell centres with Viterbi decoding."""

    def __init__(
        self,
        world: BoundingBox = WORLD_UNIT_BOX,
        cell_level: int = 10,
        candidate_radius: int = 1,
        max_speed: float = 3.0,
        transition_weight: float = 1.0,
    ) -> None:
        if candidate_radius < 0:
            raise QueryError("candidate_radius must be non-negative")
        if max_speed <= 0:
            raise QueryError("max_speed must be positive")
        self.world = world
        self.cell_level = cell_level
        self.candidate_radius = candidate_radius
        self.max_speed = max_speed
        self.transition_weight = transition_weight

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def smooth(self, records: Sequence[LocationRecord]) -> List[Point]:
        """Most likely clean path (one point per input record)."""
        ordered = sorted(records, key=lambda record: record.timestamp)
        if not ordered:
            return []
        # Candidates for step i come from the neighbourhood of observation i
        # *and* of observation i-1: an outlier fix can then be "ignored" by
        # keeping the path near where the object previously was, instead of
        # being forced to jump to the outlier's neighbourhood.
        candidate_sets: List[List[Point]] = []
        for index, record in enumerate(ordered):
            candidates = self._candidates(record.location)
            if index > 0:
                seen = set(candidates)
                for carried in self._candidates(ordered[index - 1].location):
                    if carried not in seen:
                        seen.add(carried)
                        candidates.append(carried)
            candidate_sets.append(candidates)
        # Viterbi forward pass over (observation index, candidate index).
        costs = [
            [self._emission(ordered[0].location, candidate) for candidate in candidate_sets[0]]
        ]
        backpointers: List[List[int]] = [[0] * len(candidate_sets[0])]
        for index in range(1, len(ordered)):
            dt = max(ordered[index].timestamp - ordered[index - 1].timestamp, 1e-9)
            previous_costs = costs[-1]
            row_costs = []
            row_back = []
            for candidate in candidate_sets[index]:
                emission = self._emission(ordered[index].location, candidate)
                best_cost = math.inf
                best_prev = 0
                for prev_index, previous in enumerate(candidate_sets[index - 1]):
                    transition = self._transition(previous, candidate, dt)
                    total = previous_costs[prev_index] + transition + emission
                    if total < best_cost:
                        best_cost = total
                        best_prev = prev_index
                row_costs.append(best_cost)
                row_back.append(best_prev)
            costs.append(row_costs)
            backpointers.append(row_back)
        # Backtrack.
        path_indexes = [min(range(len(costs[-1])), key=costs[-1].__getitem__)]
        for index in range(len(ordered) - 1, 0, -1):
            path_indexes.append(backpointers[index][path_indexes[-1]])
        path_indexes.reverse()
        return [
            candidate_sets[step][candidate_index]
            for step, candidate_index in enumerate(path_indexes)
        ]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _candidates(self, observation: Point) -> List[Point]:
        """Centres of the observation's cell and its neighbourhood."""
        cell = CellId.from_point(observation, self.cell_level, self.world)
        candidates = [cell.center(self.world)]
        if self.candidate_radius > 0:
            for neighbor in cell.all_neighbors():
                candidates.append(neighbor.center(self.world))
        return candidates

    def _emission(self, observation: Point, candidate: Point) -> float:
        return observation.distance_to(candidate)

    def _transition(self, previous: Point, candidate: Point, dt: float) -> float:
        distance = previous.distance_to(candidate)
        allowed = self.max_speed * dt
        if distance <= allowed:
            return self.transition_weight * distance / max(allowed, 1e-9)
        # Implausibly fast transitions are penalised sharply but remain
        # finite so a path always exists.
        return self.transition_weight * (1.0 + (distance - allowed))
