"""The closed-loop client: calibrated timing, output checks, one measured pass.

One client, next call sent when the previous one returns.  Every timed call
is bracketed by a fixed piece of reference work (the *spin*); the call's
*calibrated* time is its wall time scaled by how much slower than the
reference the spin ran around it, so a noisy neighbour that slows the host by
30 % for two seconds moves the spin and the call together and drops out of the
ratio.  Raw wall seconds and the mean factor are always reported beside the
calibrated values.
"""

from __future__ import annotations

import array
import gc
import hashlib
import heapq
import math
import os
import shutil
import statistics
import sys
from time import perf_counter
from typing import Dict, List, Optional

#: What one spin takes on the sizing host when it is quiet; the unit
#: "calibrated seconds" are expressed in.
SPIN_REFERENCE_S = 0.0020
#: A spin older than this is not reused as the next call's "before" sample.
_SPIN_STALE_S = 0.0005


class Calibrator:
    """The reference work the client times around every call.

    A dependent-load walk, ``i = table[i]``, around one 32 MiB cycle: every
    step waits for memory far outside the cache, which is what an interpreter
    chasing pointers through a 150 MiB heap does too.  Measured over 24
    fresh-process runs of ``mixed_rw`` while the host was noisy (raw wall cv
    10.5 %), dividing by this walk left cv 5.7 %; dividing by a register-only
    loop (``x += i*i % 7``), which a neighbour barely slows, left 8.8 %.  A
    walk over a 300 000-entry dict of objects did as well but its reference
    counts turn every page copy-on-write once workers are forked.

    The cycle is a full-period linear congruence over 2**22 slots (odd
    increment, multiplier = 1 mod 4), so consecutive slots are far apart and
    building it takes no shuffle.  ``footprint_kib`` is the table's size, so
    ``peak_rss_mb`` can leave it out.
    """

    SLOTS = 1 << 22
    STEPS = 12_000

    def __init__(self) -> None:
        mask = self.SLOTS - 1
        self._table = array.array(
            "l", ((2_891_336_453 * slot + 12_345) & mask for slot in range(self.SLOTS))
        )
        self._slot = 0
        self.footprint_kib = self._table.itemsize * self.SLOTS // 1024

    def spin(self) -> float:
        table = self._table
        slot = self._slot
        begun = perf_counter()
        for _ in range(self.STEPS):
            slot = table[slot]
        elapsed = perf_counter() - begun
        self._slot = slot
        return elapsed


class Sample:
    __slots__ = ("kind", "round", "wall", "factor", "ops")

    def __init__(self, kind: str, round_index: int, wall: float, factor: float, ops: int):
        self.kind = kind
        self.round = round_index
        self.wall = wall
        self.factor = factor
        self.ops = ops

    @property
    def cal(self) -> float:
        return self.wall * self.factor


class Client:
    """Issues the calls, times them, counts operations and failures."""

    def __init__(self, calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        #: Set by ``run_pass`` for the timed section of a traced pass.
        self.tracer = None
        self.samples: List[Sample] = []
        self.round = -1
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self._spin_value = 0.0
        self._spin_end = -1.0

    def _fresh_spin(self) -> float:
        if perf_counter() - self._spin_end > _SPIN_STALE_S:
            self._spin_value = self.calibrator.spin()
        return self._spin_value

    def call(self, kind: str, ops: int, function, *args):
        """Time ``function(*args)``; a raise fails all ``ops`` operations."""
        before = self._fresh_spin()
        tracer = self.tracer
        result = None
        if tracer is not None:
            tracer.begin_call(len(self.samples), kind)
        start = perf_counter()
        try:
            result = function(*args)
        except Exception as exc:  # the benchmark must report, not die
            self.fail(ops, f"{kind} raised {type(exc).__name__}: {exc}")
        end = perf_counter()
        after = self._spin_value = self.calibrator.spin()
        self._spin_end = perf_counter()
        factor = SPIN_REFERENCE_S / ((before + after) / 2.0)
        if tracer is not None:
            tracer.end_call(kind, start, end, factor)
        self.samples.append(Sample(kind, self.round, end - start, factor, ops))
        self.attempted += ops
        return result

    def fail(self, ops: int, reason: str) -> None:
        self.failed += ops
        if len(self.errors) < 5:
            self.errors.append(reason)
            print(f"moistbench: FAILED: {reason}", file=sys.stderr)

    def expect(self, condition: bool, ops: int, reason: str) -> None:
        if not condition:
            self.fail(max(int(ops), 1), reason)

    # -- read-out ------------------------------------------------------------
    def cal_seconds(self, kinds, first: int = 0) -> float:
        return sum(s.cal for s in self.samples[first:] if s.kind in kinds)


class Checker:
    """Output fingerprint plus the per-answer checks."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self.neighbours = 0

    def note(self, label: str, value) -> None:
        self._sha.update(f"{label}={value!r};".encode())

    def answers(self, client: Client, queries, answers, positions) -> None:
        """Every query must return ``k`` neighbours in distance order; the
        first of the batch is also checked against a brute-force scan when
        the client has a model of the positions."""
        if answers is None:
            return
        parts = []
        short = unordered = 0
        for query, answer in zip(queries, answers):
            if len(answer) < query.k:
                short += 1
            if any(a.distance > b.distance for a, b in zip(answer, answer[1:])):
                unordered += 1
            self.neighbours += len(answer)
            parts.append(",".join(f"{n.object_id}:{n.distance!r}" for n in answer))
        self._sha.update(("|".join(parts) + ";").encode())
        client.expect(len(answers) == len(queries), len(queries) - len(answers),
                      "query batch returned fewer answers than queries")
        client.expect(short == 0, short, "NN query returned fewer than k neighbours")
        client.expect(unordered == 0, unordered, "NN answer out of distance order")
        if positions:
            query, answer = queries[0], answers[0]
            qx, qy = query.location.x, query.location.y
            nearest = heapq.nsmallest(
                query.k,
                ((math.hypot(x - qx, y - qy), object_id)
                 for object_id, (x, y) in positions.items()),
            )
            same = len(nearest) == len(answer) and all(
                want_id == got.object_id and abs(want - got.distance) <= 1e-9
                for (want, want_id), got in zip(nearest, answer)
            )
            client.expect(same, 1, "NN answer differs from the brute-force scan")

    def digest(self) -> str:
        return self._sha.hexdigest()


class Pass:
    """Everything one measured pass produced."""

    def __init__(self) -> None:
        self.client: Optional[Client] = None
        self.setup_s: List[float] = []
        self.timed_first = 0
        self.rounds = 0
        self.fingerprint = ""
        #: Simulated clock of the kept system and the operations it served,
        #: preload included (the busiest server sets the makespan, so the
        #: timed section alone has no simulated duration of its own).
        self.sim_seconds = 0.0
        self.sim_ops = 0
        self.generate_s = 0.0
        self.neighbours = 0
        #: Growth of the storage directory over the timed section.
        self.disk_growth_bytes = 0
        self.counters: Dict[str, Optional[float]] = {}

    # The timed section is everything the client did after the last set-up.
    def timed(self, kind: Optional[str] = None) -> List[Sample]:
        samples = self.client.samples[self.timed_first:]
        return samples if kind is None else [s for s in samples if s.kind == kind]

    def round_cal_ms(self) -> List[float]:
        totals: Dict[int, float] = {}
        for sample in self.timed():
            totals[sample.round] = totals.get(sample.round, 0.0) + sample.cal
        return [1000.0 * totals[index] for index in sorted(totals)]

    def ops(self, kind: Optional[str] = None) -> int:
        return sum(s.ops for s in self.timed(kind))

    def cal_s(self, kind: Optional[str] = None) -> float:
        return sum(s.cal for s in self.timed(kind))

    def raw_s(self) -> float:
        return sum(s.wall for s in self.timed())

    def cal_factor(self) -> float:
        samples = self.timed()
        return statistics.fmean(s.factor for s in samples) if samples else 1.0


def run_pass(workload, rounds: int, work_root: str, calibrator: Calibrator,
             setups: int = 1, tracer=None, collect=None) -> Pass:
    """Set the system up ``setups`` times (the last one is kept), then run
    ``rounds`` rounds against it.  ``collect(workload, system, work_dir)``
    reads layer counters off the live system before it is closed."""
    outcome = Pass()
    client = outcome.client = Client(calibrator)
    check = Checker()
    started = perf_counter()
    setup_inputs = workload.setup_inputs()
    outcome.generate_s += perf_counter() - started
    system = None
    work_dir = ""
    try:
        for attempt in range(setups):
            if system is not None:
                workload.close(system)
                system = None
                shutil.rmtree(work_dir, ignore_errors=True)
            gc.collect()
            work_dir = os.path.join(work_root, f"work-{os.getpid()}-{attempt}")
            os.makedirs(work_dir, exist_ok=True)
            first = len(client.samples)
            system = workload.build(client, setup_inputs, work_dir)
            if system is None:
                raise RuntimeError("set-up failed: " + "; ".join(client.errors))
            outcome.setup_s.append(client.cal_seconds(("build", "preload"), first))
        del setup_inputs
        outcome.timed_first = len(client.samples)
        disk_before = dir_bytes(work_dir)
        gc.collect()
        # A full collection of these heaps takes 0.3-0.6 s, and whether the
        # allocation count trips one more of them inside the timed section
        # depends on the seed: +-1 event is +-7 % of a run.  So automatic
        # *full* collections are held off while timing (young ones still
        # run), and the client runs one itself at each quarter of the run,
        # timed like any other call and charged to the run.
        thresholds = gc.get_threshold()
        gc.set_threshold(thresholds[0], thresholds[1], 1 << 30)
        collect_every = max(rounds // 4, 1)
        if tracer is not None:
            client.tracer = tracer
            tracer.install()
        try:
            for index in range(rounds):
                started = perf_counter()
                inputs = workload.round_inputs(index)
                outcome.generate_s += perf_counter() - started
                client.round = index
                workload.run_round(system, index, inputs, client, check)
                if (index + 1) % collect_every == 0:
                    client.call("gc", 0, gc.collect)
        finally:
            gc.set_threshold(*thresholds)
            if tracer is not None:
                tracer.uninstall()
                client.tracer = None
        outcome.rounds = rounds
        outcome.sim_seconds = workload.sim_clock(system)
        outcome.sim_ops = sum(sample.ops for sample in client.samples[first:])
        check.note("sim_seconds", outcome.sim_seconds)
        workload.finish(system, check)
        outcome.fingerprint = check.digest()
        outcome.neighbours = check.neighbours
        outcome.disk_growth_bytes = dir_bytes(work_dir) - disk_before
        if collect is not None:
            outcome.counters.update(collect(workload, system, work_dir))
    finally:
        if system is not None:
            workload.close(system)
        shutil.rmtree(work_dir, ignore_errors=True)
    return outcome


def dir_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total
