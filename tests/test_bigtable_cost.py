"""Tests for the cost model and operation counter."""

from dataclasses import fields

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bigtable.cost import CostModel, OpCounter, OpKind
from repro.errors import ConfigurationError


def cost_of(model, kind, rows=1):
    """What one call of ``kind`` over ``rows`` rows costs: the simulated
    seconds a fresh ledger on ``model`` charges for it."""
    return OpCounter(model).record(kind, rows)


class TestCostModel:
    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel(read_rpc=-1.0)

    def test_invalid_contention_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel(write_contention_factor=0.0)

    def test_point_costs(self):
        model = CostModel()
        assert cost_of(model, OpKind.READ) == model.read_rpc
        assert cost_of(model, OpKind.WRITE) == model.write_rpc
        assert cost_of(model, OpKind.DELETE) == model.delete_rpc

    def test_scan_cost_scales_with_rows(self):
        model = CostModel()
        assert cost_of(model, OpKind.SCAN, rows=10) > cost_of(model, OpKind.SCAN, rows=1)
        assert cost_of(model, OpKind.SCAN, rows=10) == pytest.approx(
            model.scan_rpc + 10 * model.scan_row
        )

    def test_batch_rows_cheaper_than_point_ops(self):
        """Batch reads amortise the RPC: N rows in one batch cost less than N
        point reads — the property that makes the clustering pass viable."""
        model = CostModel()
        n = 50
        assert cost_of(model, OpKind.BATCH_READ, rows=n) < n * cost_of(model, OpKind.READ)
        assert cost_of(model, OpKind.BATCH_WRITE, rows=n) < n * cost_of(model, OpKind.WRITE)

    def test_write_contention_scales_writes_only(self):
        plain = CostModel()
        contended = CostModel(write_contention_factor=2.0)
        assert cost_of(contended, OpKind.WRITE) == pytest.approx(2 * cost_of(plain, OpKind.WRITE))
        assert cost_of(contended, OpKind.READ) == cost_of(plain, OpKind.READ)

    def test_unknown_per_row_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            cost_of(CostModel(), OpKind.SCAN_ROW)


class TestOpCounter:
    def test_record_accumulates_time_and_counts(self):
        counter = OpCounter()
        cost = counter.record(OpKind.READ)
        assert cost > 0
        assert counter.counts[OpKind.READ] == 1
        assert counter.simulated_seconds == pytest.approx(cost)

    def test_read_and_write_seconds_split(self):
        counter = OpCounter()
        counter.record(OpKind.READ)
        counter.record(OpKind.WRITE)
        counter.record(OpKind.SCAN, rows=5)
        counter.record(OpKind.BATCH_WRITE, rows=5)
        assert counter.read_seconds > 0
        assert counter.write_seconds > 0
        assert counter.simulated_seconds == pytest.approx(
            counter.read_seconds + counter.write_seconds
        )

    def test_rows_touched(self):
        counter = OpCounter()
        counter.record(OpKind.SCAN, rows=7)
        counter.record(OpKind.SCAN, rows=3)
        assert counter.rows.get(OpKind.SCAN, 0) == 10
        assert counter.counts[OpKind.SCAN] == 2

    def test_total_calls(self):
        counter = OpCounter()
        counter.record(OpKind.READ)
        counter.record(OpKind.WRITE)
        assert counter.total_calls() == 2

    def test_reset(self):
        counter = OpCounter()
        counter.record(OpKind.READ)
        counter.reset()
        assert counter.total_calls() == 0
        assert counter.simulated_seconds == 0.0

    def test_snapshot_delta(self):
        counter = OpCounter()
        counter.record(OpKind.READ)
        first = counter.snapshot()
        counter.record(OpKind.WRITE)
        counter.record(OpKind.READ)
        delta = counter.snapshot().delta(first)
        assert delta.counts[OpKind.READ] == 1
        assert delta.counts[OpKind.WRITE] == 1
        assert delta.simulated_seconds > 0

    def test_snapshot_is_immutable_view(self):
        counter = OpCounter()
        counter.record(OpKind.READ)
        snapshot = counter.snapshot()
        counter.record(OpKind.READ)
        assert snapshot.counts[OpKind.READ] == 1


# ----------------------------------------------------------------------
# The one-call entry points against the call sequences they replace
# ----------------------------------------------------------------------
STANDARD_KINDS = [
    OpKind.READ, OpKind.WRITE, OpKind.DELETE, OpKind.SCAN,
    OpKind.BATCH_READ, OpKind.BATCH_WRITE, OpKind.CACHE_READ,
]


def reference_point(shared, tablet, kind):
    shared.record(kind)
    tablet.record(kind)


def reference_group(shared, pending):
    totals = {}
    for (ledger, kind), calls in pending.items():
        ledger.record_many(kind, calls)
        totals[kind] = totals.get(kind, 0) + calls
    for kind, calls in totals.items():
        shared.record_many(kind, calls)


def reference_syncs(shared, appended):
    for tablet, rows in appended.items():
        shared.record_durability(OpKind.LOG_APPEND, rows=rows)
        tablet.record_durability(OpKind.LOG_APPEND, rows=rows)


def reference_scan(shared, charges):
    """A scan as the scanner charged it before ``record_scan``: the shared
    ledger's totals, then each tablet's ``(ledger, cold, warm)`` share."""
    cold_total = sum(cold for _, cold, _ in charges)
    warm_total = sum(warm for _, _, warm in charges)
    shared.record(OpKind.SCAN, rows=cold_total if cold_total + warm_total > 0 else 1)
    if warm_total > 0:
        shared.record(OpKind.CACHE_READ, rows=warm_total)
    for ledger, cold, warm in charges:
        ledger.record(OpKind.SCAN, rows=cold if cold + warm > 0 else 1)
        if warm > 0:
            ledger.record(OpKind.CACHE_READ, rows=warm)


def reference_batch_read(shared, total, ledgers, rows):
    shared.record(OpKind.BATCH_READ, rows=total)
    for ledger, count in zip(ledgers, rows):
        ledger.record(OpKind.BATCH_READ, rows=count)


def ledger_view(counter):
    """Every field, dicts with their key order, floats by their bits."""
    view = {}
    for name in (spec.name for spec in fields(counter)):
        value = getattr(counter, name)
        if isinstance(value, dict):
            value = list(value.items())
        elif isinstance(value, float):
            value = value.hex()
        view[name] = value
    return view


class LoggedCounter(OpCounter):
    """A ledger that appends ``(its number, new value)`` to ``log`` at
    every assignment of its simulated seconds: one log for all the ledgers
    of a program is the order they were charged in, across ledgers."""

    def __init__(self, model, log, number):
        self.log, self.number = None, number
        super().__init__(model=model)
        self.log = log

    def __setattr__(self, name, value):
        if name == "simulated_seconds" and self.log is not None:
            self.log.append((self.number, value.hex()))
        super().__setattr__(name, value)


def run_program(program, model, tablets, one_call):
    """Each ledger's view, shared first, then the log of charge order."""
    log = []
    shared = LoggedCounter(model, log, "shared")
    ledgers = [LoggedCounter(model, log, index) for index in range(tablets)]
    for op, arguments in program:
        if op == "point":
            index, kind = arguments
            if one_call:
                shared.record_point(ledgers[index], kind)
            else:
                reference_point(shared, ledgers[index], kind)
        elif op == "group":
            # A group commit's pending dict: insertion order is charge order.
            pending = {}
            for index, kind, calls in arguments:
                key = (ledgers[index], kind)
                pending[key] = pending.get(key, 0) + calls
            if one_call:
                shared.record_group(pending)
            else:
                reference_group(shared, pending)
        elif op == "scan":
            charges = [(ledgers[index], cold, warm) for index, cold, warm in arguments]
            if one_call:
                shared.record_scan(charges)
            else:
                reference_scan(shared, charges)
        elif op == "batch_read":
            # The tablets a batch read routes to, first seen first, each once.
            total, shares = arguments
            counts = {}
            for index, rows in shares:
                counts[ledgers[index]] = counts.get(ledgers[index], 0) + rows
            tablet_ledgers, rows = list(counts), list(counts.values())
            if one_call:
                shared.record_batch_read(total, tablet_ledgers, rows)
            else:
                reference_batch_read(shared, total, tablet_ledgers, rows)
        else:
            appended = {}
            for index, rows in arguments:
                appended[ledgers[index]] = appended.get(ledgers[index], 0) + rows
            if one_call:
                shared.record_syncs(appended)
            else:
                reference_syncs(shared, appended)
    return [ledger_view(ledger) for ledger in [shared] + ledgers] + [log]


TABLETS = 4
_tablet = st.integers(0, TABLETS - 1)
_kind = st.sampled_from(STANDARD_KINDS)
PROGRAMS = st.lists(
    st.one_of(
        st.tuples(st.just("point"), st.tuples(_tablet, _kind)),
        st.tuples(
            st.just("group"),
            st.lists(st.tuples(_tablet, _kind, st.integers(1, 300)), max_size=6),
        ),
        st.tuples(
            st.just("syncs"),
            st.lists(st.tuples(_tablet, st.integers(1, 300)), max_size=6),
        ),
        # A tablet's (cold, warm) rows: zero-row probes and warm-only
        # tablets included.
        st.tuples(
            st.just("scan"),
            st.lists(
                st.tuples(
                    _tablet,
                    st.one_of(st.just(0), st.integers(1, 300)),
                    st.one_of(st.just(0), st.integers(1, 300)),
                ),
                max_size=6,
            ),
        ),
        st.tuples(
            st.just("batch_read"),
            st.tuples(
                st.integers(1, 600),
                st.lists(st.tuples(_tablet, st.integers(1, 300)), max_size=6),
            ),
        ),
    ),
    max_size=25,
)

#: Tablet 0 all cold, 1 warm-only, 2 a zero-row probe, 3 both; a scan
#: nothing answered; a batch read over three tablets.
SCAN_SHAPES = [
    ("scan", [(0, 4, 0), (1, 0, 9), (2, 0, 0), (3, 5, 6)]),
    ("scan", [(2, 0, 0)]),
    ("scan", [(1, 0, 3)]),
    ("batch_read", (7, [(3, 2), (0, 4), (3, 1)])),
]
READ_THEN_WRITE = [("group", [(0, OpKind.READ, 3), (0, OpKind.WRITE, 7), (1, OpKind.READ, 2)])]
WRITE_THEN_READ = [("group", [(0, OpKind.WRITE, 7), (0, OpKind.READ, 3), (1, OpKind.READ, 2)])]


class TestOneCallEntryPoints:
    @settings(max_examples=200, deadline=None)
    @given(program=PROGRAMS, factor=st.sampled_from([1.0, 1.7]))
    @example(program=READ_THEN_WRITE, factor=1.0)
    @example(program=WRITE_THEN_READ, factor=1.0)
    @example(program=SCAN_SHAPES, factor=1.0)
    def test_bit_identical_to_the_call_sequence(self, program, factor):
        model = CostModel(write_contention_factor=factor)
        assert run_program(program, model, TABLETS, True) == run_program(
            program, model, TABLETS, False
        )

    @pytest.mark.parametrize("program", [READ_THEN_WRITE, WRITE_THEN_READ])
    def test_kind_order_is_kept_per_ledger(self, program):
        # After a warm-up that leaves every float total non-zero, a tablet
        # charged READ then WRITE must keep that order, and WRITE then READ
        # its own: sorting or merging the kinds shows in key order.
        warm_up = [("point", (0, OpKind.SCAN)), ("point", (1, OpKind.DELETE))]
        model = CostModel()
        ours = run_program(warm_up + program, model, 2, True)
        assert ours == run_program(warm_up + program, model, 2, False)
        first, second = program[0][1][0][1], program[0][1][1][1]
        assert [kind for kind, _ in ours[1]["counts"]] == [OpKind.SCAN, first, second]
        assert [kind for kind, _ in ours[0]["counts"]][1:] == [OpKind.DELETE, first, second]

    def test_durability_kinds_are_refused(self):
        shared, tablet = OpCounter(), OpCounter()
        with pytest.raises(ConfigurationError):
            shared.record_point(tablet, OpKind.LOG_APPEND)
        with pytest.raises(ConfigurationError):
            shared.record_group({(tablet, OpKind.COMPACTION_WRITE): 1})
        assert ledger_view(shared) == ledger_view(tablet) == ledger_view(OpCounter())
