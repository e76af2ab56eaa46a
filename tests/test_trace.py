"""The columnar trace: row access, column access and conversion from rows."""

import dataclasses
import inspect

import numpy as np
import pytest

from ssmcell.control import COLLABORATIVE_FRACTION, CommandSource, ModeKind
from ssmcell.engine import EventKind, detect_deadlock, run
from ssmcell.kpi import flexibility_rate, oee
from ssmcell.scenario import SimMode
from ssmcell.trace import SCHEMA, Trace, TraceRow
from ssmcell.tracefile import TRACE_COLUMNS, emit_profile_data
from ssmcell.zones import Zone
from helpers import (
    bundled,
    oracle_deadlocks,
    oracle_profile_intervals,
    tiny_scenario,
    trace_from_rows,
)


@pytest.fixture(scope="module")
def stalled_result():
    """Traditional mode with a parked operator: long standstills and a deadlock."""
    return run(tiny_scenario(mode=SimMode.TRADITIONAL))


def fields(row):
    return {f.name: getattr(row, f.name) for f in SCHEMA}


def same_row(a, b):
    for name, value in fields(a).items():
        other = getattr(b, name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(value.view(np.int64), other.view(np.int64)), name
        else:
            assert repr(value) == repr(other), name


class TestSchema:
    def test_one_table_names_every_column(self):
        assert TRACE_COLUMNS[:3] == ("t", "q1", "q2")
        assert len(TRACE_COLUMNS) == 32
        assert list(TraceRow._fields) == [f.name for f in SCHEMA]

    def test_record_takes_the_schema_fields_in_order(self):
        # record writes each block row in one assignment, in SCHEMA's order.
        params = list(inspect.signature(Trace.record).parameters)
        assert params == ["self", "i", *(f.name for f in SCHEMA)]
        values = {}
        for k, f in enumerate(SCHEMA):
            if f.codes is not None:
                values[f.name] = f.codes.values[k % len(f.codes.values)]
            else:
                values[f.name] = np.arange(len(f.headers)) + k if f.headers else float(k)
        trace = Trace.empty(2)
        trace.record(1, **values)
        row = trace[1]
        for f in SCHEMA:
            got, want = getattr(row, f.name), values[f.name]
            assert np.array_equal(got, want) if f.headers else got == want, f.name

    def test_row_defaults(self):
        row = TraceRow(t=0.0, q=np.zeros(6), qdot=np.zeros(6), tcp=np.zeros(3))
        assert row.pending is True and row.damped is False
        assert row.mode == ModeKind.FULL and row.occ_left == Zone.NORMAL
        assert row.source == CommandSource.PRIMARY_LOOP and row.d_i == float("inf")


class TestRowAccess:
    def test_index_slice_iterate(self, stalled_result):
        trace = stalled_result.trace
        rows = list(trace)
        assert len(rows) == len(trace)
        same_row(trace[-1], rows[-1])
        same_row(trace[5], rows[5])
        tail = trace[10:20:3]
        assert isinstance(tail, Trace) and len(tail) == 4
        same_row(tail[1], rows[13])
        with pytest.raises(IndexError):
            trace[len(trace)]

    def test_rows_do_not_alias_the_columns(self, stalled_result):
        row = stalled_result.trace[3]
        before = stalled_result.trace.floats[3].copy()
        row.q[:] = 99.0
        assert np.array_equal(stalled_result.trace.floats[3], before)

    def test_from_rows_rebuilds_the_columns(self, stalled_result):
        trace = stalled_result.trace
        back = trace_from_rows([r._replace() for r in trace])
        assert np.array_equal(back.floats.view(np.int64), trace.floats.view(np.int64))
        assert np.array_equal(back.codes, trace.codes)

    def test_columns_match_rows(self, stalled_result):
        trace = stalled_result.trace
        rows = list(trace)
        assert trace.values("t") == [r.t for r in rows]
        assert trace.values("mode") == [r.mode for r in rows]
        assert np.array_equal(trace.column("q"), np.array([r.q for r in rows]))
        pending = trace.mask("pending", True)
        assert pending.tolist() == [r.pending for r in rows]
        stalled = trace.mask("mode", ModeKind.STANDSTILL)
        assert stalled.any()
        assert stalled.tolist() == [r.mode == ModeKind.STANDSTILL for r in rows]


class TestColumnarConsumersMatchRowLoops:
    def test_deadlocks(self, stalled_result):
        trace = stalled_result.trace
        found = detect_deadlock(trace, stalled_result.events, 5.0)
        assert found
        expected = oracle_deadlocks(trace, 5.0)
        assert [(e.t, e.payload) for e in found] == [
            (start, f"duration={end - start!r}") for start, end in expected
        ]
        assert all(e.kind == EventKind.DEADLOCK and type(e.t) is float for e in found)

    def test_deadlock_running_to_the_end(self, stalled_result):
        rows = list(stalled_result.trace)
        tail = [r._replace(mode=ModeKind.STANDSTILL) for r in rows[-3000:]]
        stalled = rows[:-3000] + tail
        found = detect_deadlock(trace_from_rows(stalled), [], 1.0)
        expected = oracle_deadlocks(stalled, 1.0)
        assert expected[-1][1] == rows[-1].t + (rows[1].t - rows[0].t)
        assert [(e.t, e.payload) for e in found] == [
            (s, f"duration={e - s!r}") for s, e in expected
        ]

    def test_kpis_on_rows_and_columns_agree(self, stalled_result):
        rows = list(stalled_result.trace)
        dt = rows[1].t - rows[0].t
        # a pending standstill that a deadlock event reports, so availability loses its time
        rows = [
            r._replace(mode=ModeKind.STANDSTILL) if 100 <= i < 137 else r
            for i, r in enumerate(rows)
        ]
        downtime = 37 * dt
        trace = trace_from_rows(rows)
        events = [dataclasses.replace(e) for e in stalled_result.events]
        events.append(type(events[0])(11.0, EventKind.CYCLE_DONE, "cycle=0"))
        events.append(type(events[0])(rows[100].t, EventKind.DEADLOCK, f"duration={downtime!r}"))
        pending = [r for r in rows if r.pending]
        productive = sum(r.fraction >= COLLABORATIVE_FRACTION - 1e-12 for r in pending)
        assert flexibility_rate(trace) == productive / len(pending)
        planned = len(pending) * dt
        assert downtime > 0
        expected = max(0.0, min(1.0, (planned - downtime) / planned)) * min(1.0, 5.0 / 11.0)
        assert oee(trace, events, 5.0) == expected

    def test_profile_intervals(self, tmp_path):
        trace = run(dataclasses.replace(bundled("approach_retreat"), duration=3.0)).trace
        path = tmp_path / "profile.csv"
        emit_profile_data(trace, path)
        found = [
            line.split(",")[1:]
            for line in path.read_text().splitlines()
            if line.startswith("# interval")
        ]
        expected = oracle_profile_intervals(trace)
        assert len(expected) > 1
        assert found == [[z.name.lower(), repr(a), repr(b)] for a, b, z in expected]


class TestMemory:
    def test_run_trace_keeps_at_most_300_bytes_per_row(self):
        import gc
        import tracemalloc

        scenario = tiny_scenario(duration=2.0)
        run(scenario)  # warm caches that outlive the run
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kept = run(scenario).trace
            gc.collect()
            used = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(kept) == 1000
        assert used / len(kept) <= 300
