import numpy as np
import pytest

from ssmcell.control import ModeKind
from ssmcell.engine import Event, EventKind, SimResult, detect_deadlock
from ssmcell.kpi import (
    IncompleteRunError,
    KpiError,
    KpiReport,
    comparison_table,
    cycle_time,
    flexibility_rate,
    oee,
    reaction_time,
    report,
)
from ssmcell.scenario import Scenario
from ssmcell.trace import TraceRow
from helpers import trace_from_rows


def row(t, fraction=1.0, mode=ModeKind.FULL, pending=True):
    return TraceRow(
        t=t,
        q=np.zeros(6),
        qdot=np.zeros(6),
        tcp=np.zeros(3),
        mode=mode,
        fraction=fraction,
        v_cap=fraction,
        pending=pending,
    )


def rows(n, dt=0.1, **kwargs):
    return [row(i * dt, **kwargs) for i in range(n)]


def make_trace(n, dt=0.1, **kwargs):
    return trace_from_rows(rows(n, dt, **kwargs))


NO_ROWS = trace_from_rows([])


class TestCycleTime:
    def test_single_cycle_direct_readout(self):
        events = [Event(120.0, EventKind.CYCLE_DONE, "cycle=0")]
        assert cycle_time(events) == 120.0

    def test_two_cycles_mean(self):
        events = [
            Event(100.0, EventKind.CYCLE_DONE, "cycle=0"),
            Event(240.0, EventKind.CYCLE_DONE, "cycle=1"),
        ]
        assert cycle_time(events) == pytest.approx(120.0)

    def test_incomplete_run_raises(self):
        with pytest.raises(IncompleteRunError):
            cycle_time([Event(1.0, EventKind.ZONE_ENTER, "zone=warning")])


class TestReactionTime:
    def test_simple_subtraction(self):
        events = [
            Event(10.000, EventKind.ZONE_ENTER, "zone=warning;human=0"),
            Event(10.004, EventKind.MODE_SWITCH, "mode=collaborative;fraction=0.5"),
        ]
        assert reaction_time(NO_ROWS, events) == pytest.approx(0.004)

    def test_zero_intrusions_undefined(self):
        assert reaction_time(NO_ROWS, []) is None

    def test_unanswered_intrusion_skipped(self):
        events = [
            Event(5.0, EventKind.ZONE_ENTER, "zone=danger;human=0"),
            Event(30.0, EventKind.MODE_SWITCH, "mode=full;fraction=1.0"),
        ]
        # the only switch is far outside the attribution window
        assert reaction_time(NO_ROWS, events) is None

    def test_mean_over_answered_intrusions(self):
        events = [
            Event(1.0, EventKind.ZONE_ENTER, "zone=warning;human=0"),
            Event(1.010, EventKind.MODE_SWITCH, "mode=collaborative;fraction=0.5"),
            Event(8.0, EventKind.ZONE_ENTER, "zone=danger;human=0"),
            Event(8.030, EventKind.MODE_SWITCH, "mode=standstill;fraction=0.0"),
        ]
        assert reaction_time(NO_ROWS, events) == pytest.approx(0.020)


class TestFlexibilityRate:
    def test_no_intrusions_full_rate(self):
        assert flexibility_rate(make_trace(100, fraction=1.0)) == 1.0

    def test_half_time_standstill(self):
        trace = trace_from_rows(
            rows(50, fraction=1.0)
            + [row(5.0 + i * 0.1, fraction=0.0, mode=ModeKind.STANDSTILL) for i in range(50)]
        )
        assert flexibility_rate(trace) == 0.5

    def test_only_pending_rows_count(self):
        trace = trace_from_rows(rows(10, fraction=0.0, pending=False) + rows(10, fraction=1.0))
        assert flexibility_rate(trace) == 1.0

    def test_collaborative_counts_as_productive(self):
        assert flexibility_rate(make_trace(10, fraction=0.5, mode=ModeKind.COLLABORATIVE)) == 1.0

    def test_reduced_below_half_not_productive(self):
        assert flexibility_rate(make_trace(10, fraction=0.3, mode=ModeKind.REDUCED)) == 0.0


class TestOee:
    def test_perfect_run(self):
        trace = make_trace(100, dt=1.0)
        events = [Event(100.0, EventKind.CYCLE_DONE, "cycle=0")]
        assert oee(trace, events, ideal_cycle=100.0) == pytest.approx(1.0)

    def test_availability_times_performance(self):
        trace = make_trace(100, dt=1.0)
        events = [
            Event(100.0, EventKind.CYCLE_DONE, "cycle=0"),
            Event(10.0, EventKind.DEADLOCK, "duration=10.0"),
        ]
        # availability 0.9, performance 0.8 -> 0.72
        assert oee(trace, events, ideal_cycle=80.0) == pytest.approx(0.72)

    def test_standstill_rows_are_not_downtime(self):
        # Only detected deadlock windows count against availability.
        trace = trace_from_rows(
            rows(50, dt=1.0)
            + [row(50.0 + i, fraction=0.0, mode=ModeKind.STANDSTILL) for i in range(50)]
        )
        events = [Event(100.0, EventKind.CYCLE_DONE, "cycle=0")]
        assert oee(trace, events, ideal_cycle=100.0) == pytest.approx(1.0)

    def test_missing_ideal_rejected(self):
        with pytest.raises(KpiError):
            oee(make_trace(10), [Event(1.0, EventKind.CYCLE_DONE, "cycle=0")], None)

    def test_performance_capped_at_one(self):
        trace = make_trace(100, dt=1.0)
        events = [Event(50.0, EventKind.CYCLE_DONE, "cycle=0")]
        assert oee(trace, events, ideal_cycle=500.0) == pytest.approx(1.0)


class TestOrderCanonical:
    def test_metrics_invariant_to_row_order(self):
        in_order = rows(40, fraction=1.0) + [
            row(4.0 + i * 0.1, fraction=0.0, mode=ModeKind.STANDSTILL) for i in range(20)
        ]
        trace, shuffled = trace_from_rows(in_order), trace_from_rows(in_order[::-1])
        assert flexibility_rate(shuffled) == flexibility_rate(trace)
        events = [
            Event(3.0, EventKind.CYCLE_DONE, "cycle=0"),
            Event(1.0, EventKind.ZONE_ENTER, "zone=warning;human=0"),
            Event(1.004, EventKind.MODE_SWITCH, "mode=collaborative;fraction=0.5"),
        ]
        assert cycle_time(events[::-1]) == cycle_time(events)
        assert reaction_time(trace, events[::-1]) == reaction_time(trace, events)


class TestReport:
    def test_counts_only_the_deadlocks_it_is_given(self):
        # 2 s of motion, then 8 s of pending standstill: a stall that
        # detect_deadlock flags, though the events hold no DEADLOCK.
        stalled = [row(2.0 + i * 0.1, fraction=0.0, mode=ModeKind.STANDSTILL) for i in range(80)]
        trace = trace_from_rows(rows(20) + stalled)
        assert detect_deadlock(trace, [], Scenario.stall_threshold)
        events = [Event(10.0, EventKind.CYCLE_DONE, "cycle=0")]
        result = SimResult(Scenario(), None, trace, events)
        ideal = 4.0
        assert report(result, ideal_cycle=ideal).oee == min(1.0, ideal / cycle_time(events))
        assert result.events == events


class TestReportShape:
    def test_rates_bounded(self):
        with pytest.raises(KpiError):
            KpiReport("x", 10.0, None, 1.5, 0.5)
        with pytest.raises(KpiError):
            KpiReport("x", 10.0, None, 0.5, -0.1)

    def test_comparison_table_lists_all_modes(self):
        reports = [
            KpiReport("autonomous", 60.0, None, 1.0, 0.4),
            KpiReport("traditional", 34.0, 0.016, 0.7, 0.49),
            KpiReport("proposed", 24.0, 0.022, 1.0, 0.97),
        ]
        table = comparison_table(reports)
        for token in ("autonomous", "traditional", "proposed", "undefined", "cycle_time_s"):
            assert token in table
