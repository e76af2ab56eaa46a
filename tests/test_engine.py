import dataclasses
import math
import time

import numpy as np
import pytest

from ssmcell import kpi, perception
from ssmcell.control import NOMINAL_SPEED, Controller, ModeKind
from ssmcell.engine import (
    Event,
    EventKind,
    detect_deadlock,
    ideal_cycle_time,
    nominal_task_duration,
    run,
    run_benchmark,
)
from ssmcell.perception import Posture
from ssmcell.scenario import (
    HumanScript,
    HumanWaypoint,
    RobotTask,
    SimMode,
    TaskStep,
)
from ssmcell.tracefile import trace_lines
from helpers import bundled, tiny_scenario
from ssmcell.zones import Zone


@pytest.fixture(scope="module")
def approach_result():
    return run(bundled("approach_retreat"))




class TestBasicContracts:
    def test_empty_script_full_speed_no_safety_events(self):
        scenario = tiny_scenario(humans=())
        result = run(scenario)
        assert {r.fraction for r in result.trace} == {1.0}
        safety = {EventKind.ZONE_ENTER, EventKind.ZONE_EXIT, EventKind.MODE_SWITCH, EventKind.ESTOP}
        assert [e for e in result.events if e.kind in safety] == []

    @pytest.mark.parametrize("overrides", [dict(humans=()), dict(mode=SimMode.AUTONOMOUS)])
    def test_nothing_to_see_offers_normal_scans_without_casting(self, overrides, monkeypatch):
        offered = []
        offer = Controller.offer_scan

        def record(self, t, left, right):
            offered.append((t, left, right))
            offer(self, t, left, right)

        def no_cast(*args, **kwargs):
            raise AssertionError("cast a scan with no human to see")

        monkeypatch.setattr(Controller, "offer_scan", record)
        monkeypatch.setattr(perception, "simulate_scan", no_cast)
        run(tiny_scenario(duration=1.0, noise=0.005, seed=3, **overrides))
        # Ticks 0 .. 0.998 s take the scans at 0, 0.03, ..., 0.99 s.
        normal = [(j * perception.SCAN_PERIOD, Zone.NORMAL, Zone.NORMAL) for j in range(34)]
        assert offered == normal

    def test_trace_row_count_exact(self):
        scenario = tiny_scenario(duration=7.0)
        result = run(scenario)
        assert len(result.trace) == round(7.0 / scenario.control_period)

    def test_rows_on_control_grid(self):
        result = run(tiny_scenario(duration=3.0))
        dt = 0.002
        for i, row in enumerate(result.trace[:100]):
            assert row.t == pytest.approx(i * dt, abs=1e-12)

    def test_determinism_same_seed(self):
        scenario = tiny_scenario(duration=5.0)
        a = run(scenario)
        b = run(scenario)
        for ra, rb in zip(a.trace, b.trace):
            assert ra.t == rb.t and np.array_equal(ra.q, rb.q) and ra.fraction == rb.fraction
        assert a.events == b.events


class TestZoneEvents:
    def test_enter_exit_nesting(self, approach_result):
        depth = {Zone.WARNING: 0, Zone.DANGER: 0}
        for e in approach_result.events:
            if e.kind not in (EventKind.ZONE_ENTER, EventKind.ZONE_EXIT):
                continue
            zone = Zone[dict(p.split("=") for p in e.payload.split(";"))["zone"].upper()]
            depth[zone] += 1 if e.kind == EventKind.ZONE_ENTER else -1
            assert depth[zone] in (0, 1)
        assert depth == {Zone.WARNING: 0, Zone.DANGER: 0}

    def test_walkthrough_sequence(self, approach_result):
        wanted = [
            (EventKind.ZONE_ENTER, "warning"),
            (EventKind.MODE_SWITCH, "collaborative"),
            (EventKind.MODE_SWITCH, "reduced"),
            (EventKind.ZONE_ENTER, "danger"),
            (EventKind.MODE_SWITCH, "standstill"),
            (EventKind.ZONE_EXIT, "danger"),
            (EventKind.MODE_SWITCH, "collaborative"),
            (EventKind.ZONE_EXIT, "warning"),
            (EventKind.MODE_SWITCH, "full"),
        ]
        it = iter(approach_result.events)
        for kind, token in wanted:
            for e in it:
                if e.kind == kind and token in e.payload:
                    break
            else:
                pytest.fail(f"missing {kind} {token}")

    def test_human_retreat_recovers_fraction(self, approach_result):
        trace = approach_result.trace
        assert min(r.fraction for r in trace) == 0.0
        assert trace[-1].fraction == 1.0


class TestDeadlock:
    def test_traditional_parked_operator_deadlocks(self):
        result = run(tiny_scenario(mode=SimMode.TRADITIONAL))
        events = detect_deadlock(result.trace, result.events, 5.0)
        assert len(events) >= 1
        assert all(e.kind == EventKind.DEADLOCK for e in events)

    def test_proposed_same_scene_no_deadlock(self):
        result = run(tiny_scenario(mode=SimMode.PROPOSED))
        assert detect_deadlock(result.trace, result.events, 5.0) == []

    def test_infinite_threshold_empty(self):
        result = run(tiny_scenario(mode=SimMode.TRADITIONAL))
        assert detect_deadlock(result.trace, result.events, math.inf) == []

    def test_deadlock_blocks_task_completion_in_traditional(self):
        result = run(tiny_scenario(mode=SimMode.TRADITIONAL))
        done_traditional = [e for e in result.events if e.kind == EventKind.CYCLE_DONE]
        assert done_traditional == []  # parked human keeps the quadrant-blind robot stalled
        proposed = run(tiny_scenario(mode=SimMode.PROPOSED))
        assert [e for e in proposed.events if e.kind == EventKind.CYCLE_DONE]


@pytest.fixture(scope="module")
def results():
    scenario = tiny_scenario(
        humans=(
            HumanScript(
                waypoints=(
                    HumanWaypoint(0.0, 2.2, 0.35, Posture.STANDING),
                    HumanWaypoint(1.0, 2.2, 0.35, Posture.STANDING),
                    HumanWaypoint(3.0, 0.55, 0.35, Posture.STANDING),
                    HumanWaypoint(9.0, 0.55, 0.35, Posture.STANDING),
                    HumanWaypoint(11.0, 2.2, 0.35, Posture.STANDING),
                )
            ),
        ),
        duration=14.0,
    )
    return run_benchmark(scenario)


class TestBenchmark:
    def test_human_trajectory_identical_across_modes(self, results):
        traces = [results[m].trace for m in SimMode]
        for rows in zip(*traces):
            assert len({(r.human_x, r.human_y) for r in rows}) == 1

    def test_all_three_modes_present(self, results):
        assert set(results) == {SimMode.AUTONOMOUS, SimMode.TRADITIONAL, SimMode.PROPOSED}

    def test_autonomous_ignores_intrusions(self, results):
        trace = results[SimMode.AUTONOMOUS].trace
        assert {r.fraction for r in trace} == {1.0}

    def test_traditional_stalls_proposed_does_not(self, results):
        trad = results[SimMode.TRADITIONAL].trace
        prop = results[SimMode.PROPOSED].trace
        assert any(r.mode == ModeKind.STANDSTILL for r in trad)
        assert not any(r.mode == ModeKind.STANDSTILL for r in prop)


class TestTaskModel:
    def test_nominal_duration_counts_moves_and_dwells(self):
        scenario = tiny_scenario()
        nominal = nominal_task_duration(scenario, SimMode.PROPOSED)
        from ssmcell.engine import build_model
        from ssmcell.kinematics import tcp_position

        pos = tcp_position(build_model(scenario), np.asarray(scenario.q0))
        expected = 0.0
        for step in scenario.task.steps:
            target = np.asarray(step.target)
            expected += math.dist(pos, target) / NOMINAL_SPEED + step.dwell
            pos = target
        assert nominal == pytest.approx(expected, abs=1e-12)
        assert nominal > 2.0 + 6.5  # dwells alone are a strict lower bound

    def test_ideal_cycle_time_uses_parallelism(self):
        scenario = tiny_scenario(parallelism=2.0)
        assert ideal_cycle_time(scenario) == pytest.approx(
            nominal_task_duration(scenario, SimMode.AUTONOMOUS) / 2.0
        )

    @pytest.mark.parametrize(
        "name, ideal",
        [("approach_retreat", "24.93067554814373"), ("sorting_benchmark", "23.74674332606019")],
    )
    def test_ideal_cycle_time_of_the_bundled_one_cycle_tasks(self, name, ideal):
        assert repr(ideal_cycle_time(bundled(name))) == ideal

    def test_a_runaway_cycle_count_has_its_kpis_at_once(self, approach_result):
        # Later cycles start at the last target and all have one length, so
        # the nominal duration does not walk them one by one.
        sc = approach_result.scenario
        sc = dataclasses.replace(sc, task=dataclasses.replace(sc.task, cycles=10**11))
        result = dataclasses.replace(approach_result, scenario=sc)
        t0 = time.perf_counter()
        report = kpi.report(result)
        assert time.perf_counter() - t0 < 1.0
        assert 0.0 <= report.oee <= 1.0

    def test_a_runaway_cycle_count_runs_as_two_cycles_do(self):
        # The task is walked by (cycle, step) index, with no list of every
        # cycle's steps: 10**11 cycles once ended in a MemoryError.
        def outputs(cycles):
            sc = tiny_scenario(duration=1.0)
            result = run(dataclasses.replace(sc, task=dataclasses.replace(sc.task, cycles=cycles)))
            return list(trace_lines(result.trace)), result.events

        assert outputs(10**11) == outputs(2)

    def test_a_mode_without_steps_has_nothing_pending(self):
        sc = tiny_scenario(duration=1.0)
        steps = tuple(dataclasses.replace(s, modes=("autonomous",)) for s in sc.task.steps)
        result = run(dataclasses.replace(sc, task=RobotTask(steps=steps, cycles=3)))
        assert not result.trace.column("pending").any()
        assert not [e for e in result.events if e.kind == EventKind.TASK_STEP_DONE]

    def test_dwell_pauses_while_stalled(self):
        # traditional mode with the parked human: dwell clock must not advance
        result = run(tiny_scenario(mode=SimMode.TRADITIONAL))
        stalled = [r for r in result.trace if r.mode == ModeKind.STANDSTILL]
        assert stalled
        done = [e for e in result.events if e.kind == EventKind.TASK_STEP_DONE]
        assert len(done) < 2


class TestSafetyInvariant:
    def test_no_motion_below_dynamic_msd(self, approach_result):
        for row in approach_result.trace:
            if row.v_task > 0:
                assert row.d_i >= row.dyn_msd

    @pytest.mark.parametrize("mode", [SimMode.TRADITIONAL, SimMode.PROPOSED], ids=lambda m: m.value)
    def test_operator_in_the_danger_zone_from_the_start_stops_the_first_move(self, mode):
        # The operator stands in the danger zone on the robot's side from
        # t = 0, and the robot's first step is a move.  The run starts at the
        # fraction tick 0 arbitrates to, so the robot never moves.
        parked = HumanScript(
            waypoints=(
                HumanWaypoint(0.0, 0.62, -0.35, Posture.STANDING),
                HumanWaypoint(1.0, 0.62, -0.35, Posture.STANDING),
            )
        )
        task = RobotTask(steps=(TaskStep("sort_b", (0.20, -0.35, 0.30), 0.5),))
        result = run(tiny_scenario(duration=1.0, humans=(parked,), task=task, mode=mode))
        assert result.trace.values("occ_left")[0] == Zone.DANGER
        assert set(result.trace.values("fraction")) == {0.0}
        assert set(result.trace.values("v_task")) == {0.0}

    def test_null_space_term_invisible_at_tcp(self, approach_result):
        from ssmcell.control import Controller
        from ssmcell.engine import build_gains, build_model
        from ssmcell.kinematics import jacobian

        scenario = approach_result.scenario
        model = build_model(scenario)
        ctrl = Controller(model, approach_result.layout, build_gains(scenario), scenario.separation)
        for row in approach_result.trace[::250]:
            J = jacobian(model, row.q)
            # With no task velocity the resolver returns the null-space term alone.
            null_term, _ = ctrl._resolve_rates(row.q, np.zeros(6), J)
            assert np.linalg.norm(J.matrix @ null_term) <= 1e-9


class TestZeroIntrusionEquivalence:
    def test_proposed_equals_traditional_without_intrusions(self):
        from ssmcell.kpi import cycle_time
        from ssmcell.perception import Posture
        from ssmcell.scenario import HumanScript, HumanWaypoint

        scenario = tiny_scenario(
            duration=11.0,
            humans=(
                HumanScript(
                    waypoints=(
                        HumanWaypoint(0.0, 2.3, 0.35, Posture.STANDING),
                        HumanWaypoint(10.0, 2.3, 0.35, Posture.STANDING),
                    )
                ),
            ),
        )
        results = run_benchmark(scenario)
        ct_prop = cycle_time(results[SimMode.PROPOSED].events)
        ct_trad = cycle_time(results[SimMode.TRADITIONAL].events)
        assert ct_prop == ct_trad
