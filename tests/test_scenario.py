import math

import numpy as np
import pytest

from ssmcell.perception import Posture
from ssmcell.scenario import (
    HumanScript,
    HumanWaypoint,
    ScenarioError,
    SimMode,
    parse_scenario,
    parse_sections,
    serialize_scenario,
)
from ssmcell.scenarios import bundled_scenario_path

from helpers import bundled


class TestParseSections:
    def test_basic(self):
        text = "[a]\nx = 1\n# comment\ny = two words\n[b]\nx = 3\n"
        sections = parse_sections(text)
        assert sections["a"][0].key == "x"
        assert sections["a"][1].value == "two words"
        assert sections["b"][0].line == 6

    def test_entry_before_section_rejected(self):
        with pytest.raises(ScenarioError) as exc:
            parse_sections("x = 1\n")
        assert "line 1" in str(exc.value)

    def test_malformed_line_rejected(self):
        with pytest.raises(ScenarioError) as exc:
            parse_sections("[a]\nnot a pair\n")
        assert "line 2" in str(exc.value)


class TestBundledScenarios:
    def test_approach_retreat_file_parses_clean(self):
        scenario = parse_scenario(str(bundled_scenario_path("approach_retreat")))
        assert (scenario.name, scenario.mode, scenario.duration, scenario.seed) == (
            "approach_retreat",
            SimMode.PROPOSED,
            34.0,
            17,
        )
        names = [s.name for s in scenario.task.steps]
        assert names == ["sort_a", "sort_b", "present", "sort_c", "sort_d"]
        assert_starts_at_first_target(scenario)

    def test_sorting_benchmark_file_parses_clean(self):
        scenario = parse_scenario(str(bundled_scenario_path("sorting_benchmark")))
        assert (scenario.name, scenario.mode, scenario.duration, scenario.seed) == (
            "sorting_benchmark",
            SimMode.PROPOSED,
            68.0,
            23,
        )
        assert scenario.parallelism == 2.5
        assert len(scenario.task.steps) == 11
        assert_starts_at_first_target(scenario)

    def test_round_trip_identity(self):
        for name in ("approach_retreat", "sorting_benchmark"):
            scenario = bundled(name)
            again = parse_scenario(serialize_scenario(scenario))
            assert again == scenario
            # serialized forms match byte for byte too
            assert serialize_scenario(again) == serialize_scenario(scenario)


def assert_starts_at_first_target(scenario):
    from ssmcell.engine import build_model
    from ssmcell.kinematics import tcp_position

    tcp = tcp_position(build_model(scenario), np.asarray(scenario.q0))
    assert np.linalg.norm(tcp - scenario.task.steps[0].target) < 1e-6


class TestValidation:
    def test_decreasing_waypoints_name_the_index(self):
        text = serialize_scenario(bundled("approach_retreat")).replace(
            "waypoint = 3.8 1.0 -0.32 standing", "waypoint = 1.5 1.0 -0.32 standing"
        )
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert "waypoint 2" in str(exc.value)

    def test_missing_scenario_section(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("[task]\nstep = a 0 0 0 1.0\n")
        assert "missing [scenario]" in str(exc.value)

    def test_unknown_mode(self):
        text = serialize_scenario(bundled("approach_retreat")).replace(
            "mode = proposed", "mode = telepathic"
        )
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert "unknown mode" in str(exc.value)

    def test_unknown_posture_with_line(self):
        text = serialize_scenario(bundled("approach_retreat")).replace(
            "waypoint = 2.0 2.3 -0.32 standing", "waypoint = 2.0 2.3 -0.32 flying"
        )
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert "posture" in str(exc.value)

    def test_infeasible_layout_propagates(self):
        text = serialize_scenario(bundled("approach_retreat")).replace(
            "stop_time = 0.25", "stop_time = 2.5"
        )
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert "layout" in str(exc.value)

    def test_script_longer_than_run_rejected(self):
        text = serialize_scenario(bundled("approach_retreat")).replace(
            "duration = 34.0", "duration = 10.0"
        )
        with pytest.raises(ScenarioError):
            parse_scenario(text)


class TestHumanScript:
    SCRIPT = HumanScript(
        waypoints=(
            HumanWaypoint(0.0, 2.0, 0.0, Posture.STANDING),
            HumanWaypoint(1.0, 2.0, 0.0, Posture.STANDING),
            HumanWaypoint(2.0, 1.0, 0.0, Posture.STANDING),
            HumanWaypoint(3.0, 1.0, 0.0, Posture.REACHING),
        )
    )

    def test_before_start_holds_first(self):
        state = self.SCRIPT.state_at(-1.0)
        assert tuple(state.ground) == (2.0, 0.0)
        assert state.walk_speed == 0.0

    def test_linear_interpolation_and_speed(self):
        state = self.SCRIPT.state_at(1.5)
        assert state.ground[0] == pytest.approx(1.5)
        assert state.walk_speed == pytest.approx(1.0)
        assert state.heading == pytest.approx(math.pi)

    def test_posture_switches_at_waypoint_time(self):
        assert self.SCRIPT.state_at(2.999).posture == Posture.STANDING
        assert self.SCRIPT.state_at(3.0).posture == Posture.REACHING

    def test_after_end_holds_last(self):
        state = self.SCRIPT.state_at(10.0)
        assert tuple(state.ground) == (1.0, 0.0)
        assert state.posture == Posture.REACHING
        assert state.walk_speed == 0.0

    def test_stationary_segment_keeps_heading(self):
        moving = self.SCRIPT.state_at(1.5)
        parked = self.SCRIPT.state_at(2.5)
        assert parked.heading == moving.heading
        assert parked.walk_speed == 0.0


class TestModeFilter:
    def test_autonomous_only_steps(self):
        scenario = bundled("sorting_benchmark")
        hrc = scenario.task.steps_for(SimMode.PROPOSED)
        auto = scenario.task.steps_for(SimMode.AUTONOMOUS)
        assert len(auto) == len(hrc) + 3
        assert all("assemble" not in s.name for s in hrc)
