import dataclasses
import hashlib
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmcell.cli import EXIT_RUNTIME, EXIT_VALIDATION, main
from ssmcell.control import GainsConfig
from ssmcell.engine import run
from ssmcell.kinematics import RobotModel
from ssmcell.perception import Posture
from ssmcell.scenario import (
    MAX_COORDINATE,
    HumanScript,
    HumanWaypoint,
    ScenarioError,
    SimMode,
    parse_scenario,
    parse_sections,
    serialize_scenario,
)
from ssmcell.scenarios import bundled_scenario_path

from helpers import bundled, human_scripts, tiny_scenario


class TestParseSections:
    @pytest.mark.parametrize(
        "data, line, byte",
        [(b"\xff[scenario]\n", 1, 0xFF), (b"[scenario]\r\nname = a\r\nseed = \xe9", 3, 0xE9)],
        ids=["first_byte", "last_line"],
    )
    def test_file_that_is_not_utf8_names_its_line(self, data, line, byte, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_bytes(data)
        with pytest.raises(ScenarioError) as exc:
            parse_sections(str(path))
        assert exc.value.errors == [f"line {line}: {path} is not UTF-8 text: byte 0x{byte:02x}"]

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

    def test_serialized_bytes_are_pinned(self):
        for name, digest in SERIALIZED_SHA256.items():
            text = serialize_scenario(bundled(name))
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_layout_is_sized_for_the_arm(self):
        for name in ("approach_retreat", "sorting_benchmark"):
            assert bundled(name).build_layout().reach == RobotModel.reach

    def test_the_earlier_format_exits_1_naming_each_removed_line(self, tmp_path, capsys):
        # A narrower quadrant would size the warning boundary for a 0.6 m arm.
        text = earlier_format(BUNDLED_TEXTS[0])
        text = text.replace("quadrant_half_width = 0.425", "quadrant_half_width = 0.3")
        lines = text.splitlines()
        sections = ("safety", "separation", "layout", "scanners", "gains")
        named = EARLIER_KEYS + [f"[{name}]" for name in sections]
        at = {t.split()[0].strip("[]"): lines.index(t) + 1 for t in named}
        expected = [f"line {at[name]}: unknown section [{name}]" for name in sections] + [
            f"line {at[key]}: unknown key '{key}' in [scenario]"
            for key in ("control_period", "nominal_speed", "stall_threshold")
        ]
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert exc.value.errors == expected
        path = tmp_path / "earlier.scn"
        path.write_text(text, encoding="utf-8")
        assert main(["sim", "run", str(path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {'; '.join(expected)}\n"

    def test_every_key_round_trips(self):
        scenario = every_key_scenario()
        holders = (scenario, scenario.humans[0], scenario.task)
        for obj in holders:
            for f in dataclasses.fields(obj):
                if f.default is dataclasses.MISSING:
                    continue  # no key in the file
                assert getattr(obj, f.name) != f.default, (type(obj).__name__, f.name)
        again = parse_scenario(serialize_scenario(scenario))
        assert again == scenario
        assert serialize_scenario(again) == serialize_scenario(scenario)


# sha256 of serialize_scenario for the bundled files.
SERIALIZED_SHA256 = {
    "approach_retreat": "836a96585478844c4d9246ce57029e3e03a23dbafbcf8baa170522d1aae45829",
    "sorting_benchmark": "0d1a06f501c44219c155733a384ff6539e2a09652677916b2e2eabea6f8216e0",
}


# The lines that set the cell's fixed values in the bundled files before they
# became constants: three [scenario] keys and the [safety], [separation],
# [layout], [scanners] and [gains] sections.
EARLIER_KEYS = ["control_period = 0.002", "nominal_speed = 1.0", "stall_threshold = 5.0"]
EARLIER_LINES = ["[safety]", "approach_speed = 1.6", "stop_time = 0.25", "intrusion = 0.04"]
EARLIER_LINES += ["uncertainty = 0.01", "", "[separation]", "robot_reaction_time = 0.1"]
EARLIER_LINES += ["perception_response_time = 0.064", "intrusion = 0.06"]
EARLIER_LINES += ["robot_uncertainty = 0.02", "human_uncertainty = 0.02", "", "[layout]"]
EARLIER_LINES += ["workspace_length = 1.5", "workspace_width = 0.9", "quadrant_half_width = 0.425"]
EARLIER_LINES += ["danger_margin = 0.1", "laser_mount_height = 0.4", "height_min = 0.0"]
EARLIER_LINES += ["height_max = 2.0", "scale_floor_distance = 0.3", "", "[scanners]"]
EARLIER_LINES += ["scanner = 0.0 -0.45 0.29145679447786715"]
EARLIER_LINES += ["scanner = 0.0 0.45 -0.29145679447786715", "", "[gains]", "kp = 20.0"]
EARLIER_LINES += ["kd = 2.0", "task_gain = 1.0", "k0 = 0.05", "ks_floor = 0.3"]
EARLIER_LINES += ["accel_limit = 2.0", ""]


def edited(name, old, new):
    """The text of a bundled file with its line old replaced by new, and that line's number."""
    lines = bundled_scenario_path(name).read_text(encoding="utf-8").splitlines()
    at = lines.index(old)
    lines[at] = new
    return "\n".join(lines) + "\n", at + 1


def earlier_format(text):
    """A bundled file's text as it was written with those lines."""
    lines = text.splitlines()
    at = lines.index("[robot]")
    lines[at:at] = EARLIER_LINES
    at = next(i for i, t in enumerate(lines) if t.startswith("seed = ")) + 1
    lines[at:at] = EARLIER_KEYS
    return "\n".join(lines) + "\n"


def every_key_scenario():
    """approach_retreat with every scalar key of every section off its default."""
    sc = bundled("approach_retreat")
    replace = dataclasses.replace
    human = replace(sc.humans[0], footprint_radius=0.25, stature=1.8)
    return replace(
        sc,
        name="every_key",
        mode=SimMode.TRADITIONAL,
        duration=40.0,
        seed=5,
        sequential=True,
        noise=0.002,
        parallelism=2.0,
        humans=(human, replace(human, stature=1.6)),
        task=replace(sc.task, cycles=2),
    )


def assert_starts_at_first_target(scenario):
    from ssmcell.engine import build_model
    from ssmcell.kinematics import tcp_position

    tcp = tcp_position(build_model(scenario), np.asarray(scenario.q0))
    assert np.linalg.norm(tcp - scenario.task.steps[0].target) < 1e-6


class TestValidation:
    def test_coordinates_at_the_bound_are_accepted(self):
        def text(bound):
            humans = (HumanScript(waypoints=(HumanWaypoint(0.0, -bound, 0.3),)),)
            sc = dataclasses.replace(bundled("approach_retreat"), humans=humans)
            return sc, serialize_scenario(sc)

        sc, at_bound = text(MAX_COORDINATE)
        assert parse_scenario(at_bound) == sc
        far = math.nextafter(MAX_COORDINATE, math.inf)
        lines = text(far)[1].splitlines()
        waypoint = lines.index(f"waypoint = 0.0 {-far!r} 0.3 standing") + 1
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("\n".join(lines))
        assert exc.value.errors == [
            f"line {waypoint}: human 0: waypoint 0 x and y must lie in [-1000, 1000] m, "
            f"got {-far!r} 0.3",
        ]

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

    def test_script_longer_than_run_rejected(self):
        text = serialize_scenario(bundled("approach_retreat")).replace(
            "duration = 34.0", "duration = 10.0"
        )
        with pytest.raises(ScenarioError):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("seed = 17", "sed = 17"),
            ("[robot]", "[robots]"),
            ("sequential = false", "sequential = treu"),
            ("seed = 17", "seed = 17\nseed = 18"),
            ("[robot]", "[robot]\nmodel = default"),
            ("duration = 34.0", "duration = nan"),
            ("duration = 34.0", "duration = inf"),
            ("parallelism = 1.0", "parallelism = nan"),
            ("parallelism = 1.0", "parallelism = -inf"),
            ("q0 = -0.708626272", "q0 = nan"),
            ("waypoint = 2.0 2.3 -0.32 standing", "waypoint = 2.0 nan -0.32 standing"),
            ("step = sort_b 0.15 -0.35 0.3 1.5", "step = sort_b 0.15 -0.35 0.3 inf"),
            ("q0 = -0.708626272", "q0 = 9.0"),
            ("step = sort_a 0.35", "step = sort_a 5.0"),
            ("step = sort_d 0.45", "step = sort_d -4.5"),
            ("stature = 1.7", "stature = -1.7"),
            ("[robot]", "[robot]\nmodel = arm.cfg"),
            ("duration = 34.0", "duration = 1e12"),
            ("noise = 0.0", "noise = 1e308"),
            # A bad row, then a range problem on a later row of the same kind.
            (
                "waypoint = 0.0 2.3 -0.32 standing\nwaypoint = 2.0 2.3 -0.32 standing",
                "waypoint = 0.0 2.3 -0.32 flying\nwaypoint = 2.0 2.3 5000 standing",
            ),
            (
                "step = sort_a 0.35 -0.3 0.25 1.5\nstep = sort_b 0.15",
                "step = sort_a 0.35 -0.3 z 1.5\nstep = sort_b 5.0",
            ),
            (
                "waypoint = 0.0 2.3 -0.32 standing\nwaypoint = 2.0 2.3 -0.32 standing\n"
                "waypoint = 3.8 1.0 -0.32 standing\nwaypoint = 7.0",
                "waypoint = zero 2.3 -0.32 standing\nwaypoint = 2.0 2.3 -0.32 standing\n"
                "waypoint = 3.8 1.0 -0.32 standing\nwaypoint = 1.0",
            ),
        ],
    )
    def test_probe_fails_closed_naming_its_line(self, old, new, tmp_path):
        text = serialize_scenario(bundled("approach_retreat"))
        assert old in text
        text = text.replace(old, new, 1)
        last = new.splitlines()[-1]
        line = next(i for i, t in enumerate(text.splitlines(), 1) if t.startswith(last))
        with pytest.raises(ScenarioError, match=f"line {line}: "):
            parse_scenario(text)
        path = tmp_path / "probe.scn"
        path.write_text(text, encoding="utf-8")
        assert main(["sim", "run", str(path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "section, old",
        [("scenario", f"control_period = {v}") for v in ("40", "100", "0.5", "1e-9", "1e-300")]
        + [("scenario", "control_period = 5e-324"), ("scenario", "nominal_speed = 5e-324")]
        + [("scenario", "nominal_speed = 0.0"), ("layout", "danger_margin = -1.0")]
        + [("layout", "height_min = 3.0"), ("layout", "laser_mount_height = -0.4")]
        + [("safety", "stop_time = 2.5"), ("safety", "approach_speed = nan")]
        + [("separation", "intrusion = -0.06"), ("separation", "human_speed = 1.6")]
        + [("scenario", "stall_threshold = 5.0"), ("scenario", "stall_threshold = inf")]
        + [("scanners", "scanner = 0.0 -0.45 0.29145679447786715")]
        + [("scanners", "scanner = 1.5 0.45 -2.850135859111926")]
        + [("gains", f"{key} = {value!r}") for key, value in vars(GainsConfig()).items()],
    )
    def test_a_removed_key_exits_1_as_unknown_naming_its_line(self, section, old, tmp_path):
        # The cell's fixed values are constants: a file that sets one fails at its line, or at
        # the line of the [layout], [safety], [separation], [scanners] or [gains] section of it.
        lines = BUNDLED_TEXTS[0].splitlines()
        if section != "scenario":
            at, problem = lines.index("[robot]"), f"unknown section [{section}]"
            lines[at:at] = [f"[{section}]", old]
        else:
            at = lines.index("seed = 17") + 1
            problem = f"unknown key '{old.split()[0]}' in [scenario]"
            lines.insert(at, old)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("\n".join(lines))
        assert exc.value.errors == [f"line {at + 1}: {problem}"]
        path = tmp_path / "old.scn"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["sim", "run", str(path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("noise = 0.0", "noise = -0.001", "noise must be >= 0"),
            ("parallelism = 1.0", "parallelism = 0.0", "parallelism must be >= 1, got 0.0"),
            ("seed = 17", "seed = -1", "seed must be >= 0"),
            ("footprint_radius = 0.3", "footprint_radius = 0.0", "footprint_radius must be"),
            ("stature = 1.7", "stature = 0.0", "stature must be positive"),
        ],
    )
    def test_out_of_range_value_rejected(self, old, new, message):
        text = serialize_scenario(bundled("approach_retreat")).replace(old, new)
        with pytest.raises(ScenarioError, match=re.escape(message)):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "name, old, new, command, problem",
        [
            (
                "approach_retreat",
                "cycles = 1",
                "cycles = 100000000000",
                "run",
                "task: 100000000000 cycles of 5 steps are more steps than the 17000 ticks "
                "of the 34.0 s run set on line 6",
            ),
            (
                "sorting_benchmark",
                "step = sort_1 0.35 -0.3 0.25 2.5",
                "step = sort_1 0.35 -0.3 0.25 -100.0",
                "benchmark",
                "task: step 0 'sort_1' dwell must be >= 0, got -100.0",
            ),
            (
                "sorting_benchmark",
                "parallelism = 2.5",
                "parallelism = 1e-320",
                "benchmark",
                "scenario: parallelism must be >= 1, got 1e-320",
            ),
            (
                "approach_retreat",
                "stature = 1.7",
                "stature = 1e200",
                "run",
                "human 0: stature must be at most 1000 m, got 1e+200",
            ),
            (
                "approach_retreat",
                "footprint_radius = 0.3",
                "footprint_radius = 1e200",
                "run",
                "human 0: footprint_radius must be at most 1000 m, got 1e+200",
            ),
        ],
        ids=["cycles", "dwell", "parallelism", "stature", "footprint_radius"],
    )
    def test_a_value_that_hung_or_failed_at_run_time_exits_1_at_its_line(
        self, name, old, new, command, problem, tmp_path
    ):
        # Each was accepted: the cycles built a plan that never ended, the
        # dwell and the parallelism failed the benchmark's ideal cycle time,
        # and the human sizes overflowed and hid the operator.
        text, line = edited(name, old, new)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert exc.value.errors == [f"line {line}: {problem}"]
        path = tmp_path / f"{name}.scn"
        path.write_text(text, encoding="utf-8")
        assert main(["sim", command, str(path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "name, old, at_bound, beyond",
        [
            # 5 steps a cycle, one finished on each of the run's 17,000 ticks.
            ("approach_retreat", "cycles = 1", "cycles = 3400", "cycles = 3401"),
            (
                "sorting_benchmark",
                "step = sort_1 0.35 -0.3 0.25 2.5",
                "step = sort_1 0.35 -0.3 0.25 0.0",
                "step = sort_1 0.35 -0.3 0.25 -5e-324",
            ),
            ("sorting_benchmark", "parallelism = 2.5", "parallelism = 1.0", "parallelism = 0.999"),
        ],
        ids=["cycles", "dwell", "parallelism"],
    )
    def test_a_task_at_its_bound_parses_and_one_beyond_fails(self, name, old, at_bound, beyond):
        parse_scenario(edited(name, old, at_bound)[0])
        with pytest.raises(ScenarioError):
            parse_scenario(edited(name, old, beyond)[0])

    @pytest.mark.parametrize("key, old", [("stature", "1.7"), ("footprint_radius", "0.3")])
    def test_a_human_at_the_size_bound_runs_without_overflow(self, key, old):
        text, _ = edited("approach_retreat", f"{key} = {old}", f"{key} = {MAX_COORDINATE!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run(parse_scenario(text)).trace
        for name in ("d_i", "dyn_msd"):
            assert np.isfinite(trace.column(name)).all(), name
        above = f"{key} = {math.nextafter(MAX_COORDINATE, math.inf)!r}"
        with pytest.raises(ScenarioError, match=f"{key} must be at most"):
            parse_scenario(edited("approach_retreat", f"{key} = {old}", above)[0])

    @pytest.mark.parametrize(
        "text, value",
        [("true", True), ("On", True), ("1", True), ("yes", True)]
        + [("false", False), ("OFF", False), ("0", False), ("no", False)],
    )
    def test_bool_spellings(self, text, value):
        scenario_text = serialize_scenario(bundled("approach_retreat"))
        scenario_text = scenario_text.replace("sequential = false", f"sequential = {text}")
        assert parse_scenario(scenario_text).sequential is value

    def test_second_human_problem_names_its_line(self):
        sc = bundled("approach_retreat")
        bad = dataclasses.replace(sc.humans[0], stature=-1.0)
        text = serialize_scenario(dataclasses.replace(sc, humans=(sc.humans[0], bad)))
        line = text.splitlines().index("stature = -1.0") + 1
        with pytest.raises(ScenarioError, match=f"line {line}: human 1: stature must be positive"):
            parse_scenario(text)

    def test_human_sections_keep_their_number_order(self):
        sc = bundled("approach_retreat")
        humans = tuple(
            dataclasses.replace(sc.humans[0], stature=1.5 + 0.01 * i) for i in range(11)
        )
        sc = dataclasses.replace(sc, humans=humans)
        assert parse_scenario(serialize_scenario(sc)).humans == humans


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


# Mutation fuzzing of the bundled files (Zeller et al., The Fuzzing Book).
BUNDLED_TEXTS = [
    bundled_scenario_path(name).read_text(encoding="utf-8")
    for name in ("approach_retreat", "sorting_benchmark")
]
HOSTILE_TOKENS = ["nan", "inf", "-0", "1e308", "5e-324", "", "ünïcødé", "x" * 5000]


@st.composite
def mutated_texts(draw, texts=BUNDLED_TEXTS):
    """One of texts, the bundled files by default, with one line deleted,
    duplicated or swapped with another, or one token replaced with a hostile one."""
    lines = draw(st.sampled_from(texts)).splitlines()
    i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
    mutation = draw(st.sampled_from(["delete", "duplicate", "swap", "token"]))
    if mutation == "delete":
        del lines[i]
    elif mutation == "duplicate":
        lines.insert(i, lines[i])
    elif mutation == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        tokens = lines[i].split(" ")
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(HOSTILE_TOKENS))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(text=mutated_texts())
def test_a_mutated_file_parses_or_fails_closed(text):
    try:
        parse_scenario(text)
    except ScenarioError:
        pass


def value_mutations():
    """Each bundled file with one value token of one 'key = value' line replaced by
    a hostile token, -1, 0 or 3.0, and the number of the line it replaced."""
    for text in BUNDLED_TEXTS:
        lines = text.splitlines()
        for i, line in enumerate(lines):
            key, sep, value = line.partition(" = ")
            tokens = value.split(" ") if sep else []
            for t in range(len(tokens)):
                for token in HOSTILE_TOKENS + ["-1", "0", "3.0"]:
                    mutated = lines.copy()
                    mutated[i] = " ".join([f"{key} =", *tokens[:t], token, *tokens[t + 1 :]])
                    yield "\n".join(mutated) + "\n", i + 1


def named_lines(errors):
    """The line numbers errors name: the one each starts with, and those in its text."""
    return {int(n) for e in errors for n in re.findall(r"\bline (\d+)", e)}


def test_every_failing_value_mutation_names_its_line():
    # ROADMAP item 7's line property, on every mutation rather than a sample.
    parsed, failed, unnamed = 0, 0, []
    for text, line in value_mutations():
        parsed += 1
        try:
            parse_scenario(text)
        except ScenarioError as exc:
            failed += 1
            if line not in named_lines(exc.errors):
                unnamed.append((line, text.splitlines()[line - 1][:60], exc.errors[0][:200]))
    # The failure count is pinned too: a check that stops firing shows here.
    assert (parsed, failed) == (2057, 1370)
    assert unnamed == []


def test_problems_of_two_sections_are_all_reported_in_reading_order():
    text = BUNDLED_TEXTS[0].replace("seed = 17", "seed = -1")
    text = text.replace("stature = 1.7", "stature = -1.7")
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert exc.value.errors == [
        "line 7: scenario: seed must be >= 0",
        "line 18: human 0: stature must be positive",
    ]


def test_problems_follow_the_parsers_section_order_after_unknown_sections():
    # [robot] is moved after [task] but read before [human]; [extra] is last in the file.
    text = BUNDLED_TEXTS[0].replace("stature = 1.7", "stature = -1.7")
    robot = text[text.index("[robot]") : text.index("[human]")]
    text = text.replace(robot, "") + "\n" + robot.replace("q0 = -0.708626272", "q0 = 9.0")
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text + "[extra]\n")
    assert exc.value.errors == [
        "line 37: unknown section [extra]",
        "line 35: robot: q0: joint 0 value 9.000000 outside [-6.283185, 6.283185]",
        "line 14: human 0: stature must be positive",
    ]


# A 1 s scenario: the bundled 34 s and 68 s runs are too slow to run per example.
TINY_TEXT = serialize_scenario(tiny_scenario(duration=1.0))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(text=mutated_texts([TINY_TEXT]))
def test_a_mutated_file_never_stops_sim_run_with_a_runtime_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.scn"
        path.write_text(text, encoding="utf-8")
        assert main(["sim", "run", str(path), "--out", str(Path(tmp) / "out")]) != EXIT_RUNTIME


# A range problem for a row of each kind: a row key and the tokens it replaces.
RANGE_PROBLEMS = {
    "waypoint": [{1: "5000"}, {0: "100.0"}],  # x out of bounds; after the run, and out of order
    "step": [{1: "5.0"}],  # beyond the arm's reach
}


def error_lines(text):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    return {int(re.match(r"line (\d+): ", e).group(1)) for e in exc.value.errors}


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    text=st.sampled_from(BUNDLED_TEXTS),
    key=st.sampled_from(sorted(RANGE_PROBLEMS)),
    data=st.data(),
)
def test_a_bad_row_shifts_no_later_rows_line(text, key, data):
    # The problems of a file with a range problem on one row, and with an
    # unparseable row of the same kind inserted before it: every line after
    # the insertion moves down by one, and the inserted line is named too.
    lines = text.splitlines()
    rows = [i for i, line in enumerate(lines) if line.startswith(f"{key} = ")]
    k = data.draw(st.integers(0, len(rows) - 1))
    values = lines[rows[k]].split(" = ")[1].split()
    for t, token in data.draw(st.sampled_from(RANGE_PROBLEMS[key])).items():
        values[t] = token
    lines[rows[k]] = f"{key} = {' '.join(values)}"
    before = error_lines("\n".join(lines))
    at = rows[data.draw(st.integers(0, k))]
    lines.insert(at, f"{key} = unparseable")
    after = error_lines("\n".join(lines))
    assert after == {n + (n > at) for n in before} | {at + 1}


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(humans=st.lists(human_scripts(4.0), min_size=1, max_size=3))
def test_generated_scenarios_round_trip(humans):
    scenario = tiny_scenario(duration=4.0, humans=tuple(humans))
    assert parse_scenario(serialize_scenario(scenario)) == scenario
