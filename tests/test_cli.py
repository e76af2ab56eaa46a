import shlex
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ssmcell import cli
from ssmcell.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_VALIDATION, main
from ssmcell.scenario import Scenario, serialize_scenario
from ssmcell.scenarios import bundled_scenario_path
from ssmcell.tracefile import read_trace, write_trace
from ssmcell.zones import build_zone_layout, export_layout
from helpers import bundled, tiny_scenario, trace_from_rows


@pytest.fixture()
def tiny_file(tmp_path):
    path = tmp_path / "tiny.scn"
    path.write_text(serialize_scenario(tiny_scenario(duration=2.0)), encoding="utf-8")
    return path


class TestMsdDynamic:
    def test_prints_terms_and_total(self, capsys):
        code = main(
            [
                "msd",
                "dynamic",
                "--human-speed",
                "1.6",
                "--robot-speed",
                "1.0",
                "--robot-reaction-time",
                "0.1",
                "--perception-response-time",
                "0.064",
                "--intrusion",
                "0.2",
                "--robot-uncertainty",
                "0.05",
                "--human-uncertainty",
                "0.05",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "human_travel_m = 0.262400" in out
        assert "robot_travel_m = 0.100000" in out
        assert "robot_stopping_m = 0.164000" in out
        assert "dynamic_msd_m = 0.826400" in out


class TestZonesCompute:
    def test_layout_export_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "layout.txt"
        code = main(
            [
                "zones",
                "compute",
                "--approach-speed",
                "1.6",
                "--stop-time",
                "0.25",
                "--intrusion",
                "0.04",
                "--uncertainty",
                "0.01",
                "--out",
                str(out_file),
            ]
        )
        assert code == EXIT_OK
        text = out_file.read_text()
        assert "[danger]" in text and "[warning]" in text and "[normal]" in text

    def test_prints_the_msd_and_the_cells_layout(self, capsys):
        # 1.6 m/s x 0.25 s + 0.04 m + 0.01 m, in the cell's fixed workspace
        args = ["--approach-speed=1.6", "--stop-time=0.25", "--intrusion=0.04", "--uncertainty=0.01"]
        code = main(["zones", "compute", *args])
        assert code == EXIT_OK
        expected = "static_msd_m = 0.450000\n" + export_layout(build_zone_layout(0.45))
        assert capsys.readouterr().out == expected

    def test_no_flags_print_the_cells_layout(self, capsys):
        # The flags default to SafetyParams' fields, which are the cell's terms.
        code = main(["zones", "compute"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "static_msd_m = 0.450000"
        assert out == "static_msd_m = 0.450000\n" + export_layout(Scenario().build_layout())

    def test_infeasible_layout_exit_code(self, capsys):
        code = main(
            [
                "zones",
                "compute",
                "--approach-speed",
                "1.6",
                "--stop-time",
                "2.0",
                "--intrusion",
                "0.85",
                "--uncertainty",
                "0.1",
            ]
        )
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "args",
        [
            ["--approach-speed=1.6", "--stop-time=0.5", "--intrusion=0.85", "--uncertainty=0.1"],
            ["--stop-time=2.0"],
            ["--stop-time=1e300"],
        ],
        ids=["msd_1_75", "msd_too_long", "huge_msd"],
    )
    def test_a_layout_that_fails_prints_and_writes_nothing(self, args, tmp_path, capsys):
        out_file = tmp_path / "layout.txt"
        code = main(["zones", "compute", *args, "--out", str(out_file)])
        out, err = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert out == "" and err.startswith("error: infeasible layout: "), (out, err)
        assert not out_file.exists()

    @pytest.mark.parametrize("flag", ["--quadrant-half-width", "--workspace-width", "--workspace-length"])
    def test_a_removed_workspace_flag_exits_1_naming_it(self, flag, tmp_path, capsys):
        # The cell has one arm and one workspace, so the calculator takes no flag for their sizes.
        value = "3.0" if flag == "--workspace-length" else "0.3"
        out_file = tmp_path / "layout.txt"
        args = ["--approach-speed", "1.6", "--stop-time", "0.25", "--intrusion", "0.04"]
        args += ["--uncertainty", "0.01", flag, value]
        code = main(["zones", "compute", *args, "--out", str(out_file)])
        out, err = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert f"unrecognized arguments: {flag} {value}" in err
        assert out == "" and not out_file.exists()

    @pytest.mark.parametrize("name", ["approach_retreat", "sorting_benchmark"])
    def test_prints_the_layout_the_scenario_runs_in(self, name, capsys):
        safety = Scenario.safety
        args = [f"--{f.name.replace('_', '-')}={getattr(safety, f.name)!r}" for f in fields(safety)]
        code = main(["zones", "compute", *args])
        layout = bundled(name).build_layout()
        assert code == EXIT_OK
        expected = f"static_msd_m = {layout.msd:.6f}\n" + export_layout(layout)
        assert capsys.readouterr().out == expected


def readme_commands(command: str) -> list[str]:
    """The lines of README's "Command line" block that run `ssmcell <command>`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith(f"ssmcell {command} ")]


@pytest.mark.parametrize("command", ["zones compute", "msd dynamic"])
def test_readme_calculator_examples_run(command, capsys):
    examples = readme_commands(command)
    assert examples
    for line in examples:
        code = main(shlex.split(line, comments=True)[1:])
        out, err = capsys.readouterr()
        assert code == EXIT_OK, (line, err)
        assert out


MSD_FLAGS = {
    "--human-speed": "1.6",
    "--robot-speed": "1.0",
    "--robot-reaction-time": "0.1",
    "--perception-response-time": "0.064",
    "--intrusion": "0.2",
    "--robot-uncertainty": "0.05",
    "--human-uncertainty": "0.05",
}
ZONE_FLAGS = (
    "--approach-speed",
    "--stop-time",
    "--intrusion",
    "--uncertainty",
)


@pytest.mark.parametrize("missing", sorted(MSD_FLAGS))
def test_msd_dynamic_requires_every_flag(missing, capsys):
    # SeparationInputs' defaults are the cell's terms; the calculator takes none of them.
    args = [f"{name}={value}" for name, value in MSD_FLAGS.items() if name != missing]
    code = main(["msd", "dynamic", *args])
    out, err = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert "the following arguments are required: " + missing in err
    assert out == ""


class TestNonFiniteFlags:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ZONE_FLAGS)
    def test_zones_compute(self, flag, value, capsys):
        code = main(["zones", "compute", f"{flag}={value}"])
        out, err = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert f"{flag} must be finite, got {value}" in err
        assert out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", sorted(MSD_FLAGS))
    def test_msd_dynamic(self, flag, value, capsys):
        args = [f"{name}={value if name == flag else given}" for name, given in MSD_FLAGS.items()]
        code = main(["msd", "dynamic", *args])
        out, err = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert f"{flag} must be finite, got {value}" in err
        assert out == ""

    @pytest.mark.parametrize(
        "args, named",
        [
            (
                ["zones", "compute", "--approach-speed=1e308", "--stop-time=1e308"],
                "--approach-speed, --stop-time, --intrusion, --uncertainty",
            ),
            (
                ["msd", "dynamic", *(f"{name}=1" for name in MSD_FLAGS)]
                + ["--human-speed=1e308", "--robot-reaction-time=1e308"],
                ", ".join(MSD_FLAGS),
            ),
        ],
        ids=["zones_compute", "msd_dynamic"],
    )
    def test_finite_flags_whose_result_overflows(self, args, named, capsys):
        code = main(args)
        out, err = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert f"error: {named}: the " in err and " MSD overflows" in err
        assert out == ""

    def test_huge_lengths_print_in_a_few_digits(self, capsys):
        code = main(["zones", "compute", "--stop-time=1e300"])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert "warning boundary 1.6e+300 m does not fit" in err and len(err) < 200, err


@pytest.mark.parametrize(
    "args, flag",
    [
        (["zones", "compute", "--approach-speed", "abc"], "--approach-speed"),
        (["sim", "run", "approach_retreat", "--seed", "x"], "--seed"),
        (["zones", "compute", "--stop-time", "-inf"], "--stop-time"),
        (["sim", "run", "approach_retreat", "--bridge", "127.0.0.1:abc"], "--bridge"),
        (["sim", "run", "approach_retreat", "--bridge", "127.0.0.1:99999"], "--bridge"),
        (
            ["sim", "run", "approach_retreat", "--bridge", "127.0.0.1:0", "--decimation", "0"],
            "--decimation",
        ),
    ],
)
def test_flag_usage_error_exits_1_naming_the_flag(args, flag, tmp_path, capsys):
    code = main([*args, "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert f"argument {flag}: " in err
    assert out == ""


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-300"])
def test_stability_eps_must_be_finite_and_non_negative(value, tiny_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    main(["sim", "run", str(tiny_file), "--out", str(out_dir)])
    capsys.readouterr()
    code = main(["check", "stability", str(out_dir / "trace.csv"), f"--eps={value}"])
    out, err = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert f"argument --eps: must be finite and >= 0, got {float(value)}" in err
    assert out == ""


@pytest.mark.parametrize(
    "args",
    [["sim", "run"], ["sim", "benchmark"], ["check", "stability"]],
    ids=lambda args: args[1],
)
def test_directory_as_input_file_exits_1_naming_it(args, tmp_path, capsys):
    code = main([*args, str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert f"{str(tmp_path)!r} is a directory, not a file" in err
    assert out == ""


@pytest.mark.parametrize(
    "command, out, problem",
    [
        ("sim run approach_retreat", "file", "{out!r} is not a directory"),
        ("sim benchmark sorting_benchmark", "file/sub", "{file!r} is not an existing directory"),
        ("zones compute", "dir", "{out!r} is a directory"),
        ("zones compute", "missing/layout.txt", "{missing!r} is not an existing directory"),
    ],
    ids=["run_into_a_file", "benchmark_under_a_file", "layout_into_a_directory", "missing_dir"],
)
def test_out_that_cannot_be_written_exits_1_before_the_run(
    command, out, problem, tmp_path, monkeypatch, capsys
):
    # Neither simulation may start: the flag is checked first, and nothing is written.
    def never(*args, **kwargs):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr(cli, "run", never)
    monkeypatch.setattr(cli, "run_benchmark", never)
    (tmp_path / "file").write_text("kept\n", encoding="utf-8")
    (tmp_path / "dir").mkdir()
    paths = {name: str(tmp_path / name) for name in ("file", "missing")}
    out = str(tmp_path / out)
    code = main([*command.split(), "--out", out])
    stdout, err = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert err == f"error: argument --out: {problem.format(out=out, **paths)}\n"
    assert stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
    assert (tmp_path / "file").read_text(encoding="utf-8") == "kept\n"
    assert list((tmp_path / "dir").iterdir()) == []


@pytest.mark.parametrize(
    "command, out",
    [("sim run approach_retreat", "out"), ("zones compute", "layout.txt")],
    ids=["run", "zones_compute"],
)
def test_out_where_writing_is_denied_exits_1(command, out, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    code = main([*command.split(), "--out", str(tmp_path / out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: argument --out: {str(tmp_path)!r} is not writable\n"
    assert list(tmp_path.iterdir()) == []


def test_out_directory_that_exists_or_can_be_made_is_written(tiny_file, tmp_path):
    assert main(["sim", "run", str(tiny_file), "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "trace.csv").is_file()
    nested = tmp_path / "a" / "b"
    assert main(["sim", "run", str(tiny_file), "--out", str(nested)]) == EXIT_OK
    assert (nested / "trace.csv").is_file()


def test_scenario_that_is_not_utf8_exits_1_naming_its_line(tmp_path, capsys):
    path = tmp_path / "latin1.scn"
    text = serialize_scenario(tiny_scenario(duration=2.0)).replace("name = tiny", "name = caf\xe9")
    path.write_bytes(text.encode("latin-1"))
    line = text.splitlines().index("name = caf\xe9") + 1
    code = main(["sim", "run", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: line {line}: {path} is not UTF-8 text: byte 0xe9\n"
    assert not (tmp_path / "out").exists()


def test_trace_that_is_not_utf8_exits_1_naming_its_line(tiny_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["sim", "run", str(tiny_file), "--out", str(out_dir)]) == EXIT_OK
    lines = (out_dir / "trace.csv").read_bytes().split(b"\n")
    lines[700] = b"\xff" + lines[700]
    bad = tmp_path / "bad_trace.csv"
    bad.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    code = main(["check", "stability", str(bad)])
    out, err = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert err == f"error: {bad}:701: not UTF-8 text: byte 0xff\n"
    assert out == ""


class TestSimRun:
    def test_writes_outputs(self, tiny_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["sim", "run", str(tiny_file), "--out", str(out_dir)])
        assert code == EXIT_OK
        assert (out_dir / "trace.csv").exists()
        assert (out_dir / "events.csv").exists()
        assert (out_dir / "profile.csv").exists()
        rows = read_trace(out_dir / "trace.csv")
        assert len(rows) == round(2.0 / 0.002)

    def test_seed_override_changes_metadata(self, tiny_file, tmp_path):
        out_dir = tmp_path / "out"
        code = main(["sim", "run", str(tiny_file), "--out", str(out_dir), "--seed", "99"])
        assert code == EXIT_OK
        head = (out_dir / "trace.csv").read_text().splitlines()[:8]
        assert any("seed=99" in line for line in head)

    @pytest.mark.parametrize("command", ["run", "benchmark"])
    def test_seed_override_is_validated_before_running(self, command, tiny_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["sim", command, str(tiny_file), "--out", str(out_dir), "--seed", "-1"])
        assert code == EXIT_VALIDATION
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_bridge_address_that_cannot_be_bound_exits_1_naming_the_flag(
        self, tiny_file, tmp_path, capsys
    ):
        # 192.0.2.0/24 is TEST-NET-1, never a local address: bind fails at
        # once and sends nothing.
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        args = ["sim", "run", str(tiny_file), "--bridge", "192.0.2.1:0", "--out", str(out_dir)]
        code = main(args)
        out, err = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert err.startswith("error: argument --bridge: cannot bind ('192.0.2.1', 0): "), err
        assert out == ""
        assert list(out_dir.iterdir()) == []

    def test_missing_scenario_file(self, tmp_path):
        assert main(["sim", "run", str(tmp_path / "absent.scn")]) == EXIT_VALIDATION

    def test_invalid_scenario_file(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("[scenario]\nname = x\n", encoding="utf-8")
        assert main(["sim", "run", str(bad)]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("parallelism = 2.5", "parallelism = 0.5", "parallelism must be >= 1, got 0.5"),
            # The nominal speed is a constant now, not a key.
            ("sequential = false", "nominal_speed = 0.0", "line 6: unknown key 'nominal_speed'"),
        ],
    )
    def test_out_of_range_value_fails_at_parse(
        self, old, new, message, tiny_file, tmp_path, capsys
    ):
        text = tiny_file.read_text(encoding="utf-8")
        assert old in text
        bad = tmp_path / "bad.scn"
        bad.write_text(text.replace(old, new), encoding="utf-8")
        assert main(["sim", "run", str(bad), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old, new",
        [
            ("waypoint = 0.0 0.55 0.35 standing", "waypoint = 0.0 1e160 0.35 standing"),
            ("waypoint = 1.8 0.55 0.35 standing", "waypoint = 1.8 0.55 -2000.0 standing"),
        ],
        ids=["waypoint_x", "waypoint_y"],
    )
    def test_coordinate_beyond_the_bound_fails_at_parse_naming_the_line(
        self, old, new, tiny_file, tmp_path, capsys
    ):
        lines = tiny_file.read_text(encoding="utf-8").splitlines()
        line = lines.index(old) + 1
        lines[line - 1] = new
        bad = tmp_path / "bad.scn"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["sim", "run", str(bad), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"line {line}: " in err and "x and y must lie in [-1000, 1000] m" in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edits, message",
        [
            (
                {19: "waypoint = 0.0 2.3 -0.32 flying", 20: "waypoint = 2.0 2.3 5000 standing"},
                "line 20: human 0: waypoint 1 x and y must lie in [-1000, 1000] m, got 2.3 5000.0",
            ),
            (
                {31: "step = sort_a 0.35 -0.3 z 1.5", 32: "step = sort_b 5.0 -0.35 0.3 1.5"},
                "line 32: task: step 1 'sort_b' target is 5.021 m from the base, "
                "beyond the 0.85 m reach",
            ),
            (
                {19: "waypoint = zero 2.3 -0.32 standing", 22: "waypoint = 1.0 1.0 -0.32 reaching"},
                "line 22: human 0: waypoint 3 timestamp 1.0 not after waypoint 2 on line 21",
            ),
        ],
        ids=["waypoint_after_a_bad_one", "step_after_a_bad_one", "time_after_a_bad_row"],
    )
    def test_row_problem_names_its_own_line_and_index(self, edits, message, tmp_path, capsys):
        # approach_retreat.scn: waypoints on lines 19-27, steps 31-35.
        lines = bundled_scenario_path("approach_retreat").read_text(encoding="utf-8").splitlines()
        for line, text in edits.items():
            lines[line - 1] = text
        bad = tmp_path / "bad.scn"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["sim", "run", str(bad), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert message in err.removeprefix("error: ").rstrip("\n").split("; "), err
        assert not (tmp_path / "out").exists()

    def test_bundled_scenario_accepted(self, tmp_path):
        # parse-only guard: the bundled file is a valid CLI input
        from ssmcell.scenario import parse_scenario

        parse_scenario(str(bundled_scenario_path("approach_retreat")))

    def test_bundled_name_resolves(self, tmp_path):
        from ssmcell.cli import _resolve_scenario

        scenario = _resolve_scenario("approach_retreat", None, False)
        assert scenario.name == "approach_retreat"
        with pytest.raises(FileNotFoundError):
            _resolve_scenario("no_such_scenario", None, False)


class TestCheckStability:
    def test_pass_verdict(self, tiny_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main(["sim", "run", str(tiny_file), "--out", str(out_dir)])
        code = main(["check", "stability", str(out_dir / "trace.csv")])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "stability_verdict = pass" in out
        # verdict row is appended to the run metadata
        assert "stability_verdict=pass" in (out_dir / "meta.txt").read_text()

    def test_verdict_goes_to_the_meta_file_of_the_trace_checked(self, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["sim", "benchmark", "approach_retreat", "--out", str(out_dir)]) == EXIT_OK
        assert main(["check", "stability", str(out_dir / "trace_proposed.csv")]) == EXIT_OK
        assert "stability_verdict=pass" in (out_dir / "meta_proposed.txt").read_text()
        assert not (out_dir / "meta.txt").exists()
        assert main(["sim", "run", "approach_retreat", "--out", str(out_dir)]) == EXIT_OK
        run_meta = (out_dir / "meta.txt").read_text()
        assert main(["check", "stability", str(out_dir / "trace_traditional.csv")]) == EXIT_OK
        assert "stability_verdict=pass" in (out_dir / "meta_traditional.txt").read_text()
        assert (out_dir / "meta.txt").read_text() == run_meta
        assert "stability_verdict" not in (out_dir / "meta_autonomous.txt").read_text()

    def test_fail_verdict_exit_code(self, tiny_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main(["sim", "run", str(tiny_file), "--out", str(out_dir)])
        rows = read_trace(out_dir / "trace.csv")
        doctored = []
        for i, r in enumerate(rows):
            v = 1.0 + 0.5 * np.sin(i / 5.0)  # injected oscillating energy
            doctored.append(r._replace(lyap=v))
        bad = tmp_path / "bad_trace.csv"
        write_trace(trace_from_rows(doctored), bad)
        code = main(["check", "stability", str(bad)])
        out = capsys.readouterr().out
        assert code == EXIT_CHECK_FAILED
        assert "stability_verdict = fail" in out

    @pytest.mark.parametrize("text", ["-1.0", "inf", "nan"])
    def test_negative_or_non_finite_energy_is_a_validation_error(
        self, text, tiny_file, tmp_path, capsys
    ):
        from ssmcell.tracefile import TRACE_COLUMNS

        out_dir = tmp_path / "out"
        main(["sim", "run", str(tiny_file), "--out", str(out_dir)])
        lines = (out_dir / "trace.csv").read_text().splitlines()
        fields = lines[-10].split(",")
        fields[TRACE_COLUMNS.index("lyap")] = text
        bad = tmp_path / "bad_trace.csv"
        bad.write_text("\n".join(lines[:-10] + [",".join(fields)] + lines[-9:]) + "\n")
        capsys.readouterr()
        code = main(["check", "stability", str(bad)])
        out, err = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert f"energy value {float(text)} " in err and f"at t={fields[0]}" in err
        assert "stability_verdict" not in out

    @pytest.mark.parametrize(
        "column, text",
        [("damped", "2"), ("pending", "-1"), ("occ_left", "Warning"), ("t", "nan"), ("t", "1_0")],
    )
    def test_unwritable_value_is_a_validation_error(
        self, column, text, tiny_file, tmp_path, capsys
    ):
        from ssmcell.tracefile import TRACE_COLUMNS

        out_dir = tmp_path / "out"
        main(["sim", "run", str(tiny_file), "--out", str(out_dir)])
        lines = (out_dir / "trace.csv").read_text().splitlines()
        fields = lines[-1].split(",")
        fields[TRACE_COLUMNS.index(column)] = text
        bad = tmp_path / "bad_trace.csv"
        bad.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n", encoding="utf-8")
        code = main(["check", "stability", str(bad)])
        assert code == EXIT_VALIDATION
        assert f"{bad}:{len(lines)}:" in capsys.readouterr().err


class TestBenchmarkCommand:
    def test_benchmark_writes_reports(self, tmp_path, capsys):
        from ssmcell.perception import Posture
        from ssmcell.scenario import HumanScript, HumanWaypoint, RobotTask, TaskStep

        scenario = tiny_scenario(
            duration=6.0,
            humans=(
                HumanScript(
                    waypoints=(
                        HumanWaypoint(0.0, 2.2, 0.35, Posture.STANDING),
                        HumanWaypoint(5.0, 2.2, 0.35, Posture.STANDING),
                    )
                ),
            ),
            task=RobotTask(
                steps=(
                    TaskStep("sort_a", (0.35, -0.30, 0.25), 1.0),
                    TaskStep("sort_b", (0.20, -0.35, 0.30), 1.0),
                )
            ),
        )
        path = tmp_path / "bench.scn"
        path.write_text(serialize_scenario(scenario), encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main(["sim", "benchmark", str(path), "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        for mode in ("autonomous", "traditional", "proposed"):
            assert (out_dir / f"kpi_{mode}.txt").exists()
            assert (out_dir / f"trace_{mode}.csv").exists()
        assert (out_dir / "comparison.txt").exists()
        assert "cycle_time_s" in out

    def test_run_too_short_for_a_cycle_exits_1_naming_duration_and_writes_nothing(
        self, tiny_file, tmp_path, capsys
    ):
        # A valid 2 s scenario ends before any mode completes a task cycle,
        # which the cycle-time KPI needs.
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code = main(["sim", "benchmark", str(tiny_file), "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err.startswith("error: scenario: duration 2.0 s is too short"), err
        assert "autonomous run completes no task cycle" in err
        assert list(out_dir.iterdir()) == []
