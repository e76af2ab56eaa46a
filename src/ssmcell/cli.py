"""Command-line entry point: run/benchmark simulations, zone and MSD calculators, checks.

Exit codes: 0 success, 1 validation error, 2 runtime error, 3 check failure.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import bridge as bridge_mod
from . import kpi as kpi_mod
from .engine import detect_deadlock, ideal_cycle_time, lyapunov_samples, run, run_benchmark
from .scenario import ScenarioError, parse_scenario
from .scenarios import bundled_scenario_path
from .separation import SeparationError, SeparationInputs, compute_msd_dynamic, separation_terms
from .stability import StabilityError, evaluate_trace
from .tracefile import (
    TraceFileError,
    emit_profile_data,
    read_trace,
    write_events,
    write_trace,
)
from .zones import SafetyParams, ZoneError, build_zone_layout, compute_msd_static, export_layout

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_CHECK_FAILED = 3
NOISE_AMPLITUDE = 0.005  # m, +-5 mm uniform when enabled


def _add_field_flags(parser, field_list, required: bool = False):
    """A float flag per dataclass field, --name-with-dashes, defaulting to the field's default."""
    for f in field_list:
        default = None if required else f.default
        parser.add_argument(
            "--" + f.name.replace("_", "-"), type=float, required=required, default=default
        )


class FlagError(ValueError):
    """A command-line value outside the flag's domain."""


class _Parser(argparse.ArgumentParser):
    """Reports a usage error, such as a flag value of the wrong type, as a FlagError."""

    def error(self, message):
        raise FlagError(f"{self.prog}: {message}")


def _field_values(field_list, args) -> dict:
    """The values of field flags; FlagError names the first that is NaN or infinite."""
    values = {f.name: getattr(args, f.name) for f in field_list}
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise FlagError(f"--{name.replace('_', '-')} must be finite, got {value}")
    return values


def _finite_results(values, what: str, field_list):
    """FlagError naming the field flags when a result computed from them overflowed."""
    if not all(map(math.isfinite, values)):
        flags = ", ".join("--" + f.name.replace("_", "-") for f in field_list)
        raise FlagError(f"{flags}: the {what} overflows; the values are too large")


def _input_file(path: Path, what: str) -> Path:
    """path, which must not name a directory; a missing file is left to the reader."""
    if path.is_dir():
        raise FlagError(f"{what} {str(path)!r} is a directory, not a file")
    return path


def _output_path(text: str, directory: bool) -> Path:
    """The --out path, checked before anything runs: a directory that exists or
    can be made, or else a file in an existing directory; writable either way."""
    path = Path(text)
    if path.exists() and path.is_dir() != directory:
        raise FlagError(f"argument --out: {text!r} is {'not ' if directory else ''}a directory")
    # The path itself, or the directory its first missing part is made in.
    above = (path, *path.parents) if directory else (path, path.parent)
    target = next((p for p in above if p.exists()), path.parent)
    if target != path and not target.is_dir():
        raise FlagError(f"argument --out: {str(target)!r} is not an existing directory")
    if not os.access(target, os.W_OK):
        raise FlagError(f"argument --out: {str(target)!r} is not writable")
    return path


def _bridge_address(text: str) -> tuple[str, int]:
    """(host, port) of a --bridge HOST:PORT value; the host defaults to 127.0.0.1."""
    host, _, port = text.rpartition(":")
    if not (port.isascii() and port.isdigit() and int(port) <= 65535):
        raise FlagError(
            f"argument --bridge: expected HOST:PORT with a port from 0 to 65535, got {text!r}"
        )
    return host or "127.0.0.1", int(port)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ssmcell",
        description="Deterministic speed-and-separation-monitored cell simulator",
    )
    top = parser.add_subparsers(dest="command", required=True)

    sim = top.add_parser("sim", help="run or benchmark a scenario")
    sim_sub = sim.add_subparsers(dest="sim_command", required=True)
    sim_run = sim_sub.add_parser("run", help="execute one scenario and write the trace")
    sim_run.add_argument("scenario", help="scenario file path")
    sim_run.add_argument("--out", default="out", help="output directory")
    sim_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sim_run.add_argument(
        "--noise", action="store_true", help=f"enable +-{NOISE_AMPLITUDE * 1000:.0f} mm range noise"
    )
    sim_run.add_argument("--bridge", default=None, metavar="HOST:PORT", help="publish commands")
    sim_run.add_argument("--decimation", type=int, default=1, help="bridge decimation step")
    sim_bench = sim_sub.add_parser("benchmark", help="run all three control configurations")
    sim_bench.add_argument("scenario")
    sim_bench.add_argument("--out", default="out", help="output directory")
    sim_bench.add_argument("--seed", type=int, default=None)

    zones = top.add_parser("zones", help="zone layout tools")
    zones_sub = zones.add_subparsers(dest="zones_command", required=True)
    zc = zones_sub.add_parser("compute", help="compute the static MSD and zone layout")
    _add_field_flags(zc, fields(SafetyParams))
    zc.add_argument("--out", default=None, help="write the layout export to this file")

    msd = top.add_parser("msd", help="separation distance calculators")
    msd_sub = msd.add_subparsers(dest="msd_command", required=True)
    md = msd_sub.add_parser("dynamic", help="dynamic MSD from the seven inputs")
    _add_field_flags(md, fields(SeparationInputs), required=True)

    check = top.add_parser("check", help="post-run verifications")
    check_sub = check.add_subparsers(dest="check_command", required=True)
    cs = check_sub.add_parser("stability", help="energy-decay verdict over a trace file")
    cs.add_argument("trace", help="trace CSV path")
    cs.add_argument("--eps", type=float, default=None, help="derivative tolerance override")
    return parser


def _resolve_scenario(path: str, seed: int | None, noise: bool):
    if seed is not None and seed < 0:
        raise FlagError(f"argument --seed: must be >= 0, got {seed}")
    candidate = _input_file(Path(path), "scenario")
    if not candidate.exists():
        bundled = bundled_scenario_path(path)
        if bundled.is_file():
            candidate = Path(str(bundled))
        else:
            raise FileNotFoundError(f"no scenario file or bundled scenario named {path!r}")
    scenario = parse_scenario(str(candidate))
    if seed is not None:
        scenario = replace(scenario, seed=seed)
    if noise:
        scenario = replace(scenario, noise=NOISE_AMPLITUDE)
    return scenario


def _write_run_outputs(out_dir: Path, result, label: str = "") -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = f"_{label}" if label else ""
    trace_path = out_dir / f"trace{suffix}.csv"
    meta = {
        "scenario": result.scenario.name,
        "mode": result.scenario.mode.value,
        "seed": result.scenario.seed,
        "control_period": result.scenario.control_period,
        "rows": len(result.trace),
    }
    write_trace(result.trace, trace_path, meta)
    write_events(result.events, out_dir / f"events{suffix}.csv")
    emit_profile_data(result.trace, out_dir / f"profile{suffix}.csv")
    meta_path = out_dir / f"meta{suffix}.txt"
    meta_path.write_text(
        "".join(f"{k}={v}\n" for k, v in meta.items()), encoding="utf-8"
    )
    return trace_path


def _cmd_sim_run(args) -> int:
    if args.decimation < 1:
        raise FlagError(f"argument --decimation: must be >= 1, got {args.decimation}")
    address = _bridge_address(args.bridge) if args.bridge else None
    out_dir = _output_path(args.out, directory=True)
    scenario = _resolve_scenario(args.scenario, args.seed, args.noise)
    service = None
    if address is not None:
        try:
            service = bridge_mod.serve(address, args.decimation)
        except bridge_mod.BridgeError as exc:
            raise FlagError(f"argument --bridge: {exc}") from exc
        print(f"bridge listening on {service.address[0]}:{service.address[1]}")
    try:
        result = run(scenario, bridge=service)
    finally:
        if service is not None:
            service.close()
    result.events.extend(detect_deadlock(result.trace, result.events, scenario.stall_threshold))
    trace_path = _write_run_outputs(out_dir, result)
    print(f"wrote {len(result.trace)} rows to {trace_path}")
    print(f"events: {len(result.events)}")
    return EXIT_OK


def _cmd_sim_benchmark(args) -> int:
    out_dir = _output_path(args.out, directory=True)
    scenario = _resolve_scenario(args.scenario, args.seed, False)
    results = run_benchmark(scenario)
    ideal = ideal_cycle_time(scenario)
    # Every report is computed before the first file is written, so that a
    # run too short for a KPI leaves no output behind.
    reports = []
    for mode, result in results.items():
        try:
            reports.append(kpi_mod.report(result, ideal_cycle=ideal))
        except kpi_mod.IncompleteRunError as exc:
            raise ScenarioError(
                f"scenario: duration {scenario.duration!r} s is too short for a benchmark: "
                f"the {mode.value} run completes no task cycle ({exc})"
            ) from None
    for (mode, result), report in zip(results.items(), reports):
        _write_run_outputs(out_dir, result, label=mode.value)
        lines = [
            f"mode={report.mode_label}",
            f"cycle_time={report.cycle_time!r}",
            f"reaction_time={'undefined' if report.reaction_time is None else repr(report.reaction_time)}",
            f"flexibility_rate={report.flexibility_rate!r}",
            f"oee={report.oee!r}",
        ]
        (out_dir / f"kpi_{mode.value}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    table = kpi_mod.comparison_table(reports)
    (out_dir / "comparison.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    return EXIT_OK


def _cmd_zones_compute(args) -> int:
    out = _output_path(args.out, directory=False) if args.out else None
    safety = _field_values(fields(SafetyParams), args)
    msd = compute_msd_static(SafetyParams(**safety))
    _finite_results([msd], "static MSD", fields(SafetyParams))
    # Everything that can fail runs before the first print, so a failure prints nothing.
    text = export_layout(build_zone_layout(msd))
    if out:
        out.write_text(text, encoding="utf-8")
    print(f"static_msd_m = {msd:.6f}")
    if out:
        print(f"layout written to {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_msd_dynamic(args) -> int:
    inputs = SeparationInputs(**_field_values(fields(SeparationInputs), args))
    s_h, s_r, s_s = separation_terms(inputs)
    msd = compute_msd_dynamic(inputs)
    _finite_results([s_h, s_r, s_s, msd], "dynamic MSD", fields(SeparationInputs))
    print(f"human_travel_m = {s_h:.6f}")
    print(f"robot_travel_m = {s_r:.6f}")
    print(f"robot_stopping_m = {s_s:.6f}")
    print(f"dynamic_msd_m = {msd:.6f}")
    return EXIT_OK


def _cmd_check_stability(args) -> int:
    if args.eps is not None and not (math.isfinite(args.eps) and args.eps >= 0.0):
        raise FlagError(f"argument --eps: must be finite and >= 0, got {args.eps}")
    trace = read_trace(_input_file(Path(args.trace), "trace"))
    report = evaluate_trace(lyapunov_samples(trace), eps=args.eps)
    for seg in report.segments:
        print(
            f"segment {seg.t_start:.3f}-{seg.t_end:.3f}s mode={seg.mode.value} "
            f"max_vdot={seg.max_vdot:.3e} converged={seg.converged} "
            f"invariant_set={seg.invariant_set_detected}"
        )
    verdict = "pass" if report.all_converged else "fail"
    print(f"stability_verdict = {verdict} (eps={report.eps:.3e})")
    # The verdict goes to the trace's own meta file, if the trace has one.
    trace_path = Path(args.trace)
    named = re.fullmatch(r"trace(_.+)?\.csv", trace_path.name)
    meta = trace_path.with_name(f"meta{named[1] or ''}.txt") if named else None
    if meta is not None and meta.is_file():
        with meta.open("a", encoding="utf-8") as f:
            f.write(f"stability_verdict={verdict}\n")
    return EXIT_OK if report.all_converged else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sim" and args.sim_command == "run":
            return _cmd_sim_run(args)
        if args.command == "sim" and args.sim_command == "benchmark":
            return _cmd_sim_benchmark(args)
        if args.command == "zones" and args.zones_command == "compute":
            return _cmd_zones_compute(args)
        if args.command == "msd" and args.msd_command == "dynamic":
            return _cmd_msd_dynamic(args)
        if args.command == "check" and args.check_command == "stability":
            return _cmd_check_stability(args)
        parser.error("unknown command")
    except (
        FlagError,
        ScenarioError,
        ZoneError,
        SeparationError,
        TraceFileError,
        StabilityError,
        FileNotFoundError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # runtime failures keep a distinct exit code for CI
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
