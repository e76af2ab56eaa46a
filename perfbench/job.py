"""One benchmark job in a process of its own: set up, run one workload once, check it.

    python3 perfbench/job.py --workload approach --seed 17 --kind timed --work .perfbench

Kinds:
  setup   import ssmcell, parse the scenario, build layout, model and controller
  timed   set up, then run the job with only ``engine.run`` timed
  traced  set up and run the job under the full tracer (``tracer.TARGETS``)
  verify  approach only: the same simulation without the live bridge
  inputs  trace_io only: write the recorded sorting outputs into ``--out``

The last line of standard output is one JSON object.  ``problems`` lists every
output check this process could make on its own; the caller compares jobs with
each other and with the recorded references.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import itertools
import json
import math
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracer_mod  # noqa: E402

SCENARIOS = {"approach": "approach_retreat", "sorting": "sorting_benchmark", "trace_io": "sorting_benchmark"}
MODES = ("autonomous", "traditional", "proposed")
HEADLINE = "proposed"
DECIMATION = 10  # bridge records per simulated tick: one in ten
SHORT_DURATION = 3.0  # s, self-test runs: the first task step only
MEMORY_PROBE_DURATION = 2.0  # s of simulation measured under tracemalloc
CONNECT_TIMEOUT = 10.0  # s, for the bridge client to connect
STREAM_TIMEOUT = 30.0  # s, for the bridge client to end after the bridge closed


class JobError(RuntimeError):
    pass


@dataclasses.dataclass
class Package:
    """The ssmcell modules a job calls; always looked up as module attributes."""

    bridge: object
    cli: object
    control: object
    engine: object
    kpi: object
    scenario: object
    scenarios: object
    stability: object
    tracefile: object


def import_package() -> Package:
    import ssmcell
    from ssmcell import (
        bridge,
        cli,
        control,
        engine,
        kpi,
        scenario,
        scenarios,
        stability,
        tracefile,
    )

    src = (ROOT / "src").resolve()
    if src not in Path(ssmcell.__file__).resolve().parents:
        raise JobError(f"ssmcell imported from {ssmcell.__file__}, not from {src}")
    return Package(bridge, cli, control, engine, kpi, scenario, scenarios, stability, tracefile)


def build(m: Package, workload: str):
    """Parse the workload's scenario and build its layout, model and controller."""
    path = str(m.scenarios.bundled_scenario_path(SCENARIOS[workload]))
    sc = m.scenario.parse_scenario(path)
    layout = sc.build_layout()
    model = m.engine.build_model(sc)
    gains = m.engine.build_gains(sc)
    m.control.Controller(model, layout, gains, sc.separation)
    return sc, layout


def shorten(sc):
    """A 3 s run of the first task step and human waypoints, for the self-test."""
    first = dataclasses.replace(sc.task.steps[0], dwell=0.5)
    task = dataclasses.replace(sc.task, steps=(first,), cycles=1)
    humans = tuple(
        dataclasses.replace(h, waypoints=tuple(w for w in h.waypoints if w.t <= SHORT_DURATION))
        for h in sc.humans
    )
    return dataclasses.replace(sc, duration=SHORT_DURATION, task=task, humans=humans)


# -- output digests and checks ------------------------------------------------


def digest_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def digest_trace_file(path: Path) -> tuple[str, int]:
    """Digest and row count of a trace CSV, without its ``# key=value`` metadata lines.

    The digest equals ``digest_lines(trace_lines(trace))`` for the trace written.
    """
    lines = 0

    def body(f):
        nonlocal lines
        for line in f:
            if not line.startswith("#"):
                lines += 1
                yield line.rstrip("\n")

    with path.open(encoding="utf-8") as f:
        digest = digest_lines(body(f))
    return digest, lines - 1


def trace_metadata(path: Path) -> dict[str, str]:
    meta = {}
    with path.open(encoding="utf-8") as f:
        for line in f:
            if not line.startswith("# "):
                break
            key, _, value = line[2:].rstrip("\n").partition("=")
            meta[key] = value
    return meta


def safety(rows) -> dict:
    """Minimum of d_i - dyn_msd while the task moves, and criterion-5 violations."""
    margin, violations = math.inf, 0
    for d_i, msd, v_task in rows:
        if v_task > 0:
            margin = min(margin, d_i - msd)
            violations += d_i < msd
    return {"min_margin": margin, "violations": violations}


def row_safety(trace) -> dict:
    return safety((r.d_i, r.dyn_msd, r.v_task) for r in trace)


def file_safety(path: Path) -> dict:
    with path.open(encoding="utf-8") as f:
        lines = (line for line in f if not line.startswith("#"))
        header = next(lines).rstrip("\n").split(",")
        i, j, k = header.index("d_i"), header.index("dyn_msd"), header.index("v_task")

        def fields():
            for line in lines:
                p = line.split(",")
                yield float(p[i]), float(p[j]), float(p[k])

        return safety(fields())


def kpi_dict(report, verdict) -> dict:
    return {
        "cycle_time": report.cycle_time,
        "reaction_time": report.reaction_time,
        "flexibility_rate": report.flexibility_rate,
        "oee": report.oee,
        "stable": verdict.all_converged,
    }


def read_kpi_file(path: Path) -> dict:
    """KPIs as ``ssmcell sim benchmark`` writes them (repr floats, exact)."""
    values = dict(line.split("=", 1) for line in path.read_text(encoding="utf-8").splitlines())
    reaction = values["reaction_time"]
    return {
        "cycle_time": float(values["cycle_time"]),
        "reaction_time": None if reaction == "undefined" else float(reaction),
        "flexibility_rate": float(values["flexibility_rate"]),
        "oee": float(values["oee"]),
    }


# -- the live bridge consumer --------------------------------------------------


class LiveConsumer:
    """The bridge and its one client, a separate process connected before the run."""

    def __init__(self, m: Package):
        self.service = m.bridge.serve(decimation=DECIMATION)
        host, port = self.service.address[:2]
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "client.py"), host, str(port)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        deadline = time.monotonic() + CONNECT_TIMEOUT
        while self.service.client_count() < 1:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.abort()
                raise JobError("bridge client did not connect")
            time.sleep(0.001)

    def stream(self) -> bytes:
        """Everything the client received; call after the bridge has closed."""
        out, err = self.proc.communicate(timeout=STREAM_TIMEOUT)
        if self.proc.returncode:
            raise JobError(f"bridge client failed: {err.decode(errors='replace')[-500:]}")
        return out

    def abort(self):
        self.service.close(flush=False)
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.communicate()


# -- the three workloads ---------------------------------------------------------


def approach_job(m: Package, sc, service) -> dict:
    """In-memory run with an optional live bridge, then deadlock, KPIs and stability."""
    try:
        result = m.engine.run(sc, bridge=service)
    finally:
        if service is not None:
            service.close()
    result.events.extend(m.engine.detect_deadlock(result.trace, result.events, sc.stall_threshold))
    report = m.kpi.report(result)
    verdict = m.stability.evaluate_trace(result.lyapunov_samples())
    return {"result": result, "kpis": {HEADLINE: kpi_dict(report, verdict)}, "rows": len(result.trace)}


def sorting_job(m: Package, tr: tracer_mod.Tracer, scenario_path: str, out_dir: Path) -> dict:
    """``ssmcell sim benchmark`` (three modes, deadlocks, KPIs, all output files),
    then the stability verdict of each mode's run, which the tracer handed over."""
    errors = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(errors):
        code = m.cli.main(["sim", "benchmark", scenario_path, "--out", str(out_dir)])
    if code != 0:
        raise JobError(f"ssmcell sim benchmark exited with {code}: {errors.getvalue().strip()}")
    stable = {
        r.scenario.mode.value: m.stability.evaluate_trace(r.lyapunov_samples()).all_converged
        for r in tr.results
    }
    tr.results.clear()
    return {"stable": stable}


def trace_io_job(m: Package, sc, layout, in_dir: Path, out_dir: Path, metas: dict) -> dict:
    """Re-read each recorded trace, check stability, recompute KPIs, write it again."""
    ideal = m.engine.ideal_cycle_time(sc)
    found = {"kpis": {}, "deadlocks": {}, "rows": 0}
    for mode in MODES:
        rows = m.tracefile.read_trace(in_dir / f"trace_{mode}.csv")
        events = m.tracefile.read_events(in_dir / f"events_{mode}.csv")
        result = m.engine.SimResult(
            scenario=sc.with_mode(m.scenario.SimMode(mode)), layout=layout, trace=rows, events=events
        )
        verdict = m.stability.evaluate_trace(result.lyapunov_samples())
        deadlocks = m.engine.detect_deadlock(rows, events, sc.stall_threshold)
        report = m.kpi.report(result, ideal_cycle=ideal)
        m.tracefile.emit_profile_data(rows, out_dir / f"profile_{mode}.csv")
        m.tracefile.write_trace(rows, out_dir / f"trace_{mode}.csv", metas[mode])
        found["kpis"][mode] = kpi_dict(report, verdict)
        found["deadlocks"][mode] = [(e.t, e.payload) for e in deadlocks]
        found["rows"] += len(rows)
    return found


# -- checks made after the timed part ---------------------------------------------


def check_approach(m: Package, done: dict, out: dict, problems: list):
    trace = done["result"].trace
    out["digests"] = {HEADLINE: digest_lines(m.tracefile.trace_lines(trace))}
    out["kpis"] = done["kpis"]
    out["safety"] = {HEADLINE: row_safety(trace)}
    out["ticks"] = done["rows"]
    if out["kind"] == "verify":
        return
    stream = done["stream"]
    expected = b"".join(
        m.bridge.format_record(k, r.t, r.mode.value, r.fraction, r.d_i, r.dyn_msd)
        for k, r in enumerate(itertools.islice(trace, 0, None, DECIMATION))
    )
    out["bridge"] = {"records": stream.count(b"\n"), "dropped_clients": done["dropped_clients"]}
    if stream != expected:
        problems.append("bridge stream differs from the decimated trace")


def check_sorting(m: Package, done: dict, out_dir: Path, out: dict, problems: list):
    out["digests"], out["kpis"], out["safety"] = {}, {}, {}
    out["ticks"] = 0
    for mode in MODES:
        trace_path = out_dir / f"trace_{mode}.csv"
        out["digests"][mode], rows = digest_trace_file(trace_path)
        out["ticks"] += rows
        out["kpis"][mode] = read_kpi_file(out_dir / f"kpi_{mode}.txt")
        out["kpis"][mode]["stable"] = done["stable"].get(mode)
        out["safety"][mode] = file_safety(trace_path)
        for name in (f"events_{mode}.csv", f"profile_{mode}.csv", f"meta_{mode}.txt"):
            if not (out_dir / name).is_file():
                problems.append(f"ssmcell sim benchmark wrote no {name}")
    if not (out_dir / "comparison.txt").is_file():
        problems.append("ssmcell sim benchmark wrote no comparison.txt")


def check_trace_io(m: Package, done: dict, in_dir: Path, out_dir: Path, out: dict, problems: list):
    out["digests"], out["kpis"], out["safety"] = {}, {}, {}
    out["ticks"] = done["rows"]
    for mode in MODES:
        source, rewritten = in_dir / f"trace_{mode}.csv", out_dir / f"trace_{mode}.csv"
        if source.read_bytes() != rewritten.read_bytes():
            problems.append(f"{mode}: rewritten trace is not byte-identical to its input")
        if (in_dir / f"profile_{mode}.csv").read_bytes() != (out_dir / f"profile_{mode}.csv").read_bytes():
            problems.append(f"{mode}: profile from re-read rows differs from the recorded one")
        recorded = [
            (e.t, e.payload)
            for e in m.tracefile.read_events(in_dir / f"events_{mode}.csv")
            if e.kind == m.engine.EventKind.DEADLOCK
        ]
        if done["deadlocks"][mode] != recorded:
            problems.append(f"{mode}: deadlocks from re-read rows differ from the recorded events")
        kpis, recorded_kpis = done["kpis"][mode], read_kpi_file(in_dir / f"kpi_{mode}.txt")
        if {k: kpis[k] for k in recorded_kpis} != recorded_kpis:
            problems.append(f"{mode}: KPIs from re-read rows differ from the recorded ones")
        out["digests"][mode], _ = digest_trace_file(rewritten)
        out["kpis"][mode] = kpis
        out["safety"][mode] = file_safety(source)


def check_common(out: dict, problems: list):
    for mode, s in out.get("safety", {}).items():
        if s["violations"]:
            problems.append(f"{mode}: {s['violations']} ticks move the task with d_i < dyn_msd")
    for mode, k in out.get("kpis", {}).items():
        if k.get("stable") is not True:
            problems.append(f"{mode}: stability verdict is {k.get('stable')}, not pass")


# -- per-layer metrics from the tracer --------------------------------------------

# Every spanned layer but engine.run, which is reported as engine.self.s.
TIMED_LAYERS = tuple(
    dict.fromkeys(layer for _, _, layer, _, _, timed in tracer_mod.TARGETS if timed and layer != "engine.run")
)
COUNTERS = ("control.damped_ticks", "separation.gate.trips", "perception.rays", "perception.hits")


def layer_metrics(tr: tracer_mod.Tracer) -> dict[str, float]:
    layers = tr.layer_totals()
    counters = tr.counter_totals()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out: dict[str, float] = {}
    for name in TIMED_LAYERS:
        agg = layers.get(name, empty)
        out[f"{name}.calls"] = agg["calls"]
        out[f"{name}.s"] = agg["s"]
    out["engine.self.s"] = layers.get("engine.run", empty)["self_s"]
    ticks = sorted(tr.tick_intervals_us())
    out["engine.tick.p50_us"] = tracer_mod.percentile(ticks, 50)
    out["engine.tick.p99_us"] = tracer_mod.percentile(ticks, 99)
    for name in COUNTERS:
        out[name] = counters.get(name, 0)
    scans = counters.get("perception.scans", 0)
    out["perception.hit_scan_ratio"] = counters.get("perception.hit_scans", 0) / scans if scans else 0.0
    for direction in ("write", "read"):
        moved = counters.get(f"tracefile.{direction}.bytes", 0)
        busy = out[f"tracefile.{direction}.s"]
        out[f"tracefile.{direction}.mb_s"] = moved / busy / 1e6 if busy else 0.0
    out["tracefile.bytes"] = counters.get("tracefile.write.bytes", 0)
    return out


def trace_bytes_per_row(m: Package, workload: str, sc, in_dir: Path | None, tmp: Path) -> float:
    """Memory the program retains per trace row, measured with tracemalloc.

    Simulation workloads: a 2 s run of the headline scenario.  trace_io: the
    rows read_trace returns for the first 1000 rows of the proposed trace.
    """
    if workload == "trace_io":
        head = tmp / "head.csv"
        with (in_dir / f"trace_{HEADLINE}.csv").open(encoding="utf-8") as f:
            head.write_text("".join(itertools.islice(f, 1100)), encoding="utf-8")
        load = lambda: m.tracefile.read_trace(head)  # noqa: E731
    else:
        probe = dataclasses.replace(sc, duration=MEMORY_PROBE_DURATION)
        if workload == "sorting":
            probe = probe.with_mode(m.scenario.SimMode(HEADLINE))
        load = lambda: m.engine.run(probe).trace  # noqa: E731
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = load()
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return used / len(kept)


# -- the process ---------------------------------------------------------------------


def inputs(m: Package, sc, out_dir: Path, short: bool):
    """Record the sorting outputs that trace_io reads back."""
    path = str(m.scenarios.bundled_scenario_path(SCENARIOS["trace_io"]))
    if short:
        path = str(out_dir / "short.scn")
        Path(path).write_text(m.scenario.serialize_scenario(shorten(sc)), encoding="utf-8")
    tr = tracer_mod.Tracer(job_id="inputs")
    with tr.installed(tracer_mod.RUN_TIMER):
        sorting_job(m, tr, path, out_dir)


def run_job(args, out: dict, problems: list):
    t0 = perf_counter()
    m = import_package()
    tr = None
    if args.kind == "traced":
        tr = tracer_mod.Tracer(job_id=f"{args.workload}-{args.seed}")
        tr.install()
    try:
        sc, layout = build(m, args.workload)
        out["setup_s"] = perf_counter() - t0
        if args.kind == "setup":
            return
        if args.kind == "inputs":
            inputs(m, sc, Path(args.out), args.short)
            return
        if tr is None:
            tr = tracer_mod.Tracer(job_id=f"{args.workload}-{args.seed}")
            tr.install(tracer_mod.RUN_TIMER)
        work = Path(args.work)
        work.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
        try:
            measure(m, tr, args, sc, layout, tmp, out, problems)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    finally:
        if tr is not None:
            tr.restore()


def measure(m: Package, tr, args, sc, layout, tmp: Path, out: dict, problems: list):
    # Inputs are prepared before the clock starts.
    in_dir = Path(args.inputs) if args.inputs else None
    if args.short:
        sc = shorten(sc)
    if args.workload == "approach":
        sc = dataclasses.replace(sc, seed=args.seed, noise=m.cli.NOISE_AMPLITUDE)
    elif args.workload == "sorting":
        scenario_path = str(m.scenarios.bundled_scenario_path(SCENARIOS["sorting"]))
        if args.short:
            scenario_path = str(tmp / "short.scn")
            Path(scenario_path).write_text(m.scenario.serialize_scenario(sc), encoding="utf-8")
    else:
        metas = {mode: trace_metadata(in_dir / f"trace_{mode}.csv") for mode in MODES}
    out_dir = tmp / "out"
    out_dir.mkdir()
    live = LiveConsumer(m) if args.workload == "approach" and args.kind != "verify" else None
    gc.collect()

    try:
        start = perf_counter()
        if args.workload == "approach":
            done = approach_job(m, sc, live.service if live else None)
        elif args.workload == "sorting":
            done = sorting_job(m, tr, scenario_path, out_dir)
        else:
            done = trace_io_job(m, sc, layout, in_dir, out_dir, metas)
        out["wall_s"] = perf_counter() - start
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if live is not None:
            done["stream"] = live.stream()
            done["dropped_clients"] = live.service.dropped_clients
    finally:
        if live is not None:
            live.abort()
    run = tr.layer_totals().get("engine.run")
    out["run_s"] = run["s"] if run else 0.0
    if args.kind == "traced":
        tr.restore()  # checks and the memory probe below are not traced

    if args.workload == "approach":
        check_approach(m, done, out, problems)
    elif args.workload == "sorting":
        check_sorting(m, done, out_dir, out, problems)
    else:
        check_trace_io(m, done, in_dir, out_dir, out, problems)
    check_common(out, problems)
    # Simulation workloads: engine.run time per simulated tick.  trace_io runs no
    # simulation: its whole job time per trace row processed.
    busy = out["run_s"] if args.workload != "trace_io" else out["wall_s"]
    out["us_per_tick"] = busy / out["ticks"] * 1e6

    if args.kind == "traced":
        metrics = layer_metrics(tr)
        metrics["engine.trace.bytes_per_row"] = trace_bytes_per_row(m, args.workload, sc, in_dir, tmp)
        bridge = out.get("bridge", {})
        metrics["bridge.records_received"] = bridge.get("records", 0)
        metrics["bridge.dropped_clients"] = bridge.get("dropped_clients", 0)
        out["layer_metrics"] = metrics
        out["by_mode"] = tr.by_context()
        spans_path = Path(args.work) / "results" / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("job", "span", "parent", "layer", "start", "end")
        spans_path.write_text(json.dumps([dict(zip(fields, s)) for s in tr.spans]), encoding="utf-8")
        out["spans_file"] = str(spans_path.relative_to(ROOT))
        out["spans_kept"] = len(tr.spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SCENARIOS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--kind", choices=("setup", "timed", "traced", "verify", "inputs"), required=True)
    parser.add_argument("--work", default=str(ROOT / ".perfbench"), help="scratch directory")
    parser.add_argument("--inputs", default=None, help="trace_io: directory of recorded outputs")
    parser.add_argument("--out", default=None, help="inputs: directory to write")
    parser.add_argument("--short", action="store_true", help="3 s scenarios, for the self-test")
    args = parser.parse_args(argv)

    out: dict = {"workload": args.workload, "seed": args.seed, "kind": args.kind}
    problems: list[str] = []
    try:
        run_job(args, out, problems)
        import numpy

        out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    except Exception as exc:  # the job failed; the caller counts it
        out["error"] = f"{type(exc).__name__}: {exc}"
        out["traceback"] = traceback.format_exc()
    out["problems"] = problems
    out["ok"] = "error" not in out and not problems
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
