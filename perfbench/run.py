"""ssmcell benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload approach --seed 17 --seconds 5 --trace 0

Run it from the root of a checkout: it imports the simulator from ``src/``.
Each job runs in a fresh process (``job.py``), one after the other: the next
job starts only when the previous one has ended.  Jobs repeat while the next
one should end within ``--seconds``; the first job always runs.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the
per-layer metrics from one extra traced job.  Every job's outputs are checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A full report goes to ``.perfbench/results/``.

``--workload all`` runs the three workloads in turn and prints each table.
``--record-references`` rewrites ``references.json`` from the current tree.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCES = HERE / "references.json"
WORKLOADS = ("approach", "sorting", "trace_io")
DEFAULT_SEED = 17  # the seed approach_retreat.scn carries
DEFAULT_SECONDS = 30
SETUP_SAMPLES = 7  # set-up time is the median of this many fresh processes
JOB_TIMEOUT = 170  # s, a job process still running after this counts as failed
APPROACH_RECORDS = 1700  # bridge records: 17,000 ticks at decimation 10


class BenchmarkError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # One BLAS thread: the job processes stay within the benchmark's two threads.
    env.update(PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(kind: str, workload: str, seed: int, short: bool, **paths) -> dict:
    """Run one job process to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--kind", kind, "--work", str(WORK)]
    for name, path in paths.items():
        cmd += [f"--{name}", str(path)]
    if short:
        cmd.append("--short")
    failed = {"kind": kind, "ok": False, "problems": []}
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=JOB_TIMEOUT
        )
    except subprocess.TimeoutExpired:
        return {**failed, "error": f"job process ran longer than {JOB_TIMEOUT} s"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {**failed, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}


def source_key() -> str:
    """Hash of the simulator's sources and the job code that writes the inputs."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ssmcell").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    h.update((HERE / "job.py").read_bytes())
    return h.hexdigest()[:16]


def prepare_inputs(short: bool) -> Path:
    """The sorting outputs trace_io reads, written once per source tree and reused."""
    cache = WORK / "inputs"
    target = cache / f"{'short-' if short else ''}{source_key()}"
    if target.is_dir():
        return target
    cache.mkdir(parents=True, exist_ok=True)
    for stale in cache.iterdir():
        if stale.name.startswith("short-") == short:
            shutil.rmtree(stale, ignore_errors=True)
    tmp = Path(tempfile.mkdtemp(prefix="partial-", dir=cache))
    result = spawn("inputs", "trace_io", DEFAULT_SEED, short, out=tmp)
    if not result["ok"]:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BenchmarkError(f"recording the trace_io inputs failed: {result.get('error')}")
    tmp.rename(target)
    return target


def machine_record() -> dict:
    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu_model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
    }


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8")) if REFERENCES.is_file() else {}


# -- checks across jobs -------------------------------------------------------------


def compare(job: dict, expected: dict, what: str, problems: list):
    """Exact comparison of digests, KPIs and safety figures against expected ones."""
    for field in ("digests", "kpis", "safety"):
        for mode, want in expected.get(field, {}).items():
            got = job.get(field, {}).get(mode)
            if isinstance(want, dict) and isinstance(got, dict):
                got = {k: got.get(k) for k in want}
            if got != want:
                problems.append(f"{field}[{mode}] differs from {what}: {got!r} != {want!r}")


def check_jobs(workload: str, seed: int, short: bool, jobs: list[dict], refs: dict) -> None:
    """Add to each job's problems what needs other jobs or the references."""
    first = next((j for j in jobs if j["ok"] and j["kind"] == "timed"), None)
    ref_key = "approach" if workload == "approach" else "sorting"
    # Only approach takes its inputs from the seed; the other two always match.
    ref = refs.get(ref_key) if not short and (workload != "approach" or seed == DEFAULT_SEED) else None
    for job in jobs:
        problems = job.setdefault("problems", [])
        if "error" in job:
            problems.append(job["error"])
            continue
        if first is not None and job is not first:
            label = {"timed": "the first timed job", "traced": "the untraced job",
                     "verify": "the bridge run"}[job["kind"]]
            compare(job, {k: first.get(k, {}) for k in ("digests", "kpis", "safety")}, label, problems)
        if ref is not None:
            compare(job, ref, "the recorded reference", problems)
        if workload == "approach" and job["kind"] != "verify" and not short:
            bridge = job.get("bridge", {})
            if bridge.get("records") != APPROACH_RECORDS:
                problems.append(f"bridge client got {bridge.get('records')} records, not {APPROACH_RECORDS}")
            if bridge.get("dropped_clients"):
                problems.append(f"bridge dropped {bridge['dropped_clients']} clients")
        job["ok"] = not problems


# -- one benchmark run ----------------------------------------------------------------


def run_benchmark(workload: str, seed: int, seconds: float, traced: bool, short: bool = False,
                  refs: dict | None = None) -> dict:
    machine = machine_record()
    refs = load_references() if refs is None else refs
    jobs: list[dict] = []
    setups: list[float] = []
    inputs = {}
    if workload == "trace_io":
        inputs["inputs"] = prepare_inputs(short)

    def job(kind: str) -> dict:
        result = spawn(kind, workload, seed, short, **inputs)
        jobs.append(result)
        return result

    # Another timed job starts only if it should end within ``seconds``, judged
    # by the longest job so far; the first job always runs, however long it takes.
    start = time.perf_counter()
    timed = [job("timed")]
    longest = time.perf_counter() - start
    while (elapsed := time.perf_counter() - start) + longest <= seconds:
        timed.append(job("timed"))
        longest = max(longest, time.perf_counter() - start - elapsed)
    traced_job = job("traced") if traced else None
    if traced and workload == "approach":
        job("verify")
    if not traced:
        setups = [j["setup_s"] for j in timed if "setup_s" in j]
        while len(setups) < SETUP_SAMPLES:
            sample = spawn("setup", workload, seed, short)
            if "setup_s" not in sample:
                raise BenchmarkError(f"set-up failed: {sample.get('error')}")
            setups.append(sample["setup_s"])
    machine["loadavg_end"] = list(os.getloadavg())
    machine.update(next((j["versions"] for j in jobs if "versions" in j), {}))

    check_jobs(workload, seed, short, jobs, refs)
    failed = sum(not j["ok"] for j in jobs)
    ok_timed = [j for j in timed if j["ok"]]
    values = end_to_end(ok_timed, setups, failed / len(jobs))
    if traced_job is not None and traced_job["ok"]:
        values.update(traced_job["layer_metrics"])
        untraced = statistics.median(j["wall_s"] for j in ok_timed) if ok_timed else None
        values["trace.overhead_ratio"] = traced_job["wall_s"] / untraced - 1 if untraced else None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "values": values,
        "samples": {
            "setup_s": setups,
            "wall_s": [j["wall_s"] for j in ok_timed],
            "us_per_tick": [j["us_per_tick"] for j in ok_timed],
            "peak_rss_mb": [j["rss_mb"] for j in ok_timed],
        },
        "by_mode": traced_job.get("by_mode") if traced_job else None,
        "machine": machine,
        "jobs": [{k: v for k, v in j.items() if k not in ("layer_metrics", "by_mode")} for j in jobs],
    }


def end_to_end(ok_timed: list[dict], setups: list[float], failed_ratio: float) -> dict:
    def median(key):
        return statistics.median(j[key] for j in ok_timed) if ok_timed else None

    values = {
        "setup_s": statistics.median(setups) if setups else None,
        "wall_s": median("wall_s"),
        "us_per_tick": median("us_per_tick"),
        "peak_rss_mb": median("rss_mb"),
        "failed_ratio": failed_ratio,
    }
    if ok_timed:
        head = ok_timed[0]
        kpis, safety = head["kpis"]["proposed"], head["safety"]["proposed"]
        reaction = kpis["reaction_time"]
        values.update(
            sim_cycle_time_s=kpis["cycle_time"],
            sim_reaction_time_ms=None if reaction is None else reaction * 1000.0,
            sim_flexibility_rate=kpis["flexibility_rate"],
            sim_oee=kpis["oee"],
            sim_min_margin_m=safety["min_margin"],
            sim_violations=safety["violations"],
        )
    return values


# -- output ------------------------------------------------------------------------------

# Reported in the table but not in the JSON line: both are 0 on a correct run,
# and the JSON line carries them as ``failed``/``attempted`` and ``correct``.
TABLE_ONLY = (
    {"name": "failed_ratio", "unit": "ratio", "better": "lower"},
    {"name": "sim_violations", "unit": "count", "better": "lower"},
)


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(report: dict, spec: dict):
    print(
        f"ssmcell benchmark: workload={report['workload']} seed={report['seed']} "
        f"seconds={report['seconds']} trace={report['trace']}"
    )
    m = report["machine"]
    print(
        f"machine: {m['cpu_count']} cpus (affinity {m['affinity']}), {m['cpu_model'] or 'cpu model n/a'}, "
        f"python {m['python']}, numpy {m.get('numpy', 'n/a')}, "
        f"load {m['loadavg_start'][0]:.2f} -> {m['loadavg_end'][0]:.2f}"
    )
    kinds = [j["kind"] for j in report["jobs"]]
    print(f"jobs: {', '.join(f'{kinds.count(k)} {k}' for k in dict.fromkeys(kinds))}; "
          f"failed {report['failed']} of {report['attempted']}")
    for j in report["jobs"]:
        for problem in j.get("problems", []):
            print(f"  FAILED {j['kind']}: {problem}")
    section = "per_layer" if report["trace"] else "end_to_end"
    metrics = spec[section] + (list(TABLE_ONLY) if not report["trace"] else [])
    print(f"{section.replace('_', '-')} metrics:")
    for metric in metrics:
        value = report["values"].get(metric["name"])
        samples = report["samples"].get(metric["name"])
        count = f"median of {len(samples)}" if samples is not None and not report["trace"] else ""
        print(f"  {metric['name']:<34} {fmt(value):>14} {metric['unit']:<8} {metric['better']:<7} {count}")
    if report["by_mode"]:
        print_by_mode(report["by_mode"])


def print_by_mode(by_mode: dict):
    """Per-mode split of the traced job: calls and busy seconds per layer."""
    contexts = sorted(by_mode)
    print("per-mode layers (calls / busy s), '-' = outside engine.run:")
    print(f"  {'layer':<28}" + "".join(f"{c:>26}" for c in contexts))
    layers = sorted({layer for c in contexts for layer in by_mode[c]["layers"]})
    for layer in layers:
        cells = []
        for c in contexts:
            agg = by_mode[c]["layers"].get(layer)
            cells.append(f"{agg['calls']:>10} / {agg['s']:>10.4f}" if agg else f"{'':>23}")
        print(f"  {layer:<28}" + "".join(f"{cell:>26}" for cell in cells))
    for c in contexts:
        if by_mode[c]["tick_p50_us"]:
            print(f"  tick {c}: p50 {by_mode[c]['tick_p50_us']:.1f} us, p99 {by_mode[c]['tick_p99_us']:.1f} us")


def result_line(report: dict, spec: dict) -> dict:
    section = "per_layer" if report["trace"] else "end_to_end"
    metrics = {}
    for m in spec[section]:
        value = report["values"].get(m["name"])
        finite = value is not None and math.isfinite(value)
        metrics[m["name"]] = {"value": value if finite else None, "unit": m["unit"]}
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def save(report: dict) -> Path:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json"
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    return path


def record_references() -> dict:
    """Reference digests, KPIs and safety figures of the default seed, from this tree."""
    refs = {"default_seed": DEFAULT_SEED}
    for workload in ("approach", "sorting"):
        report = run_benchmark(workload, DEFAULT_SEED, 0, traced=False, refs={})
        if not report["correct"]:
            raise BenchmarkError(f"{workload} failed; references not written: {report['jobs']}")
        head = report["jobs"][0]
        refs[workload] = {k: head[k] for k in ("digests", "safety")}
        refs[workload]["kpis"] = {
            mode: {k: v for k, v in kpis.items() if k != "stable"} for mode, kpis in head["kpis"].items()
        }
    REFERENCES.write_text(json.dumps(refs, indent=2) + "\n", encoding="utf-8")
    return refs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--record-references", action="store_true", help="rewrite references.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ssmcell" / "__init__.py").is_file():
        print(f"error: no simulator sources at {ROOT / 'src' / 'ssmcell'}", file=sys.stderr)
        return 2
    try:
        if args.record_references:
            print(json.dumps(record_references(), indent=2))
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        lines = {}
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            report = run_benchmark(workload, args.seed, args.seconds, bool(args.trace))
            print_report(report, spec)
            print(f"report: {save(report).relative_to(ROOT)}")
            lines[workload] = result_line(report, spec)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(lines[args.workload] if args.workload != "all" else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
