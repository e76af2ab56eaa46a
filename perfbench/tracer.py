"""Out-of-package span tracer for ssmcell.

The tracer replaces public names where their callers look them up, with timing
wrappers, and restores every one on exit, including on error.  Nothing under
``src/`` is edited.  A function is patched at every module binding of the
same object (``ssmcell.engine.simulate_scan`` and ``ssmcell.perception`` alike),
a class only at the binding named in the table, and a method on its class.

Each span has a layer name, start, end, parent span and the job id.  Spans are
aggregated per (context, layer) as calls, busy seconds and self seconds, so
memory stays bounded on 100k-tick runs.  The context is the simulation mode
while ``engine.run`` executes and ``-`` otherwise.  Raw spans are kept for one
tick in every ``SAMPLE_EVERY`` and for every span outside ``engine.run``, up to
``MAX_SPANS``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
from array import array
from time import perf_counter

OUTSIDE = "-"
SAMPLE_EVERY = 500  # keep the raw spans of one tick in this many
MAX_SPANS = 20000  # raw spans kept per job


def _scan_rays(tracer, args, kwargs, result, token):
    tracer.count("perception.rays", len(result.ranges))


def _classified_hits(tracer, args, kwargs, result, token):
    tracer.count("perception.hits", len(result))
    tracer.count("perception.scans", 1)
    if len(result):
        tracer.count("perception.hit_scans", 1)


def _damped(tracer, args, kwargs, result, token):
    if result[1]:
        tracer.count("control.damped_ticks", 1)


def _gate_before(tracer, args, kwargs):
    return args[0].tripped


def _gate_trip(tracer, args, kwargs, result, was_tripped):
    if result and not was_tripped:
        tracer.count("separation.gate.trips", 1)


def _path_arg(args, kwargs, index):
    return args[index] if len(args) > index else kwargs["path"]


def _bytes_read(tracer, args, kwargs):
    tracer.count("tracefile.read.bytes", os.path.getsize(_path_arg(args, kwargs, 0)))


def _bytes_written(tracer, args, kwargs, result, token):
    tracer.count("tracefile.write.bytes", os.path.getsize(_path_arg(args, kwargs, 1)))


def _run_enter(tracer, args, kwargs):
    scenario = args[0] if args else kwargs["scenario"]
    tracer.context = scenario.mode.value
    tracer.begin_ticks()


def _run_exit(tracer, args, kwargs, result, token):
    tracer.context = OUTSIDE
    tracer.sampling = True
    tracer.results.append(result)


def _tick_done(tracer, args, kwargs, result, token):
    tracer.end_tick()


# (binding, attribute, layer, enter hook, exit hook, timed).  A binding is a
# module ("ssmcell.engine") or a class ("ssmcell.control:Controller").  An
# untimed entry only runs its hooks and records no span.
TARGETS = (
    ("ssmcell.engine", "run", "engine.run", _run_enter, _run_exit, True),
    ("ssmcell.engine", "detect_deadlock", "engine.detect_deadlock", None, None, True),
    ("ssmcell.engine", "FrameChain", "kinematics.frame_chain", None, None, True),
    ("ssmcell.kinematics:FrameChain", "jacobian_matrix", "kinematics.jacobian", None, None, True),
    ("ssmcell.control:Controller", "step", "control.step", None, _tick_done, True),
    ("ssmcell.control:Controller", "_resolve_rates", "control.resolve", None, _damped, True),
    ("ssmcell.separation:SeparationInputs", "with_speeds", "separation.with_speeds", None, None, True),
    ("ssmcell.separation", "compute_msd_dynamic", "separation.msd", None, None, True),
    ("ssmcell.separation:ViolationGate", "update", "separation.gate", _gate_before, _gate_trip, False),
    ("ssmcell.perception", "simulate_scan", "perception.scan", None, _scan_rays, True),
    ("ssmcell.perception", "scan_to_occupancy", "perception.classify", None, _classified_hits, True),
    ("ssmcell.perception", "merge_occupancy", "perception.merge", None, None, True),
    ("ssmcell.perception", "skeleton_sample", "perception.skeleton", None, None, True),
    ("ssmcell.perception", "pose_landmarks", "perception.landmarks", None, None, True),
    ("ssmcell.zones", "classify_point", "zones.classify_point", None, None, True),
    ("ssmcell.zones", "classify_footprint", "zones.classify_footprint", None, None, True),
    ("ssmcell.scenario", "parse_scenario", "scenario.parse", None, None, True),
    ("ssmcell.scenario:HumanScript", "state_at", "scenario.state_at", None, None, True),
    ("ssmcell.stability", "lyapunov_value", "stability.lyapunov_value", None, None, True),
    ("ssmcell.stability", "evaluate_trace", "stability.evaluate", None, None, True),
    ("ssmcell.kpi", "report", "kpi.report", None, None, True),
    ("ssmcell.tracefile", "write_trace", "tracefile.write", None, _bytes_written, True),
    ("ssmcell.tracefile", "read_trace", "tracefile.read", _bytes_read, None, True),
    ("ssmcell.tracefile", "emit_profile_data", "tracefile.profile", None, None, True),
    ("ssmcell.tracefile", "write_events", "tracefile.events", None, None, True),
    ("ssmcell.tracefile", "read_events", "tracefile.events", None, None, True),
    ("ssmcell.bridge:SpeedBridge", "publish", "bridge.publish", None, None, True),
)

# The untraced timed runs wrap only engine.run, which is called once per
# simulated mode, to split the simulation time from the rest of the job and to
# hand its results to the job.
RUN_TIMER = TARGETS[:1]


def resolve(binding: str):
    module_name, _, class_name = binding.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def sites(binding: str, attr: str):
    """The object a target names, and every (owner, name) where callers find it."""
    owner = resolve(binding)
    original = getattr(owner, attr)
    if not callable(original):
        raise TypeError(f"{binding}.{attr} is not callable")
    if isinstance(owner, type) or isinstance(original, type):
        return original, [(owner, attr)]
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "ssmcell"]
    return original, [(m, n) for m in modules for n, v in list(vars(m).items()) if v is original]


class Tracer:
    """Aggregating span recorder; install it with ``installed()``."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.stats: dict[tuple[str, str], list] = {}  # (context, layer) -> [calls, s, self_s]
        self.counters: dict[tuple[str, str], float] = {}
        self.spans: list[tuple] = []  # (job_id, span_id, parent_id, layer, start, end)
        self.tick_times: dict[str, list[array]] = {}  # context -> Controller.step return times
        self.results: list = []  # what engine.run returned, for the job to check
        self.context = OUTSIDE
        self.sampling = True
        self._ticks = 0
        self._stack: list[list] = []  # open spans: [span_id, seconds covered by children]
        self._next_id = 0
        self._patches: list[tuple[object, str, bool, object]] = []

    # -- counters and ticks -------------------------------------------------

    def count(self, name: str, amount: float = 1):
        key = (self.context, name)
        self.counters[key] = self.counters.get(key, 0) + amount

    def begin_ticks(self):
        self.tick_times.setdefault(self.context, []).append(array("d"))
        self._ticks = 0
        self.sampling = True

    def end_tick(self):
        runs = self.tick_times.get(self.context)
        if runs:
            runs[-1].append(perf_counter())
        self._ticks += 1
        self.sampling = self._ticks % SAMPLE_EVERY == 0

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer, fn, enter, exit_, timed):
        tracer = self
        if not timed:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                token = enter(tracer, args, kwargs) if enter else None
                result = fn(*args, **kwargs)
                if exit_:
                    exit_(tracer, args, kwargs, result, token)
                return result

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            token = enter(tracer, args, kwargs) if enter else None
            key = (tracer.context, layer)
            stack = tracer._stack
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                st = tracer.stats.get(key)
                if st is None:
                    st = tracer.stats[key] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += duration
                st[2] += duration - frame[1]
                if (tracer.sampling or not stack) and len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((tracer.job_id, frame[0], parent, layer, start, end))
            if exit_:
                exit_(tracer, args, kwargs, result, token)
            return result

        return spanned

    def _patch(self, owner, attr, wrapper):
        had = attr in vars(owner)
        original = vars(owner)[attr] if had else getattr(owner, attr)
        self._patches.append((owner, attr, had, original))
        setattr(owner, attr, wrapper)

    def install(self, targets=TARGETS):
        for binding, attr, layer, enter, exit_, timed in targets:
            original, where = sites(binding, attr)
            wrapper = self._wrap(layer, original, enter, exit_, timed)
            for owner, name in where:
                self._patch(owner, name, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, had, original = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._stack.clear()
        self.context = OUTSIDE

    @contextlib.contextmanager
    def installed(self, targets=TARGETS):
        try:
            self.install(targets)
            yield self
        finally:
            self.restore()

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls, busy seconds and self seconds per layer, summed over contexts."""
        out: dict[str, dict[str, float]] = {}
        for (_, layer), (calls, busy, own) in self.stats.items():
            agg = out.setdefault(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += calls
            agg["s"] += busy
            agg["self_s"] += own
        return out

    def counter_totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for (_, name), value in self.counters.items():
            out[name] = out.get(name, 0) + value
        return out

    def tick_intervals_us(self, context: str | None = None) -> list[float]:
        """Host time between successive Controller.step returns, within each run."""
        out = []
        for ctx, runs in self.tick_times.items():
            if context is not None and ctx != context:
                continue
            for times in runs:
                out.extend((b - a) * 1e6 for a, b in zip(times, times[1:]))
        return out

    def by_context(self) -> dict[str, dict]:
        """Per-context breakdown for the report file (one entry per simulated mode)."""
        out: dict[str, dict] = {}
        for (ctx, layer), (calls, busy, own) in sorted(self.stats.items()):
            out.setdefault(ctx, {"layers": {}, "counters": {}})["layers"][layer] = {
                "calls": calls,
                "s": busy,
                "self_s": own,
            }
        for (ctx, name), value in sorted(self.counters.items()):
            out.setdefault(ctx, {"layers": {}, "counters": {}})["counters"][name] = value
        for ctx in out:
            ticks = sorted(self.tick_intervals_us(ctx))
            out[ctx]["tick_p50_us"] = percentile(ticks, 50)
            out[ctx]["tick_p99_us"] = percentile(ticks, 99)
        return out


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 for an empty list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def bindings(targets=TARGETS) -> dict[tuple[int, str], object]:
    """Every (owner, attribute) a tracer would patch, mapped to its current object."""
    out = {}
    for binding, attr, *_ in targets:
        for owner, name in sites(binding, attr)[1]:
            out[(id(owner), name)] = vars(owner).get(name, getattr(owner, name))
    return out
