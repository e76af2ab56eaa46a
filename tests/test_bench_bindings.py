"""The names the benchmark's tracer wraps and its jobs call must exist in the package.

perfbench/tracer.py patches ssmcell functions and methods by name, and
perfbench/job.py calls ssmcell as ``m.<module>.<name>``.  A rename or deletion
there would otherwise surface only in a benchmark run.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402


def test_every_traced_name_resolves_to_a_callable():
    # bindings() raises for a missing or non-callable name.
    found = tracer.bindings()
    assert len(found) >= len(tracer.TARGETS)
    assert all(callable(obj) for obj in found.values())


def test_every_job_call_resolves():
    # job.py reaches the package only through its Package argument, named m.
    tree = ast.parse((PERFBENCH / "job.py").read_text(encoding="utf-8"))
    used = {
        (node.value.attr, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "m"
    }
    assert ("engine", "run") in used and len(used) > 10
    missing = [
        f"{module}.{name}"
        for module, name in sorted(used)
        if not hasattr(importlib.import_module(f"ssmcell.{module}"), name)
    ]
    assert missing == []


def test_tracefile_call_contract():
    # The tracer's byte counters read write_trace's second argument and
    # read_trace's first, by position or as ``path``.
    from ssmcell import tracefile

    assert list(inspect.signature(tracefile.write_trace).parameters)[:2] == ["trace", "path"]
    assert list(inspect.signature(tracefile.read_trace).parameters)[:1] == ["path"]


def walking_operator():
    """An operator who walks up to the robot's side, stands and walks away."""
    from ssmcell.perception import Posture
    from ssmcell.scenario import HumanScript, HumanWaypoint

    return HumanScript(
        waypoints=(
            HumanWaypoint(0.0, 2.2, -0.3, Posture.STANDING),
            HumanWaypoint(1.2, 0.9, -0.3, Posture.REACHING),
            HumanWaypoint(2.2, 0.9, -0.3, Posture.STANDING),
            HumanWaypoint(3.4, 2.2, 0.3, Posture.STANDING),
        )
    )


@pytest.mark.parametrize("walking", [False, True], ids=["parked", "walking"])
def test_controller_step_runs_once_per_evaluated_tick(walking, monkeypatch):
    # The tracer's engine.tick.* metrics time the gaps between Controller.step
    # returns.  engine.run calls it once per evaluated tick, in tick order, at
    # that tick's t; the ticks between are those of a span that repeats the
    # row before it but for t and the human columns, and get no step.
    import numpy as np

    from ssmcell.control import Controller
    from ssmcell.engine import _HUMAN_COLUMNS, run
    from ssmcell.trace import SLOTS
    from helpers import tiny_scenario

    times = []
    step = Controller.step

    def counted(self, t, **kwargs):
        times.append(t)
        return step(self, t, **kwargs)

    monkeypatch.setattr(Controller, "step", counted)
    humans = {"humans": (walking_operator(),)} if walking else {}
    result = run(tiny_scenario(duration=4.0, **humans))
    rows = result.trace.values("t")
    assert len(rows) == round(4.0 / result.scenario.control_period)
    assert times == sorted(set(times)) and times[0] == 0.0
    row_of = {t: k for k, t in enumerate(rows)}
    evaluated = [row_of[t] for t in times]  # raises unless each t is a row's
    assert len(evaluated) < len(rows) / 2
    skipped = np.setdiff1d(np.arange(len(rows)), evaluated)
    own = [SLOTS[name].index for name in ("t", *_HUMAN_COLUMNS)]
    bits = np.delete(result.trace.floats, own, axis=1).view(np.int64)
    assert np.array_equal(bits[skipped], bits[skipped - 1])
    codes = result.trace.codes
    assert np.array_equal(codes[skipped], codes[skipped - 1])
    if walking:  # spans run through the walks: unstepped rows move the operator
        human_x = result.trace.column("human_x")
        assert np.count_nonzero(human_x[skipped] != human_x[skipped - 1]) > 500


def test_traced_run_matches_untraced_and_counts_the_scan_layers():
    # The tracer's perception hooks read len(result.ranges) of simulate_scan and
    # len(result) of scan_to_occupancy; engine.run must reach all three scan
    # layers through those names, and a traced run must record the same trace.
    import hashlib

    from ssmcell import engine
    from ssmcell.tracefile import trace_lines
    from helpers import tiny_scenario

    def digest(result):
        return hashlib.sha256("\n".join(trace_lines(result.trace)).encode()).hexdigest()

    scenario = tiny_scenario(duration=1.0, noise=0.005, seed=17)
    untraced = digest(engine.run(scenario))
    tr = tracer.Tracer("guard")
    with tr.installed():
        traced = digest(engine.run(scenario))
    assert traced == untraced
    layers = tr.layer_totals()
    for layer in ("perception.scan", "perception.classify", "perception.merge"):
        assert layers[layer]["calls"] > 0, layer
    counters = tr.counter_totals()
    assert counters["perception.rays"] > 0
    assert counters["perception.hits"] > 0
