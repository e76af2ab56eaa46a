"""The bundled runs against the trace digests the benchmark records.

``perfbench/references.json`` pins the sha256 of each bundled run's trace
lines; the benchmark checks every run it times against them.  These runs
repeat its workloads: ``approach_retreat`` with range noise at the default
seed, and ``sorting_benchmark`` in each mode.  The file is only read.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from ssmcell.cli import NOISE_AMPLITUDE
from ssmcell.engine import run
from ssmcell.scenario import SimMode
from ssmcell.tracefile import trace_lines
from helpers import bundled

REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "references.json").read_text()
)


def digest(trace) -> str:
    h = hashlib.sha256()
    for line in trace_lines(trace):
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def test_approach_matches_the_reference():
    scenario = dataclasses.replace(
        bundled("approach_retreat"), seed=REFERENCES["default_seed"], noise=NOISE_AMPLITUDE
    )
    assert scenario.mode == SimMode.PROPOSED
    assert digest(run(scenario).trace) == REFERENCES["approach"]["digests"]["proposed"]


@pytest.mark.parametrize("mode", list(SimMode), ids=lambda m: m.value)
def test_sorting_matches_the_reference(mode):
    scenario = bundled("sorting_benchmark").with_mode(mode)
    assert digest(run(scenario).trace) == REFERENCES["sorting"]["digests"][mode.value]
