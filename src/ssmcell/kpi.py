"""Production metrics from completed runs: cycle time, reaction time, flexibility, OEE.

Definitions used here (the source material does not pin them down):
flexibility rate is the fraction of task-pending time spent at or above the
collaborative speed level; OEE decomposes as availability x performance x
quality with quality fixed at 1.0 in simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import COLLABORATIVE_FRACTION
from .engine import Event, EventKind, SimResult, ideal_cycle_time
from .trace import Trace

_FRACTION_TOL = 1e-12
# An intrusion is paired with the first command change inside this window;
# intrusions the controller rightly ignores (opposite-quadrant events) do not
# demand a reaction and are excluded from the mean.
REACTION_WINDOW = 0.25  # s


class KpiError(ValueError):
    pass


class IncompleteRunError(KpiError):
    pass


@dataclass(frozen=True)
class KpiReport:
    mode_label: str
    cycle_time: float
    reaction_time: float | None  # None marks the undefined (zero-intrusion) case
    flexibility_rate: float
    oee: float

    def __post_init__(self):
        for name in ("cycle_time", "flexibility_rate", "oee"):
            if not math.isfinite(getattr(self, name)):
                raise KpiError(f"{name} must be finite")
        if not 0.0 <= self.flexibility_rate <= 1.0:
            raise KpiError("flexibility_rate outside [0, 1]")
        if not 0.0 <= self.oee <= 1.0:
            raise KpiError("oee outside [0, 1]")


def cycle_time(events: list[Event]) -> float:
    """Mean time per completed cycle (run start or previous completion to completion)."""
    done = sorted(e.t for e in events if e.kind == EventKind.CYCLE_DONE)
    if not done:
        raise IncompleteRunError("no completed cycle in the event log")
    spans = []
    prev = 0.0
    for t in done:
        spans.append(t - prev)
        prev = t
    return sum(spans) / len(spans)


def reaction_time(trace: Trace, events: list[Event]) -> float | None:
    """Mean latency from a zone intrusion to the first resulting command change.

    Returns None when the run had no intrusions (undefined metric).
    """
    enters = sorted(e.t for e in events if e.kind == EventKind.ZONE_ENTER)
    if not enters:
        return None
    switches = sorted(e.t for e in events if e.kind == EventKind.MODE_SWITCH)
    deltas = []
    for te in enters:
        after = [ts for ts in switches if te <= ts <= te + REACTION_WINDOW]
        if after:
            deltas.append(after[0] - te)
    if not deltas:
        return None
    return sum(deltas) / len(deltas)


def flexibility_rate(trace: Trace) -> float:
    """Share of task-pending time with the commanded fraction at collaborative level or above."""
    pending = trace.mask("pending", True)
    n_pending = int(np.count_nonzero(pending))
    if not n_pending:
        return 1.0
    fraction = trace.column("fraction")[pending]
    productive = int(np.count_nonzero(fraction >= COLLABORATIVE_FRACTION - _FRACTION_TOL))
    return productive / n_pending


def oee(trace: Trace, events: list[Event], ideal_cycle: float) -> float:
    """Availability x performance x quality (quality = 1.0 in simulation).

    Availability counts detected deadlock windows as downtime against the
    task-pending (planned) time; performance is the ideal over the actual mean
    cycle time, capped at 1.
    """
    if ideal_cycle is None or not math.isfinite(ideal_cycle) or ideal_cycle <= 0:
        raise KpiError("ideal_cycle_time must be a positive finite value")
    actual = cycle_time(events)
    pending = trace.mask("pending", True)
    n_pending = int(np.count_nonzero(pending))
    if not n_pending:
        return 0.0
    dt = trace[1].t - trace[0].t if len(trace) > 1 else 0.0
    planned = n_pending * dt
    downtime = sum(
        float(dict(p.split("=") for p in e.payload.split(";"))["duration"])
        for e in events
        if e.kind == EventKind.DEADLOCK
    )
    availability = max(0.0, min(1.0, (planned - downtime) / planned)) if planned > 0 else 0.0
    performance = min(1.0, ideal_cycle / actual)
    quality = 1.0
    return availability * performance * quality


def report(result: SimResult, ideal_cycle: float | None = None) -> KpiReport:
    """All four metrics for one completed run.

    result.events must already hold the run's deadlocks (engine.detect_deadlock,
    as run_benchmark adds them): OEE counts as downtime only the DEADLOCK
    events it is given.
    """
    if ideal_cycle is None:
        ideal_cycle = ideal_cycle_time(result.scenario)
    return KpiReport(
        mode_label=result.scenario.mode.value,
        cycle_time=cycle_time(result.events),
        reaction_time=reaction_time(result.trace, result.events),
        flexibility_rate=flexibility_rate(result.trace),
        oee=oee(result.trace, result.events, ideal_cycle),
    )


def comparison_table(reports: list[KpiReport]) -> str:
    """Human-readable side-by-side table, one row per metric."""
    headers = ["metric"] + [r.mode_label for r in reports]
    rows = [
        ["cycle_time_s"] + [f"{r.cycle_time:.3f}" for r in reports],
        ["reaction_time_s"]
        + [("undefined" if r.reaction_time is None else f"{r.reaction_time:.6f}") for r in reports],
        ["flexibility_rate"] + [f"{r.flexibility_rate:.4f}" for r in reports],
        ["oee"] + [f"{r.oee:.4f}" for r in reports],
    ]
    widths = [max(len(str(row[i])) for row in [headers] + rows) for i in range(len(headers))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*["-" * w for w in widths])]
    lines.extend(fmt.format(*row) for row in rows)
    return "\n".join(lines) + "\n"
