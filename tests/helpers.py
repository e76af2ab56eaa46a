"""Shared scenario helpers and independent oracles for the test suite."""

import dataclasses
import math

import numpy as np
from hypothesis import strategies as st

from ssmcell.perception import Posture
from ssmcell.scenario import HumanScript, HumanWaypoint, RobotTask, TaskStep, parse_scenario
from ssmcell.scenarios import bundled_scenario_path
from ssmcell.trace import Trace
from ssmcell.zones import Zone

DT = 0.002  # s, the control period of the bundled and tiny scenarios


def bundled(name):
    """A bundled scenario, parsed from its .scn file."""
    return parse_scenario(str(bundled_scenario_path(name)))


def oracle_transform_chain(model, q):
    """Independent 4x4 homogeneous-transform product, coded from scratch."""
    T = np.eye(4)
    for angle, row in zip(q, model.link_parameters):
        theta = angle + row.theta_offset
        ct, st = math.cos(theta), math.sin(theta)
        ca, sa = math.cos(row.alpha), math.sin(row.alpha)
        rot_z = np.array([[ct, -st, 0, 0], [st, ct, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        trans_z = np.eye(4)
        trans_z[2, 3] = row.d
        trans_x = np.eye(4)
        trans_x[0, 3] = row.a
        rot_x = np.array([[1, 0, 0, 0], [0, ca, -sa, 0], [0, sa, ca, 0], [0, 0, 0, 1]])
        T = T @ rot_z @ trans_z @ trans_x @ rot_x
    return T


def finite_difference_jacobian(model, q, h=1e-6):
    """Central finite differences of the transform chain (position and rotation)."""
    J = np.zeros((6, 6))
    T0 = oracle_transform_chain(model, q)
    for i in range(6):
        qp, qm = q.copy(), q.copy()
        qp[i] += h
        qm[i] -= h
        Tp = oracle_transform_chain(model, qp)
        Tm = oracle_transform_chain(model, qm)
        J[:3, i] = (Tp[:3, 3] - Tm[:3, 3]) / (2 * h)
        dR = (Tp[:3, :3] - Tm[:3, :3]) / (2 * h)
        W = dR @ T0[:3, :3].T
        J[3:, i] = [W[2, 1], W[0, 2], W[1, 0]]
    return J


def oracle_rect_member(layout, x, y, z):
    """Brute-force innermost-rectangle membership, coded independently."""
    z_lo, z_hi = layout.height_band
    if not (z_lo <= z <= z_hi):
        return Zone.NORMAL
    for zone in (Zone.DANGER, Zone.WARNING):
        r = layout.extent(zone)
        if r.x_min <= x <= r.x_max and r.y_min <= y <= r.y_max:
            return zone
    return Zone.NORMAL


def tiny_scenario(**overrides):
    """Short run: parked human in the right quadrant, robot sorting on the left."""
    base = bundled("sorting_benchmark")
    duration = overrides.get("duration", 12.0)
    if "humans" not in overrides:
        park_end = min(11.0, 0.9 * duration)
        overrides["humans"] = (
            HumanScript(
                waypoints=(
                    HumanWaypoint(0.0, 0.55, 0.35, Posture.STANDING),
                    HumanWaypoint(park_end, 0.55, 0.35, Posture.STANDING),
                )
            ),
        )
    task = RobotTask(
        steps=(
            TaskStep("sort_a", (0.35, -0.30, 0.25), 2.0),
            TaskStep("sort_b", (0.20, -0.35, 0.30), 6.5),
        )
    )
    fields = dict(task=task, duration=duration, name="tiny")
    fields.update(overrides)
    return dataclasses.replace(base, **fields)


def trace_from_rows(rows):
    """A Trace holding the given TraceRows, in order."""
    trace = Trace.empty(len(rows))
    for i, row in enumerate(rows):
        trace.record(i, **row._asdict())
    return trace


def oracle_deadlocks(rows, stall_threshold):
    """Row-by-row deadlock windows: (start, end) of every pending standstill
    stretch longer than the threshold."""
    from ssmcell.control import ModeKind

    rows = list(rows)
    dt = rows[1].t - rows[0].t if len(rows) > 1 else 0.0
    out, start = [], None
    for row in rows + [None]:
        if row is not None and row.pending and row.mode == ModeKind.STANDSTILL:
            start = row.t if start is None else start
            continue
        end = row.t if row is not None else rows[-1].t + dt
        if start is not None and end - start > stall_threshold:
            out.append((start, end))
        start = None
    return out


def oracle_profile_intervals(rows):
    """Row-by-row (start, end, zone) stretches of the worse quadrant occupancy."""
    rows = list(rows)
    dt = rows[1].t - rows[0].t if len(rows) > 1 else 0.0
    out = []
    current, t0 = max(rows[0].occ_left, rows[0].occ_right), rows[0].t
    for row in rows[1:]:
        zone = max(row.occ_left, row.occ_right)
        if zone != current:
            out.append((t0, row.t, current))
            current, t0 = zone, row.t
    out.append((t0, rows[-1].t + dt, current))
    return out


# Generated operators, shared by every property over generated scenarios.

POSITIONS = st.tuples(st.floats(0.3, 2.2), st.floats(-0.6, 0.6))


@st.composite
def waypoint_times(draw, after):
    """A time off the scan and skeleton grids, after ``after``; half of them
    on a tick, as the product k * DT the engine forms."""
    t = after + draw(st.floats(0.05, 0.9))
    return round(t / DT) * DT if draw(st.booleans()) else t


@st.composite
def human_scripts(draw, duration):
    """Walks and holds whose waypoint times lie off the scan and skeleton grids."""
    t = draw(waypoint_times(-0.05))
    x, y = draw(POSITIONS)
    waypoints = [HumanWaypoint(t, x, y, draw(st.sampled_from(Posture)))]
    for _ in range(draw(st.integers(0, 5))):
        t = draw(waypoint_times(t))
        if t >= duration:
            break
        if draw(st.booleans()):
            x, y = draw(POSITIONS)
        waypoints.append(HumanWaypoint(t, x, y, draw(st.sampled_from(Posture))))
    return HumanScript(waypoints=tuple(waypoints))
