"""Deterministic fixed-timestep orchestration of the cell: sensors, controller, task, trace."""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import perception
from .control import CommandSource, Controller, ControllerConfig, ModeKind
from .kinematics import FrameChain, Jacobian, tcp_position
from .perception import ScannerMount, min_distance_tcp, pose_landmarks
from .scenario import Scenario, SimMode, TaskStep, build_gains, build_model
from .separation import msd_at_speeds
from .stability import LyapunovSample, lyapunov_value
from .trace import Trace
from .zones import Quadrant, Zone, ZoneLayout, classify_footprint, quadrant_of

ARRIVAL_TOL = 0.003  # m, TCP-to-target distance that counts as arrived
_GRID_EPS = 1e-9
_ROW_FLOATS = struct.Struct("3d")  # exact bits of d_i, v_task and lyap
_NO_MOTION = np.zeros(3)  # the task direction of a tick without task motion
_NO_MOTION.flags.writeable = False


class EventKind(enum.Enum):
    ZONE_ENTER = "zone_enter"
    ZONE_EXIT = "zone_exit"
    MODE_SWITCH = "mode_switch"
    ESTOP = "estop"
    DEADLOCK = "deadlock"
    TASK_STEP_DONE = "task_step_done"
    CYCLE_DONE = "cycle_done"


@dataclass(frozen=True)
class Event:
    t: float
    kind: EventKind
    payload: str = ""


@dataclass(frozen=True)
class SimResult:
    scenario: Scenario
    layout: ZoneLayout
    trace: Trace
    events: list[Event]

    def lyapunov_samples(self) -> list[LyapunovSample]:
        return lyapunov_samples(self.trace)


def lyapunov_samples(trace: Trace) -> list[LyapunovSample]:
    """The energy series of a trace, one sample per tick."""
    return list(
        map(LyapunovSample, trace.values("t"), trace.values("lyap"), trace.values("mode"))
    )


def build_scanner_mounts(scenario: Scenario, layout: ZoneLayout) -> tuple[ScannerMount, ...]:
    if not scenario.scanners:
        return perception.default_scanner_mounts(layout)
    return tuple(
        ScannerMount(x=p.x, y=p.y, heading=p.heading, plane_height=layout.laser_mount_height)
        for p in scenario.scanners
    )


def _expand_plan(scenario: Scenario) -> list[tuple[int, TaskStep]]:
    steps = scenario.task.steps_for(scenario.mode)
    return [(cycle, step) for cycle in range(scenario.task.cycles) for step in steps]


def nominal_task_duration(scenario: Scenario, mode: SimMode) -> float:
    """Robot-only task duration at nominal speed: segment lengths plus dwells."""
    model = build_model(scenario)
    pos = tcp_position(model, np.asarray(scenario.q0))
    total = 0.0
    for _ in range(scenario.task.cycles):
        for step in scenario.task.steps_for(mode):
            target = np.asarray(step.target)
            total += float(np.linalg.norm(target - pos)) / scenario.nominal_speed
            total += step.dwell
            pos = target
    return total


def ideal_cycle_time(scenario: Scenario) -> float:
    """Nominal solo duration of the full task divided by the scenario's parallelism."""
    return nominal_task_duration(scenario, SimMode.AUTONOMOUS) / scenario.parallelism


class _TaskTracker:
    """Walks the expanded step plan: move the TCP to each target, then dwell.

    Dwell (processing) time advances only while the commanded fraction is
    positive, so a stalled robot accrues pending time instead of progress.
    """

    def __init__(self, plan: list[tuple[int, TaskStep]], nominal_speed: float, events: list):
        self.plan = plan
        self.nominal_speed = nominal_speed
        self.idx = 0
        self.dwelling = False
        self.dwell_left = 0.0
        self.events = events  # the run's event log, appended to as steps finish

    @property
    def pending(self) -> bool:
        return self.idx < len(self.plan)

    def advance(self, t: float, tcp: np.ndarray, fraction: float, dt: float) -> np.ndarray:
        """Commanded task direction for this tick (unit vector, shortened on arrival)."""
        if not self.pending:
            return _NO_MOTION
        cycle, step = self.plan[self.idx]
        if not self.dwelling:
            delta = np.asarray(step.target) - tcp
            dist = float(np.linalg.norm(delta))
            if dist > ARRIVAL_TOL:
                if fraction <= 0.0:
                    return _NO_MOTION
                # Never overshoot: cap the commanded speed at dist/dt.
                scale = min(1.0, dist / (fraction * self.nominal_speed * dt))
                return delta / dist * scale
            self.dwelling = True
            self.dwell_left = step.dwell
        if fraction > 0.0:
            self.dwell_left -= dt
        if self.dwell_left <= 1e-12:
            done = f"step={step.name};cycle={cycle}"
            self.events.append(Event(t, EventKind.TASK_STEP_DONE, done))
            if self.idx + 1 >= len(self.plan) or self.plan[self.idx + 1][0] != cycle:
                self.events.append(Event(t, EventKind.CYCLE_DONE, f"cycle={cycle}"))
            self.idx += 1
            self.dwelling = False
        return _NO_MOTION


def run(scenario: Scenario, bridge=None) -> SimResult:
    """Execute one scenario deterministically; returns the trace and event log.

    The robot integrates commanded joint rates semi-implicitly at the control
    period; sensors sample on their native grids with zero-order hold between
    arrivals.  The optional bridge receives one message per tick and never
    feeds anything back into the simulation.
    """
    layout = scenario.build_layout()
    model = build_model(scenario)
    gains = build_gains(scenario)
    dt = scenario.control_period
    n_ticks = int(round(scenario.duration / dt))
    rng = np.random.default_rng(scenario.seed)
    mounts = build_scanner_mounts(scenario, layout)
    scan_period = mounts[0].scan_period
    skeleton_period = 1.0 / perception.SKELETON_RATE

    controller = Controller(
        model,
        layout,
        gains,
        scenario.separation,
        ControllerConfig(
            control_period=dt,
            nominal_speed=scenario.nominal_speed,
            scan_period=scan_period,
            skeleton_period=skeleton_period,
            sequential=scenario.sequential,
        ),
    )
    controller.fraction = 1.0  # cold start at nominal speed; arbitration pulls it down
    events: list[Event] = []
    tracker = _TaskTracker(_expand_plan(scenario), scenario.nominal_speed, events)

    q = np.asarray(scenario.q0, dtype=float)
    q_ref = q.copy()
    e_prev = np.zeros(6)
    prev_tcp: np.ndarray | None = None
    prev_mode: ModeKind | None = None
    prev_source: CommandSource | None = None
    prev_zone = [Zone.NORMAL for _ in scenario.humans]
    ignore_humans = scenario.mode == SimMode.AUTONOMOUS
    quadrant_blind = scenario.mode == SimMode.TRADITIONAL

    # The laser pipeline is open-loop: a scan's occupancy depends on the human
    # script, the mounts, the layout, the mode and rng, never on q or the
    # controller.  So every scan is cast before the first tick.  The scanner
    # fires on its own grid: scan j is taken at scan_times[j], and tick
    # scan_starts[j] is the first tick at or after it (the last entry,
    # n_ticks, is never reached).
    scan_grid = np.floor(np.arange(n_ticks) * dt / scan_period + _GRID_EPS)
    scan_ticks, scan_starts = np.unique(scan_grid, return_index=True)
    scan_times = (scan_ticks * scan_period).tolist()
    scan_starts = scan_starts.tolist() + [n_ticks]
    if ignore_humans or not scenario.humans:
        occupancy = [{Quadrant.LEFT: Zone.NORMAL, Quadrant.RIGHT: Zone.NORMAL}] * len(scan_times)
    else:
        occupancy = perception.scan_occupancies(
            mounts,
            [tuple(s.state_at(t) for s in scenario.humans) for t in scan_times],
            scan_times,
            layout,
            rng=rng,
            noise=scenario.noise,
            quadrant_blind=quadrant_blind,
        )

    trace = Trace.empty(n_ticks)
    n_scans = 0
    last_skel_tick = -1
    seq = 0
    # A tick is quiescent when its inputs are bit-identical to the last
    # tick's: the scan and skeleton messages carry what they carried before,
    # the tracked human holds still (state_at returns the same object while a
    # script holds), and the controller repeats its last command, which it
    # does only while its messages, q, the reference, the task direction, the
    # fraction and the gate are unchanged.  A repeated command leaves q and
    # the reference as they are, and a quiescent tick whose distance, pending
    # flag, task speed and energy match the last row copies that row with the
    # new t.  Every stage also reuses its last result while its own inputs are
    # unchanged: kinematics while q is, a human's zone while its state is, the
    # human distance while the pose and the TCP are.  Reused values are the
    # floats a full evaluation gives, so the trace is byte-identical.
    humans: list = [None] * len(scenario.humans)
    q_key = None
    skel_human = skel_tcp = None  # what the last skeleton distance was measured from
    pose_human = None  # the state the landmarks were built from
    d_tcp = None  # the tcp array that d_human was measured from
    energy_key = None
    row_human = row_key = None  # what a repeated row must match
    repeated = False

    for i in range(n_ticks):
        t = i * dt
        prev_humans, humans = humans, [script.state_at(t) for script in scenario.humans]
        q_bytes = q.tobytes()
        if q_bytes != q_key:
            q_key = q_bytes
            chain = FrameChain(model, q)
            tcp = chain.tcp
            J = Jacobian(matrix=chain.jacobian_matrix())
        if prev_tcp is None or tcp is prev_tcp:
            tcp_speed = 0.0
        else:
            tcp_speed = float(np.linalg.norm(tcp - prev_tcp)) / dt

        # Sensors fire on their own grids; the controller holds the last message.
        if i == scan_starts[n_scans]:
            controller.offer_scan(scan_times[n_scans], occupancy[n_scans])
            n_scans += 1
        skel_tick = int(math.floor(t / skeleton_period + _GRID_EPS))
        if skel_tick > last_skel_tick:
            last_skel_tick = skel_tick
            t_skel = skel_tick * skeleton_period
            if ignore_humans or not scenario.humans:
                controller.offer_skeleton(t_skel, math.inf, 0.0)
            else:
                tracked = scenario.humans[0].state_at(t_skel)
                if tracked is not skel_human or tcp is not skel_tcp:
                    skel_human, skel_tcp = tracked, tcp
                    frame = perception.skeleton_sample(tracked, t_skel)
                    d_i, _ = min_distance_tcp(frame, tcp)
                controller.offer_skeleton(t_skel, d_i, tracked.walk_speed)

        # Ground-truth zone occupancy drives the event log (nested enters/exits).
        for h, human in enumerate(humans):
            if human is prev_humans[h]:
                continue
            zone = classify_footprint(layout, human.ground, human.footprint_radius).zone
            if zone > prev_zone[h]:
                for level in range(prev_zone[h] + 1, zone + 1):
                    events.append(
                        Event(t, EventKind.ZONE_ENTER, f"zone={Zone(level).name.lower()};human={h}")
                    )
            elif zone < prev_zone[h]:
                for level in range(prev_zone[h], zone, -1):
                    events.append(
                        Event(t, EventKind.ZONE_EXIT, f"zone={Zone(level).name.lower()};human={h}")
                    )
            prev_zone[h] = zone

        d_true = math.inf
        human0 = humans[0] if humans else None
        if human0 is not None:
            if human0 is not pose_human:
                pose_human = human0
                landmarks = pose_landmarks(human0)
                d_tcp = None
            if tcp is not d_tcp:
                d_tcp = tcp
                d_human = float(np.min(np.linalg.norm(landmarks - tcp, axis=1)))
            d_true = d_human

        task_dir = tracker.advance(t, tcp, controller.fraction, dt)

        command = controller.step(
            t,
            robot_quadrant=quadrant_of(tcp[1]),
            task_direction=task_dir,
            joint_reference=q_ref,
            q=q,
            tcp_speed=tcp_speed,
            J=J,
        )
        if prev_mode is not None and command.mode.kind != prev_mode:
            events.append(
                Event(
                    t,
                    EventKind.MODE_SWITCH,
                    f"mode={command.mode.kind.value};fraction={command.mode.fraction!r}",
                )
            )
        if command.source == CommandSource.ESTOP and prev_source != CommandSource.ESTOP:
            events.append(Event(t, EventKind.ESTOP, "source=watchdog"))
        prev_mode = command.mode.kind
        prev_source = command.source

        # A repeated command means q and q_ref equal the last tick's, so e does
        # and edot is zero; after two in a row the energy value is unchanged.
        if not (repeated and controller.repeated):
            e = q_ref - q
            edot = (e - e_prev) / dt if i else np.zeros(6)
            e_prev = e
            energy_bytes = e.tobytes() + edot.tobytes()
            if energy_bytes != energy_key:
                energy_key = energy_bytes
                lyap = lyapunov_value(e, edot, gains)
        repeated = controller.repeated
        speed = 0.0 if task_dir is _NO_MOTION else float(np.linalg.norm(task_dir))
        v_task = speed * command.fraction * scenario.nominal_speed
        pending = tracker.pending
        key = (pending, _ROW_FLOATS.pack(d_true, v_task, lyap))
        if repeated and tcp is prev_tcp and human0 is row_human and key == row_key:
            trace.repeat(i, t)  # msd_now, too, is the last row's
        else:
            row_human, row_key = human0, key
            msd_now = msd_at_speeds(
                scenario.separation, human0.walk_speed if human0 else 0.0, tcp_speed
            )
            trace.record(
                i,
                t=t,
                q=q,
                qdot=command.qdot_cmd,
                tcp=tcp,
                tcp_speed=tcp_speed,
                human_x=float(human0.ground[0]) if human0 else math.nan,
                human_y=float(human0.ground[1]) if human0 else math.nan,
                human_speed=human0.walk_speed if human0 else 0.0,
                occ_left=controller.occupancy[Quadrant.LEFT],
                occ_right=controller.occupancy[Quadrant.RIGHT],
                d_i=d_true,
                dyn_msd=msd_now,
                mode=command.mode.kind,
                fraction=command.fraction,
                v_cap=command.v_cartesian,
                v_task=v_task,
                source=command.source,
                damped=command.damped,
                pending=pending,
                lyap=lyap,
            )
        if bridge is not None:
            bridge.publish(seq, t, command.mode.kind.value, command.fraction, d_true, msd_now)
            seq += 1

        # Semi-implicit integration: rates from the state at t applied over
        # [t, t+dt].  A repeated command repeats the last tick's step, which
        # left q and q_ref bit-for-bit as they were.
        if not repeated:
            q = q + command.qdot_cmd * dt
            q_ref = q_ref + command.qdot_task * dt
        prev_tcp = tcp

    return SimResult(scenario=scenario, layout=layout, trace=trace, events=events)


def detect_deadlock(trace: Trace, events: list[Event], stall_threshold: float = 5.0) -> list[Event]:
    """Deadlock events: standstill with pending task steps for longer than the threshold."""
    if not len(trace) or math.isinf(stall_threshold):
        return []
    times = trace.values("t")
    dt = times[1] - times[0] if len(times) > 1 else 0.0
    stalled = trace.mask("pending", True) & trace.mask("mode", ModeKind.STANDSTILL, ModeKind.ESTOP)
    # A stall starts at a stalled row and ends at the next row that is not, or
    # one tick after the last row.
    edges = np.flatnonzero(np.diff(stalled, prepend=False, append=False)).tolist()
    out: list[Event] = []
    for first, after in zip(edges[::2], edges[1::2]):
        start = times[first]
        end_t = times[after] if after < len(times) else times[-1] + dt
        if end_t - start > stall_threshold:
            out.append(Event(start, EventKind.DEADLOCK, f"duration={end_t - start!r}"))
    return out


def run_benchmark(scenario: Scenario) -> dict[SimMode, SimResult]:
    """Run the same human script and task under all three control configurations."""
    results = {}
    for mode in (SimMode.AUTONOMOUS, SimMode.TRADITIONAL, SimMode.PROPOSED):
        result = run(scenario.with_mode(mode))
        result.events.extend(detect_deadlock(result.trace, result.events, scenario.stall_threshold))
        results[mode] = result
    return results
