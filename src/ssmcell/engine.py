"""Deterministic fixed-timestep orchestration of the cell: sensors, controller, task, trace."""

from __future__ import annotations

import bisect
import enum
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import perception
from .control import CONTROL_PERIOD, NOMINAL_SPEED, CommandSource, Controller, ModeKind
from .kinematics import FrameChain, Jacobian, tcp_position
from .scenario import HumanTrack, Scenario, SimMode, TaskStep, build_gains, build_model
from .separation import SeparationInputs, msd_at_speeds
from .stability import LyapunovSeries, lyapunov_value
from .trace import MODES, Trace
from .zones import Zone, ZoneLayout, footprint_zones, quadrant_of

ARRIVAL_TOL = 0.003  # m, TCP-to-target distance that counts as arrived
_GRID_EPS = 1e-9
_DWELL_DONE = 1e-12  # s, dwell time left at which a step is done
_ROW_FLOATS = struct.Struct("2d")  # exact bits of v_task and lyap
_HUMAN_COLUMNS = ("human_x", "human_y", "human_speed", "d_i", "dyn_msd")
LANDMARK_CHUNK = 256  # ticks or frames whose landmarks are built together; an output block
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

    def lyapunov_samples(self) -> LyapunovSeries:
        return lyapunov_samples(self.trace)


def lyapunov_samples(trace: Trace) -> LyapunovSeries:
    """The energy series of a trace, one sample per tick, on copies of its columns."""
    return LyapunovSeries(*(trace.column(name).copy() for name in ("t", "lyap", "mode")))


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
            total += float(np.linalg.norm(target - pos)) / NOMINAL_SPEED
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

    def __init__(self, plan: list[tuple[int, TaskStep]], events: list):
        self.plan = plan
        self.targets = [np.asarray(step.target) for _, step in plan]
        self.idx = 0
        self.dwelling = False
        self.dwell_left = 0.0
        self.done_at = -math.inf  # the time of the tick that last finished a step
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
            delta = self.targets[self.idx] - tcp
            dist = float(np.linalg.norm(delta))
            if dist > ARRIVAL_TOL:
                if fraction <= 0.0:
                    return _NO_MOTION
                # Never overshoot: cap the commanded speed at dist/dt.
                scale = min(1.0, dist / (fraction * NOMINAL_SPEED * dt))
                return delta / dist * scale
            self.dwelling = True
            self.dwell_left = step.dwell
        if fraction > 0.0:
            self.dwell_left -= dt
        if self.dwell_left <= _DWELL_DONE:
            done = f"step={step.name};cycle={cycle}"
            self.events.append(Event(t, EventKind.TASK_STEP_DONE, done))
            if self.idx + 1 >= len(self.plan) or self.plan[self.idx + 1][0] != cycle:
                self.events.append(Event(t, EventKind.CYCLE_DONE, f"cycle={cycle}"))
            self.idx += 1
            self.dwelling = False
            self.done_at = t
        return _NO_MOTION

    def skip(self, t: float, fraction: float, dt: float, limit: int) -> int:
        """Pass the ticks after the tick at t, at most limit, that advance
        would pass with the TCP and the fraction held, returning what it
        returned at t and changing nothing but the dwell countdown; run the
        countdown over them, and return how many.

        Zero after a tick that finished a step, for the next tick heads for
        the next target.  Otherwise all of them, unless the robot dwells at a
        positive fraction: then the countdown runs the float sequence advance
        runs, and the tick at which it ends is left to advance.
        """
        if self.done_at == t:
            return 0
        if not (self.dwelling and fraction > 0.0):
            return limit
        for n in range(limit):
            left = self.dwell_left - dt
            if left <= _DWELL_DONE:
                return n
            self.dwell_left = left
        return limit


def _sensor_grid(tick_times: np.ndarray, period: float) -> tuple[list[float], list[int]]:
    """A sensor firing every period: the time of each message, and the first
    tick at or after it, followed by the tick count (a tick never reached)."""
    grid = np.floor(tick_times / period + _GRID_EPS)
    numbers, starts = np.unique(grid, return_index=True)
    return (numbers * period).tolist(), starts.tolist() + [len(tick_times)]


class _Messages:
    """The scanner's and the skeleton camera's messages, handed to the
    controller in tick order at the first tick at or after each is taken.

    Every scan's occupancy is known before the first tick, cast from the
    humans' tracks at the scan times.  The skeleton camera reads the tracked
    human's track at the frame times: a frame that lies in the still piece
    of the frame before holds that frame's state.  A frame's distance is
    measured when it is offered, from its landmarks and the TCP of that
    tick, unless the frame holds the state of the frame before and the TCP
    is the one of the last measurement (kinematics makes a new TCP only when
    q changes): then the values repeat, and so does the distance.
    """

    def __init__(self, controller, scans, occupancy, frames, track: HumanTrack | None):
        self.controller = controller
        self.scan_times, self.scan_starts = scans
        self.occupancy = occupancy.tolist()  # each scan's (left, right) zone codes
        self.frame_times, self.frame_starts = frames
        self.track = track  # the tracked human at the frame times; None when it sees no one
        self.n_scans = self.n_frames = 0
        self.due = 0  # no message is due before this tick
        self.skel_tcp = None  # the TCP of the last measurement
        self.d_i = math.inf
        # The scans whose occupancy differs from the scan before, ascending.
        changed = (occupancy[1:] != occupancy[:-1]).any(axis=1)
        self.scan_changes = (np.flatnonzero(changed) + 1).tolist()
        # The frames whose state can differ from the frame before, ascending.
        self.frame_changes = []
        if track is not None:
            piece, still = track.piece.tolist(), track.still[track.piece].tolist()
            self.held = [False] + [s and p == q for s, p, q in zip(still[1:], piece[1:], piece)]
            self.frame_changes = [j for j in range(1, len(piece)) if not self.held[j]]
            self.walk_speed = track.walk_speeds(0, len(piece)).tolist()
        self.block_start, self.block = 0, np.empty((0, perception.N_LANDMARKS, 3))

    def offer_until(self, stop: int, tcp: np.ndarray):
        """Offer every message due before tick stop; at one tick, the scan
        first.  Then due is the tick of the next message."""
        controller = self.controller
        while True:
            scan_tick = self.scan_starts[self.n_scans]
            frame_tick = self.frame_starts[self.n_frames]
            if scan_tick <= frame_tick:
                if scan_tick >= stop:
                    self.due = scan_tick
                    return
                controller.offer_scan(self.scan_times[self.n_scans], *self.occupancy[self.n_scans])
                self.n_scans += 1
                continue
            if frame_tick >= stop:
                self.due = frame_tick
                return
            j = self.n_frames
            self.n_frames += 1
            if self.track is None:
                controller.offer_skeleton(self.frame_times[j], math.inf, 0.0)
                continue
            if not self.held[j] or tcp is not self.skel_tcp:
                self.skel_tcp = tcp
                self.d_i = float(_least_distance(self._landmarks(j), tcp)[0])
            controller.offer_skeleton(self.frame_times[j], self.d_i, self.walk_speed[j])

    def _landmarks(self, j: int) -> np.ndarray:
        """Frame j's landmarks (1, 32, 3), from a block of LANDMARK_CHUNK frames on."""
        row = j - self.block_start
        if not 0 <= row < len(self.block):
            self.block_start, row = j, 0
            stop = min(j + LANDMARK_CHUNK, len(self.held))
            self.block = self.track.landmarks_at(np.arange(j, stop))
        return self.block[row : row + 1]

    def quiet_until(self, tcp: np.ndarray) -> int:
        """The tick of the first message that can differ from the one the
        controller holds: a scan of other occupancy, or a skeleton frame
        whose state can differ from the frame before, or any frame once the
        TCP is not the one of the last measurement.  In sequential mode
        every frame re-arbitrates, so it is the next frame."""
        if self.controller.sequential or (self.track is not None and tcp is not self.skel_tcp):
            frame = self.n_frames
        else:
            frame = _next_change(self.frame_changes, self.n_frames, len(self.frame_times))
        scan = _next_change(self.scan_changes, self.n_scans, len(self.scan_times))
        # Past the last message, the start lists hold the tick count.
        return min(self.scan_starts[scan], self.frame_starts[frame])


def _next_change(changes: list[int], first: int, count: int) -> int:
    """The first entry of changes, ascending message numbers, at or after
    first; count when there is none."""
    j = bisect.bisect_left(changes, first)
    return changes[j] if j < len(changes) else count


def _least_distance(landmarks: np.ndarray, tcp: np.ndarray) -> np.ndarray:
    """The least distance from each tick's landmarks (..., 32, 3) to its TCP,
    (..., 1, 3) or one TCP (3,) for all."""
    return np.linalg.norm(landmarks - tcp, axis=-1).min(axis=-1)


def _quiet_until(i, t, messages, tracker, tcp, dt) -> int:
    """The first tick after tick i, which repeated the row before it but for
    the human columns, whose inputs can differ from tick i's: the earliest of
    the first scan and the first skeleton frame that can differ from the held
    one (_Messages.quiet_until), the tick at which the dwell countdown ends,
    and the tick count.  The countdown runs over the ticks between
    (_TaskTracker.skip).  Messages keep arriving on their grids inside the
    span, so the watchdog verdict cannot change there.
    """
    stop = max(i + 1, messages.quiet_until(tcp))
    fraction = messages.controller.fraction
    return i + 1 + tracker.skip(t, fraction, dt, stop - i - 1)


def _zone_events(tracks, layout: ZoneLayout, tick_times) -> tuple[list[int], list[Event]]:
    """Every ZONE_ENTER and ZONE_EXIT of a run, ordered by tick and, within a
    tick, by human, and the tick of each.  A human's footprint zone at each
    tick is compared with its zone at the tick before, NORMAL before the
    first; a change of several levels enters or leaves each level between."""
    found = []
    for h, track in enumerate(tracks):
        zone = footprint_zones(layout, track.x, track.y, track.footprint_radius)
        for k in np.flatnonzero(np.diff(zone, prepend=Zone.NORMAL)).tolist():
            before, after = int(zone[k - 1]) if k else Zone.NORMAL, int(zone[k])
            if after > before:
                kind, levels = EventKind.ZONE_ENTER, range(before + 1, after + 1)
            else:
                kind, levels = EventKind.ZONE_EXIT, range(before, after, -1)
            t = float(tick_times[k])
            for level in levels:
                found.append((k, Event(t, kind, f"zone={Zone(level).name.lower()};human={h}")))
    found.sort(key=lambda item: item[0])  # stable: humans stay in order within a tick
    return [k for k, _ in found], [event for _, event in found]


def _output_block(
    trace: Trace,
    start: int,
    stop: int,
    track: HumanTrack | None,
    separation: SeparationInputs,
    bridge,
    dt: float,
):
    """Fill the human columns of rows start to stop - 1, which the tick loop
    wrote without them, then hand each row to the bridge in tick order.  In
    _HUMAN_COLUMNS order: the tracked human's ground x and y and walk speed,
    the least distance from its landmarks to the row's tcp, reduced as the
    per-tick ``np.min(np.linalg.norm(landmarks - tcp, axis=1))``, and the
    dynamic minimum at that speed and the row's tcp_speed.  Without a human:
    NaN, NaN, 0, inf and the minimum at rest.

    The distance is measured by runs of rows: a row whose human lies in the
    still piece of the row before and whose tcp has the row before's bits has
    that row's landmarks and tcp, and so its distance.  Only the head row of
    each run is measured; the run repeats its value.
    """
    rows, n = trace[start:stop], stop - start
    if track is None:
        x = y = np.full(n, math.nan)
        speed, d_i = np.zeros(n), np.full(n, math.inf)
    else:
        x, y, speed = track.x[start:stop], track.y[start:stop], track.walk_speeds(start, stop)
        tcp, piece = rows.column("tcp"), track.piece[start:stop]
        held = np.empty(n, dtype=bool)
        held[0] = False
        held[1:] = (
            (piece[1:] == piece[:-1])
            & track.still[piece[1:]]
            & (tcp[1:].view(np.int64) == tcp[:-1].view(np.int64)).all(axis=1)
        )
        heads = np.flatnonzero(~held)
        measured = np.empty(len(heads))
        for a in range(0, len(heads), LANDMARK_CHUNK):
            ticks = heads[a : a + LANDMARK_CHUNK]
            landmarks = track.landmarks_at(start + ticks)
            measured[a : a + len(ticks)] = _least_distance(landmarks, tcp[ticks, None, :])
        d_i = measured[np.cumsum(~held) - 1]
    dyn_msd = msd_at_speeds(separation, speed, rows.column("tcp_speed"))
    for name, values in zip(_HUMAN_COLUMNS, (x, y, speed, d_i, dyn_msd)):
        rows.column(name)[:] = values
    if bridge is not None:
        modes = map(MODES.texts.__getitem__, rows.column("mode").tolist())  # ModeKind values
        published = zip(modes, rows.values("fraction"), d_i.tolist(), dyn_msd.tolist())
        for k, (mode, fraction, d_k, msd_k) in enumerate(published, start):
            bridge.publish(k, k * dt, mode, fraction, d_k, msd_k)


def run(scenario: Scenario, bridge=None) -> SimResult:
    """Execute one scenario deterministically; returns the trace and event log.

    The robot integrates commanded joint rates semi-implicitly at the control
    period; sensors sample on their native grids with zero-order hold between
    arrivals.  The optional bridge receives one message per tick, in tick
    order, and never feeds anything back into the simulation.
    """
    layout = scenario.build_layout()
    model = build_model(scenario)
    gains = build_gains(scenario)
    dt = CONTROL_PERIOD
    n_ticks = int(round(scenario.duration / dt))
    rng = np.random.default_rng(scenario.seed)

    controller = Controller(
        model, layout, gains, scenario.separation, sequential=scenario.sequential
    )
    events: list[Event] = []
    tracker = _TaskTracker(_expand_plan(scenario), events)

    q = np.asarray(scenario.q0, dtype=float)
    q_ref = q.copy()
    e_prev = np.zeros(6)
    prev_tcp: np.ndarray | None = None
    prev_mode: ModeKind | None = None
    prev_source: CommandSource | None = None
    ignore_humans = scenario.mode == SimMode.AUTONOMOUS or not scenario.humans
    quadrant_blind = scenario.mode == SimMode.TRADITIONAL

    # The human side is open-loop.  Each human's track (HumanScript.track) at
    # the scan times, the cell's scanners, the layout, the mode and rng give
    # every scan's occupancy, never q or the controller, so every scan is cast
    # before the first tick.  Its track at the ticks gives each footprint zone
    # and so the zone events, and the walk speed term of the dynamic minimum.
    # Only the distance to the TCP is not open-loop.
    tick_times = np.arange(n_ticks) * dt  # the products t = i * dt of the loop
    scans = _sensor_grid(tick_times, perception.SCAN_PERIOD)
    frames = _sensor_grid(tick_times, 1.0 / perception.SKELETON_RATE)
    scan_times = scans[0]
    if ignore_humans:
        occupancy = np.zeros((len(scan_times), 2), dtype=np.int8)  # NORMAL on both sides
    else:
        at_scans = [script.track(np.array(scan_times)) for script in scenario.humans]
        occupancy = perception.scan_occupancies(
            perception.SCANNER_MOUNTS,
            np.array([(track.x, track.y) for track in at_scans]).transpose(2, 0, 1),
            [script.footprint_radius for script in scenario.humans],
            [script.stature for script in scenario.humans],
            scan_times,
            layout,
            rng=rng,
            noise=scenario.noise,
            quadrant_blind=quadrant_blind,
        )
    tracked = None if ignore_humans else scenario.humans[0].track(np.array(frames[0]))
    messages = _Messages(controller, scans, occupancy, frames, tracked)
    tracks = [script.track(tick_times) for script in scenario.humans]
    zone_ticks, zone_events = _zone_events(tracks, layout, tick_times)
    zone_ticks.append(n_ticks)  # no tick reaches it: the end of the list for the loop
    n_zone_events = 0
    track0 = tracks[0] if tracks else None

    trace = Trace.empty(n_ticks)
    # A tick is quiescent when the controller's inputs are bit-identical to
    # the last tick's: the scan and skeleton messages carry what they carried
    # before, and the controller repeats its last command, which it does
    # only while its messages, q, the reference, the task direction, the
    # fraction and the gate are unchanged.  So a repeated command means that
    # q is the last tick's, and with it the TCP that kinematics reuses; it
    # leaves q and the reference as they are, and a quiescent tick whose
    # pending flag, task speed and energy match the last row copies that row
    # with the new t and its own human columns.  Every stage also reuses its
    # last result while its own inputs are unchanged: kinematics while q is.
    # Reused values are the floats a full evaluation gives, so the trace is
    # byte-identical.
    #
    # The human side is not evaluated tick by tick: every human's state at
    # every tick, its footprint zone and the zone events are arrays and a list
    # built before the first tick (HumanScript.track, _zone_events), and the
    # scans and skeleton frames read tracks at their own grid times, each
    # reusing a result while the values it reads repeat.  So a walking
    # operator does not make a tick differ; only a skeleton frame that reports
    # the walk to the controller does.  A tick that copies the last row but
    # for the human columns starts a span of such ticks, which ends at the
    # first tick whose inputs can differ (_quiet_until), the earliest of four:
    # a scan of other occupancy than the held one, a skeleton frame whose
    # state can differ from the frame before's or whose TCP is not the one of
    # the last measurement (any frame in sequential mode), the end of the
    # dwell countdown, and the end of the run.  The span's rows are copied in
    # one step; its scans and skeleton frames are still offered to the
    # controller in tick order, its zone events logged in tick order, and the
    # dwell countdown still runs.  Only the step and the per-tick bookkeeping
    # are skipped.  Every other tick is evaluated alone, as the span of length
    # one.  The human columns and the bridge messages, outputs of the tracks
    # and of the rows' own tcp, tcp_speed, mode and fraction, are made in
    # blocks behind the loop (_output_block).  A repeated row's tcp_speed is
    # the row before's, as the controller's key holds its bits, so each value
    # is the float of the tick evaluated alone.
    q_key = None
    energy_key = None
    row_key = None  # what a repeated row must match
    repeated = False
    filled = 0  # the rows before it have their human columns and are published

    i = 0
    while i < n_ticks:
        t = i * dt
        # The zone events of this tick, and of the span before it, come first.
        if zone_ticks[n_zone_events] <= i:
            j = bisect.bisect_right(zone_ticks, i, n_zone_events)
            events.extend(zone_events[n_zone_events:j])
            n_zone_events = j
        q_bytes = q.tobytes()
        if q_bytes != q_key:
            q_key = q_bytes
            chain = FrameChain(model, q)
            tcp = chain.tcp
            J = Jacobian(matrix=chain.jacobian_matrix())
            robot_quadrant = quadrant_of(tcp[1])
        if prev_tcp is None or tcp is prev_tcp:
            tcp_speed = 0.0
        else:
            tcp_speed = float(np.linalg.norm(tcp - prev_tcp)) / dt

        # Sensors fire on their own grids; the controller holds the last message.
        if messages.due <= i:
            messages.offer_until(i + 1, tcp)
        if not i:  # a cold start at the fraction the first messages arbitrate to
            controller.seed_fraction(robot_quadrant)

        task_dir = tracker.advance(t, tcp, controller.fraction, dt)

        command = controller.step(
            t,
            robot_quadrant=robot_quadrant,
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
            # These fix edot = (e - e_prev) / dt, which is zero at the first
            # tick, as (e - e) / dt is for a finite e.
            energy_bytes = (e.tobytes(), (e_prev if i else e).tobytes())
            if energy_bytes != energy_key:
                energy_key = energy_bytes
                edot = (e - e_prev) / dt if i else np.zeros(6)
                lyap = lyapunov_value(e, edot, gains)
            e_prev = e
        repeated = controller.repeated
        speed = 0.0 if task_dir is _NO_MOTION else float(np.linalg.norm(task_dir))
        v_task = speed * command.fraction * NOMINAL_SPEED
        pending = tracker.pending
        key = (pending, _ROW_FLOATS.pack(v_task, lyap))
        copies = repeated and key == row_key
        stop = _quiet_until(i, t, messages, tracker, tcp, dt) if copies else i + 1
        if copies:
            trace.repeat(i, stop, dt)
        else:
            row_key = key
            occ_left, occ_right = controller.zones
            trace.record(
                i,
                t=t,
                q=q,
                qdot=command.qdot_cmd,
                tcp=tcp,
                tcp_speed=tcp_speed,
                occ_left=occ_left,
                occ_right=occ_right,
                mode=command.mode.kind,
                fraction=command.fraction,
                v_cap=command.v_cartesian,
                v_task=v_task,
                source=command.source,
                damped=command.damped,
                pending=pending,
                lyap=lyap,
                # Until the output stage fills them.
                human_x=math.nan,
                human_y=math.nan,
                human_speed=math.nan,
                d_i=math.nan,
                dyn_msd=math.nan,
            )

        # Semi-implicit integration: rates from the state at t applied over
        # [t, t+dt].  A repeated command repeats the last tick's step, which
        # left q and q_ref bit-for-bit as they were.
        if not repeated:
            q = q + command.qdot_cmd * dt
            q_ref = q_ref + command.qdot_task * dt
        prev_tcp = tcp
        if stop > i + 1:  # those before tick i + 1 were offered above
            messages.offer_until(stop, tcp)
        i = stop
        if i - filled >= LANDMARK_CHUNK or i == n_ticks:
            _output_block(trace, filled, i, track0, scenario.separation, bridge, dt)
            filled = i

    events.extend(zone_events[n_zone_events:])
    return SimResult(scenario=scenario, layout=layout, trace=trace, events=events)


def detect_deadlock(trace: Trace, events: list[Event], stall_threshold: float = 5.0) -> list[Event]:
    """Deadlock events: standstill with pending task steps for longer than the threshold."""
    if not len(trace):
        return []
    times = trace.values("t")
    dt = times[1] - times[0] if len(times) > 1 else 0.0
    stalled = trace.mask("pending", True) & trace.mask("mode", ModeKind.STANDSTILL)
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
