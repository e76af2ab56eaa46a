"""Scenario definition: sectioned key/value files, validation, script interpolation."""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple, get_type_hints

import numpy as np

from .control import CONTROL_PERIOD, NOMINAL_SPEED, Gains, GainsConfig
from .kinematics import RobotModel
from .perception import (
    DEFAULT_FOOTPRINT_RADIUS,
    DEFAULT_STATURE,
    POSTURES,
    SCAN_PERIOD,
    HumanState,
    Posture,
    landmark_block,
)
from .separation import SeparationInputs
from .zones import (
    DANGER_MARGIN,
    DEFAULT_HEIGHT_BAND,
    DEFAULT_LASER_MOUNT_HEIGHT,
    DEFAULT_QUADRANT_HALF_WIDTH,
    DEFAULT_SCALE_FLOOR_DISTANCE,
    SafetyParams,
    ZoneError,
    ZoneLayout,
    build_zone_layout,
    compute_msd_static,
)


# The most ticks (control periods) one run may have.  engine.run sizes its trace
# from the tick count before the first tick: 2e6 rows of 26 float64 columns are
# about 0.43 GB.
MAX_TICKS = 2_000_000
# The bound on the x and y of every waypoint and scanner: far beyond the 5.5 m
# scanner range, and small enough that squared landmark distances stay finite.
MAX_COORDINATE = 1000.0  # m
# The bound on a scanner's heading, one turn either way: far beyond it, the
# steps between a scan's ray angles are lost to rounding.
MAX_HEADING = 2 * math.pi  # rad


class ScenarioError(ValueError):
    """Validation failure(s) with line/field context."""

    def __init__(self, errors):
        self.errors = list(errors) if isinstance(errors, (list, tuple)) else [errors]
        super().__init__("; ".join(str(e) for e in self.errors))


@dataclass(frozen=True)
class Entry:
    key: str
    value: str
    line: int


class Section(list):
    """The entries of one '[name]' section; line is where its first header stands."""

    def __init__(self, line: int):
        super().__init__()
        self.line = line


def parse_sections(source) -> dict[str, Section]:
    """Parse '[section]' / 'key = value' text; '#' starts a comment."""
    if isinstance(source, (str, Path)) and "\n" not in str(source):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = str(source)
    sections: dict[str, Section] = {}
    current = None
    errors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, Section(lineno))
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        if current is None:
            errors.append(f"line {lineno}: entry before any [section]")
            continue
        key, value = line.split("=", 1)
        sections[current].append(Entry(key.strip().lower(), value.strip(), lineno))
    if errors:
        raise ScenarioError(errors)
    return sections


class SimMode(enum.Enum):
    AUTONOMOUS = "autonomous"
    TRADITIONAL = "traditional"
    PROPOSED = "proposed"


@dataclass(frozen=True)
class HumanWaypoint:
    t: float
    x: float
    y: float
    posture: Posture = Posture.STANDING


@dataclass(frozen=True, eq=False)
class HumanTrack:
    """A script's states at the ticks of a run, as arrays: at tick k, the floats
    state_at gives at the tick's time.

    The ticks fall into the pieces state_at tells apart: up to the first
    waypoint, each segment between two waypoints, and after the last.  The
    ground position is per tick; heading, walk speed and posture are per
    piece, with math.cos and math.sin of each heading.  In a still piece,
    the first and the last and each segment between two waypoints at one
    spot, every tick has the same state, so it has one pose.
    """

    x: np.ndarray  # (ticks,) m
    y: np.ndarray  # (ticks,) m
    piece: np.ndarray  # (ticks,) the piece of each tick
    heading: np.ndarray  # (pieces,) rad
    cos_h: np.ndarray  # (pieces,)
    sin_h: np.ndarray  # (pieces,)
    walk_speed: np.ndarray  # (pieces,) m/s
    posture: np.ndarray  # (pieces,) codes into perception.POSTURES
    still: np.ndarray  # (pieces,) bool
    footprint_radius: float
    stature: float
    _poses: dict = field(default_factory=dict, repr=False)  # still piece -> its pose

    def walk_speeds(self, start: int, stop: int) -> np.ndarray:
        return self.walk_speed[self.piece[start:stop]]

    def landmarks(self, start: int, stop: int) -> np.ndarray:
        """The landmarks (n, 32, 3) of ticks start to stop - 1: pose_landmarks
        of each tick's state, bit for bit.  When all n ticks lie in one still
        piece, its one pose (1, 32, 3) stands for them all."""
        piece = self.piece[start:stop]
        p = int(piece[0])
        if self.still[p] and piece[-1] == p:
            if p not in self._poses:
                self._poses[p] = self._build(start, start + 1)
            return self._poses[p]
        return self._build(start, stop)

    def _build(self, start: int, stop: int) -> np.ndarray:
        piece = self.piece[start:stop]
        return landmark_block(
            self.x[start:stop],
            self.y[start:stop],
            self.cos_h[piece],
            self.sin_h[piece],
            self.posture[piece],
            self.stature,
        )


@dataclass(frozen=True)
class HumanScript:
    """Timed ground waypoints with piecewise-linear motion and posture switches."""

    waypoints: tuple[HumanWaypoint, ...]
    footprint_radius: float = DEFAULT_FOOTPRINT_RADIUS
    stature: float = DEFAULT_STATURE

    def state_at(self, t: float) -> HumanState:
        """The scripted state at t: the scalar reference that track follows."""
        wps = self.waypoints
        if t <= wps[0].t:
            return self._make(wps[0].x, wps[0].y, math.pi, 0.0, wps[0].posture)
        heading = math.pi
        for i in range(len(wps) - 1):
            a, b = wps[i], wps[i + 1]
            dx, dy = b.x - a.x, b.y - a.y
            seg_len = math.hypot(dx, dy)
            if seg_len > 0:
                seg_heading = math.atan2(dy, dx)
            else:
                seg_heading = heading
            if t < b.t:  # segment [a.t, b.t); posture switches exactly at waypoint times
                u = (t - a.t) / (b.t - a.t)
                speed = seg_len / (b.t - a.t)
                return self._make(
                    a.x + u * dx, a.y + u * dy, seg_heading, speed, a.posture
                )
            heading = seg_heading
        last = wps[-1]
        return self._make(last.x, last.y, heading, 0.0, last.posture)

    def track(self, times: np.ndarray) -> HumanTrack:
        """The states at times, ascending, as a HumanTrack: state_at's
        floats at each time, piece by piece.

        A piece's heading, speed, posture and the cosine and sine of its
        heading are computed once, with state_at's Python float
        operations; a segment's ground positions are the same operations
        elementwise on the times it holds.
        """
        wps = self.waypoints
        first, last = wps[0], wps[-1]
        # state_at takes the first segment whose end lies after t, which is
        # the first at which the running maximum of the ends does.
        ends = np.maximum.accumulate([w.t for w in wps[1:]]) if len(wps) > 1 else []
        piece = (np.searchsorted(ends, times, side="right") + 1).astype(np.int32)
        piece[times <= first.t] = 0
        bounds = np.searchsorted(piece, np.arange(len(wps) + 2)).tolist()
        x, y = np.empty(len(times)), np.empty(len(times))
        x[: bounds[1]], y[: bounds[1]] = first.x, first.y
        heading, speed, still = [math.pi], [0.0], [True]
        for p, (a, b) in enumerate(zip(wps, wps[1:]), start=1):
            dx, dy = b.x - a.x, b.y - a.y
            seg_len = math.hypot(dx, dy)
            still.append(seg_len == 0)
            heading.append(math.atan2(dy, dx) if seg_len > 0 else heading[-1])
            lo, hi = bounds[p], bounds[p + 1]
            if lo == hi:  # no time falls in it: its speed is never read
                speed.append(0.0)
                continue
            u = (times[lo:hi] - a.t) / (b.t - a.t)
            x[lo:hi] = a.x + u * dx
            y[lo:hi] = a.y + u * dy
            speed.append(seg_len / (b.t - a.t))
        x[bounds[-2] :], y[bounds[-2] :] = last.x, last.y
        heading.append(heading[-1])
        speed.append(0.0)
        still.append(True)
        postures = [first] + list(wps)  # a segment takes the posture of its start
        return HumanTrack(
            x=x,
            y=y,
            piece=piece,
            heading=np.array(heading),
            cos_h=np.array([math.cos(h) for h in heading]),
            sin_h=np.array([math.sin(h) for h in heading]),
            walk_speed=np.array(speed),
            posture=np.array([POSTURES.index(w.posture) for w in postures], dtype=np.int8),
            still=np.array(still),
            footprint_radius=self.footprint_radius,
            stature=self.stature,
        )

    def _make(self, x, y, heading, speed, posture) -> HumanState:
        return HumanState(
            ground=(x, y),
            heading=heading,
            walk_speed=speed,
            footprint_radius=self.footprint_radius,
            posture=posture,
            stature=self.stature,
        )

    @property
    def end_time(self) -> float:
        return self.waypoints[-1].t


@dataclass(frozen=True)
class TaskStep:
    """One pick/place step: move the TCP to target, then process for dwell seconds."""

    name: str
    target: tuple[float, float, float]
    dwell: float
    modes: tuple[str, ...] = ()  # empty = active in every mode

    def active_in(self, mode: SimMode) -> bool:
        return not self.modes or mode.value in self.modes


@dataclass(frozen=True)
class RobotTask:
    steps: tuple[TaskStep, ...]
    cycles: int = 1

    def steps_for(self, mode: SimMode) -> list[TaskStep]:
        return [s for s in self.steps if s.active_in(mode)]


@dataclass(frozen=True)
class LayoutConfig:
    workspace_length: float = 1.5
    workspace_width: float = 0.9
    quadrant_half_width: float = DEFAULT_QUADRANT_HALF_WIDTH
    danger_margin: float = DANGER_MARGIN
    laser_mount_height: float = DEFAULT_LASER_MOUNT_HEIGHT
    height_min: float = DEFAULT_HEIGHT_BAND[0]
    height_max: float = DEFAULT_HEIGHT_BAND[1]
    scale_floor_distance: float = DEFAULT_SCALE_FLOOR_DISTANCE

    def __post_init__(self):
        for name in ("danger_margin", "laser_mount_height"):
            if getattr(self, name) < 0:
                raise ZoneError(f"{name} must be >= 0")
        if self.height_max < self.height_min:
            raise ZoneError("height_max must be >= height_min")


@dataclass(frozen=True)
class ScannerPose:
    x: float
    y: float
    heading: float


@dataclass(frozen=True)
class Scenario:
    name: str = "unnamed"
    mode: SimMode = SimMode.PROPOSED
    duration: float = 0.0
    seed: int = 0
    humans: tuple[HumanScript, ...] = ()
    task: RobotTask = RobotTask(steps=())
    q0: tuple[float, float, float, float, float, float] = (0.0,) * 6
    scanners: tuple[ScannerPose, ...] = ()
    safety: SafetyParams = SafetyParams()
    separation: SeparationInputs = SeparationInputs()
    layout_config: LayoutConfig = LayoutConfig()
    gains_config: GainsConfig = GainsConfig()
    control_period: float = CONTROL_PERIOD
    nominal_speed: float = NOMINAL_SPEED
    sequential: bool = False
    noise: float = 0.0
    parallelism: float = 1.0
    # inf never flags a deadlock, so it is the one scalar allowed to be infinite
    stall_threshold: float = field(default=5.0, metadata={"allow_inf": True})

    def build_layout(self) -> ZoneLayout:
        lc = self.layout_config
        return build_zone_layout(
            compute_msd_static(self.safety),
            lc.workspace_length,
            lc.workspace_width,
            lc.quadrant_half_width,
            danger_margin=lc.danger_margin,
            height_band=(lc.height_min, lc.height_max),
            laser_mount_height=lc.laser_mount_height,
            scale_floor_distance=lc.scale_floor_distance,
        )

    def with_mode(self, mode: SimMode) -> "Scenario":
        return replace(self, mode=mode)


def build_model(scenario: Scenario) -> RobotModel:
    """The arm every scenario runs: the one RobotModel()."""
    return RobotModel()


def build_gains(scenario: Scenario) -> Gains:
    return Gains.diagonal(**vars(scenario.gains_config))


class _Problem(NamedTuple):
    """A problem of a scalar key or of the whole scenario, and the section that states it."""

    message: str
    section: str  # a _SECTIONS name
    key: str | None = None  # the key at fault; None: the first key the message names
    human: int = 0  # which [human] section, for section "human"
    cause: str | None = None  # a _SECTIONS name whose line the message ends with


def _problems(sc: Scenario) -> list[_Problem]:
    problems = []
    for name in ("duration", "control_period", "nominal_speed", "parallelism", "stall_threshold"):
        if getattr(sc, name) <= 0:
            problems.append(_Problem(f"scenario: {name} must be positive", "scenario", name))
    if sc.control_period > SCAN_PERIOD:
        message = (
            f"scenario: control_period {sc.control_period!r} s is longer than the "
            f"{SCAN_PERIOD} s laser scan period"
        )
        problems.append(_Problem(message, "scenario", "control_period"))
    if sc.duration > 0 and sc.control_period > 0:
        ticks = sc.duration / sc.control_period
        if not (math.isfinite(ticks) and round(ticks) <= MAX_TICKS):
            message = (
                f"scenario: a {sc.duration!r} s run at control_period {sc.control_period!r} s "
                f"is {ticks:.6g} ticks, more than the {MAX_TICKS} a run may have"
            )
            # The duration is at fault when it is too long even at the default period.
            culprit = "duration" if sc.duration / CONTROL_PERIOD > MAX_TICKS else "control_period"
            problems.append(_Problem(message, "scenario", culprit))
    if sc.noise < 0:
        problems.append(_Problem("scenario: noise must be >= 0", "scenario", "noise"))
    if sc.seed < 0:
        problems.append(_Problem("scenario: seed must be >= 0", "scenario", "seed"))
    for h, script in enumerate(sc.humans):
        if not script.waypoints:
            problems.append(_Problem(f"human {h}: no waypoints", "human", human=h))
        for name in ("footprint_radius", "stature"):
            if getattr(script, name) <= 0:
                problems.append(_Problem(f"human {h}: {name} must be positive", "human", name, h))
    if not sc.task.steps:
        problems.append(_Problem("task: no steps", "task"))
    if sc.task.cycles < 1:
        problems.append(_Problem("task: cycles must be >= 1", "task", "cycles"))
    try:
        sc.build_layout()
    except ValueError as exc:
        msd = compute_msd_static(sc.safety)
        message = f"layout: {exc}; static MSD {msd:.3f} m from [safety]"
        problems.append(_Problem(message, "layout", cause="safety"))
    try:
        build_gains(sc)
    except ValueError as exc:
        problems.append(_Problem(f"gains: {exc}", "gains"))
    try:
        build_model(sc).check_joint_vector(sc.q0)
    except ValueError as exc:
        problems.append(_Problem(f"robot: q0: {exc}", "robot", "q0"))
    return problems


def validate_scenario(sc: Scenario) -> list[str]:
    """The problems of a scenario's scalar keys and of the scenario as a whole, as
    messages.  The rows (waypoints, scanners, steps) are checked by the parser as
    it reads them."""
    return [p.message for p in _problems(sc)]


def _key_line(section: Section, lines: dict[str, int], message: str, key=None) -> int:
    """The line of key, or with no key of the first key set that the message names;
    the section's own line if the section sets no such key."""
    named = message.split() if key is None else [key]
    return min((lines[k] for k in named if k in lines), default=section.line)


_POSTURES = {p.value: p for p in Posture}
_MODES = {m.value: m for m in SimMode}
_BOOLS = dict.fromkeys(("true", "1", "yes", "on"), True)
_BOOLS.update(dict.fromkeys(("false", "0", "no", "off"), False))


def _six_floats(text: str) -> tuple[float, ...]:
    values = tuple(map(float, text.split()))
    if len(values) != 6:
        raise ValueError(text)
    return values


@dataclass(frozen=True)
class _Codec:
    """Text form of one field type; error names a value parse rejects ({key}, {text})."""

    parse: Callable[[str], object]
    format: Callable[[object], str]
    error: str


_CODECS = {
    float: _Codec(float, repr, "cannot parse '{key}' as float"),
    int: _Codec(int, str, "cannot parse '{key}' as int"),
    str: _Codec(str, str, ""),
    bool: _Codec(
        lambda text: _BOOLS[text.lower()],
        lambda value: "true" if value else "false",
        "cannot parse '{key}' as bool (true/false, 1/0, yes/no, on/off)",
    ),
    SimMode: _Codec(SimMode, lambda mode: mode.value, "unknown {key} '{text}'"),
    tuple[float, float, float, float, float, float]: _Codec(
        _six_floats, lambda values: " ".join(map(repr, values)), "{key} needs 6 numbers"
    ),
}


@dataclass(frozen=True)
class _Key:
    """A scalar 'key = value' line and the dataclass field it fills."""

    key: str
    attr: str
    codec: _Codec
    allow_inf: bool

    def read(self, e: Entry, errors: list):
        """The value of an entry, or None with the reason appended to errors."""
        try:
            value = self.codec.parse(e.value)
        except (ValueError, KeyError):
            errors.append(f"line {e.line}: " + self.codec.error.format(key=self.key, text=e.value))
            return None
        numbers = value if isinstance(value, tuple) else (value,)
        finite = all(math.isfinite(v) for v in numbers if isinstance(v, float))
        if not finite and not (self.allow_inf and value == math.inf):
            errors.append(f"line {e.line}: '{self.key}' must be finite, got {e.value}")
            return None
        return value


@dataclass(frozen=True)
class _Section:
    """A section's scalar keys, in the order they are written, and its repeatable row key."""

    cls: type
    keys: dict[str, _Key]
    row: str | None = None


def _section(cls, skip=(), names=None, row=None) -> _Section:
    """A section whose keys are cls's fields of a type with a codec, less skip.

    names maps key to field where the two differ; it then lists every key.
    """
    hints = get_type_hints(cls)
    by_name = {f.name: f for f in fields(cls)}
    if names is None:
        names = {f: f for f in by_name if f not in skip and hints[f] in _CODECS}
    keys = {
        key: _Key(key, f, _CODECS[hints[f]], by_name[f].metadata.get("allow_inf", False))
        for key, f in names.items()
    }
    return _Section(cls, keys, row)


_ROBOT_KEYS = {"q0": "q0"}
_SECTIONS = {
    "scenario": _section(Scenario, skip=_ROBOT_KEYS.values()),
    "safety": _section(SafetyParams),
    "separation": _section(SeparationInputs, skip=("human_speed", "robot_speed")),
    "layout": _section(LayoutConfig),
    "gains": _section(GainsConfig),
    "robot": _section(Scenario, names=_ROBOT_KEYS),
    "scanners": _Section(ScannerPose, {}, "scanner"),
    "human": _section(HumanScript, row="waypoint"),  # also human2, human3, ...
    "task": _section(RobotTask, row="step"),
}
# The Scenario field that holds the dataclass of each of these sections.
_PARTS = {
    "safety": "safety",
    "separation": "separation",
    "layout": "layout_config",
    "gains": "gains_config",
}
_HUMAN = re.compile(r"human(\d*)")


def _kind(section: str) -> str | None:
    """The _SECTIONS entry that describes a section name, or None for an unknown one."""
    if _HUMAN.fullmatch(section):
        return "human"
    return section if section in _SECTIONS else None


def _read_section(name: str, entries, errors: list) -> tuple[dict, list[Entry], dict[str, int]]:
    """The field values a section sets, its rows in file order, and the line of each key set."""
    spec = _SECTIONS[_kind(name)]
    values, rows, lines = {}, [], {}
    for e in entries:
        k = spec.keys.get(e.key)
        if e.key == spec.row:
            rows.append(e)
        elif k is None:
            errors.append(f"line {e.line}: unknown key '{e.key}' in [{name}]")
        elif e.key in lines:
            errors.append(f"line {e.line}: '{e.key}' already set on line {lines[e.key]}")
        else:
            lines[e.key] = e.line
            value = k.read(e, errors)
            if value is not None:
                values[k.attr] = value
    return values, rows, lines


def _build(name: str, values: dict, section: Section, lines: dict[str, int], errors: list):
    """The section's dataclass from the values read, or its defaults if they are out of range.

    A range error is reported at the line of the first key its message names,
    or at the section header if every key it names was left at its default.
    """
    cls = _SECTIONS[name].cls
    try:
        return cls(**values)
    except ValueError as exc:
        errors.append(f"line {_key_line(section, lines, str(exc))}: [{name}]: {exc}")
        return cls()


_BOUNDS = f"[-{MAX_COORDINATE:g}, {MAX_COORDINATE:g}] m"
_TURN = f"[-{MAX_HEADING:g}, {MAX_HEADING:g}] rad"


def _out_of_bounds(x: float, y: float) -> bool:
    return not (abs(x) <= MAX_COORDINATE and abs(y) <= MAX_COORDINATE)


# How each row key's value reads, and which of its tokens are numbers.
_ROWS = {
    "scanner": ("x y heading", slice(0, 3)),
    "waypoint": ("t x y posture", slice(0, 3)),
    "step": ("name x y z dwell [modes]", slice(1, 5)),
}


def _rows(key: str, rows: list[Entry], errors: list):
    """Each row whose value reads as _ROWS[key] describes, with finite numbers: its
    index among the rows, counted in file order, its entry, tokens and numbers."""
    usage, numeric = _ROWS[key]
    size = len(usage.split())
    for idx, e in enumerate(rows):
        parts, what = e.value.split(), f"line {e.line}: {key} {idx}"
        if not size - usage.count("[") <= len(parts) <= size:
            errors.append(f"{what} needs '{usage}'")
            continue
        try:
            numbers = [float(t) for t in parts[numeric]]
        except ValueError:
            errors.append(f"{what} has a non-numeric value")
            continue
        if all(map(math.isfinite, numbers)):
            yield idx, e, parts, numbers
        else:
            errors.append(f"{what} has a non-finite value")


def _scanners(rows: list[Entry], errors: list) -> tuple[ScannerPose, ...]:
    scanners = []
    for idx, e, _, (x, y, heading) in _rows("scanner", rows, errors):
        problem = f"line {e.line}: scanners: scanner {idx}"
        if _out_of_bounds(x, y):
            errors.append(f"{problem} x and y must lie in {_BOUNDS}, got {x!r} {y!r}")
        if abs(heading) > MAX_HEADING:
            errors.append(f"{problem} heading must lie in {_TURN}, got {heading!r}")
        scanners.append(ScannerPose(x, y, heading))
    return tuple(scanners)


def _waypoints(
    h: int, rows: list[Entry], duration: float, errors: list
) -> tuple[HumanWaypoint, ...]:
    """The waypoints of human h; none may lie after a positive duration."""
    waypoints, last = [], None  # last: the index of the last waypoint kept
    for idx, e, parts, (t, x, y) in _rows("waypoint", rows, errors):
        posture = _POSTURES.get(parts[3].lower())
        if posture is None:
            errors.append(f"line {e.line}: waypoint {idx} unknown posture '{parts[3]}'")
            continue
        problem = f"line {e.line}: human {h}: waypoint {idx}"
        if waypoints and t <= waypoints[-1].t:
            errors.append(f"{problem} timestamp {t} not after waypoint {last}")
        if _out_of_bounds(x, y):
            errors.append(f"{problem} x and y must lie in {_BOUNDS}, got {x!r} {y!r}")
        if 0 < duration < t:
            errors.append(f"{problem} at {t}s is after the end of the {duration}s run")
        waypoints.append(HumanWaypoint(t, x, y, posture))
        last = idx
    return tuple(waypoints)


def _steps(rows: list[Entry], errors: list) -> tuple[TaskStep, ...]:
    steps, reach = [], RobotModel().reach
    for idx, e, parts, (*target, dwell) in _rows("step", rows, errors):
        distance = math.hypot(*target)
        if distance > reach:
            errors.append(
                f"line {e.line}: task: step {idx} '{parts[0]}' target is {distance:.3f} m "
                f"from the base, beyond the {reach} m reach"
            )
        modes: tuple[str, ...] = ()
        if len(parts) == 6:
            modes = tuple(m.strip() for m in parts[5].split(","))
            unknown = [m for m in modes if m not in _MODES]
            if unknown:
                errors.append(f"line {e.line}: step {idx} unknown modes {unknown}")
                continue
        steps.append(TaskStep(parts[0], tuple(target), dwell, modes))
    return tuple(steps)


def parse_scenario(source) -> Scenario:
    """Parse and fully validate a scenario file; raises ScenarioError with all problems."""
    sections = parse_sections(source)
    if "scenario" not in sections:
        raise ScenarioError(["missing [scenario] section"])
    errors = [
        f"line {entries.line}: unknown section [{name}]"
        for name, entries in sections.items()
        if _kind(name) is None
    ]
    key_lines = {}  # section name -> the line of each key it sets

    def read(name) -> tuple[dict, list[Entry]]:
        values, rows, key_lines[name] = _read_section(name, sections.get(name, ()), errors)
        return values, rows

    values = {**read("scenario")[0], **read("robot")[0]}
    for name, holder in _PARTS.items():
        scalars = read(name)[0]
        section = sections.get(name, Section(0))
        values[holder] = _build(name, scalars, section, key_lines[name], errors)
    values["scanners"] = _scanners(read("scanners")[1], errors)
    duration = values.get("duration", Scenario.duration)
    humans = []
    human_sections = sorted((s for s in sections if _kind(s) == "human"), key=_human_order)
    for h, name in enumerate(human_sections):
        scalars, rows = read(name)
        humans.append(HumanScript(waypoints=_waypoints(h, rows, duration, errors), **scalars))
    values["humans"] = tuple(humans)
    scalars, rows = read("task")
    values["task"] = RobotTask(steps=_steps(rows, errors), **scalars)

    scenario = Scenario(**values)
    for p in _problems(scenario):
        name = human_sections[p.human] if p.section == "human" else p.section
        if name not in sections:
            errors.append(p.message)
            continue
        line = _key_line(sections[name], key_lines[name], p.message, p.key)
        cause = f" at line {sections[p.cause].line}" if p.cause in sections else ""
        errors.append(f"line {line}: {p.message}{cause}")
    if errors:
        raise ScenarioError(errors)
    return scenario


def _human_order(section: str) -> tuple[int, str]:
    """[human] first, then [human2], [human3], ... by number, so human10 follows human9."""
    return int(_HUMAN.fullmatch(section).group(1) or 1), section


def _section_text(title: str, obj, rows=()) -> str:
    spec = _SECTIONS[_kind(title)]
    lines = [f"[{title}]"]
    lines.extend(f"{k.key} = {k.codec.format(getattr(obj, k.attr))}" for k in spec.keys.values())
    lines.extend(f"{spec.row} = {row}" for row in rows)
    return "\n".join(lines)


def serialize_scenario(sc: Scenario) -> str:
    """Canonical text form; parse(serialize(sc)) == sc."""
    blocks = [_section_text("scenario", sc)]
    blocks.extend(_section_text(name, getattr(sc, holder)) for name, holder in _PARTS.items())
    blocks.append(_section_text("robot", sc))
    blocks.append(
        _section_text("scanners", sc, [f"{s.x!r} {s.y!r} {s.heading!r}" for s in sc.scanners])
    )
    for i, human in enumerate(sc.humans):
        rows = [f"{w.t!r} {w.x!r} {w.y!r} {w.posture.value}" for w in human.waypoints]
        blocks.append(_section_text("human" if i == 0 else f"human{i + 1}", human, rows))
    steps = []
    for s in sc.task.steps:
        row = f"{s.name} {s.target[0]!r} {s.target[1]!r} {s.target[2]!r} {s.dwell!r}"
        steps.append(row + (" " + ",".join(s.modes) if s.modes else ""))
    blocks.append(_section_text("task", sc.task, steps))
    return "\n\n".join(blocks) + "\n"
