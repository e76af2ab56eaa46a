"""Scenario definition: sectioned key/value files, validation, script interpolation."""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, ClassVar, get_type_hints

import numpy as np

from .control import CONTROL_PERIOD, Gains, GainsConfig
from .kinematics import RobotModel
from .perception import (
    DEFAULT_FOOTPRINT_RADIUS,
    DEFAULT_STATURE,
    N_LANDMARKS,
    POSTURES,
    HumanState,
    Posture,
    landmark_block,
)
from .separation import SeparationInputs
from .zones import SafetyParams, ZoneLayout, build_zone_layout, compute_msd_static


# The most ticks (control periods) one run may have.  engine.run sizes its trace
# from the tick count before the first tick: 2e6 rows of 26 float64 columns are
# about 0.43 GB.
MAX_TICKS = 2_000_000
# The bound on the x and y of every waypoint, and on a human's stature and
# footprint radius: far beyond the 5.5 m scanner range, and small enough that
# squared landmark and footprint distances stay finite.
MAX_COORDINATE = 1000.0  # m
# The bound on the range noise amplitude: far beyond a laser scanner's noise,
# and small enough that the draws from [-noise, noise] stay finite.
MAX_NOISE = 1.0  # m
# The bound on the task gain: the resolved rates saturate at the joint speed
# limits long before it, and far beyond it they overflow.
MAX_TASK_GAIN = 1000.0


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
        try:
            text = Path(source).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:  # exc.object holds the whole file
            line, byte = exc.object.count(b"\n", 0, exc.start) + 1, exc.object[exc.start]
            problem = f"line {line}: {source} is not UTF-8 text: byte 0x{byte:02x}"
            raise ScenarioError(problem) from None
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

    def landmarks_at(self, ticks: np.ndarray) -> np.ndarray:
        """The landmarks (n, 32, 3) of the given ticks: row j is pose_landmarks
        of the state of tick ticks[j], bit for bit.  A tick in a still piece
        takes that piece's one pose; the others are built together with
        landmark_block, each on its own state."""
        piece = self.piece[ticks]
        held = self.still[piece]
        if not held.any():
            return self._build(ticks)
        out = np.empty((len(ticks), N_LANDMARKS, 3))
        moving = np.flatnonzero(~held)
        if len(moving):
            out[moving] = self._build(ticks[moving])
        for p in np.unique(piece[held]).tolist():
            rows = piece == p
            out[rows] = self._pose(int(ticks[np.argmax(rows)]))
        return out

    def _pose(self, tick: int) -> np.ndarray:
        """The one pose (1, 32, 3) of the still piece tick lies in."""
        p = int(self.piece[tick])
        if p not in self._poses:
            self._poses[p] = self._build(slice(tick, tick + 1))
        return self._poses[p]

    def _build(self, ticks) -> np.ndarray:
        """landmark_block of the states of ticks, a slice or an index array."""
        piece = self.piece[ticks]
        return landmark_block(
            self.x[ticks],
            self.y[ticks],
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
class Scenario:
    name: str = "unnamed"
    mode: SimMode = SimMode.PROPOSED
    duration: float = 0.0
    seed: int = 0
    humans: tuple[HumanScript, ...] = ()
    task: RobotTask = RobotTask(steps=())
    q0: tuple[float, float, float, float, float, float] = (0.0,) * 6
    gains_config: GainsConfig = GainsConfig()
    # Not keys of the file: every scenario runs at the controller's period, with
    # the cell's ISO 13855 terms (a 0.45 m static MSD) and ISO/TS 15066 terms,
    # and flags a pending standstill longer than 5 s as a deadlock.
    control_period: ClassVar[float] = CONTROL_PERIOD
    safety: ClassVar[SafetyParams] = SafetyParams()
    separation: ClassVar[SeparationInputs] = SeparationInputs()
    stall_threshold: ClassVar[float] = 5.0  # s
    sequential: bool = False
    noise: float = 0.0
    parallelism: float = 1.0

    def build_layout(self) -> ZoneLayout:
        """The cell's zone layout around the static MSD of its safety terms."""
        return build_zone_layout(compute_msd_static(self.safety))

    def with_mode(self, mode: SimMode) -> "Scenario":
        return replace(self, mode=mode)


def build_model(scenario: Scenario) -> RobotModel:
    """The arm every scenario runs: the one RobotModel()."""
    return RobotModel()


def build_gains(scenario: Scenario) -> Gains:
    return Gains.diagonal(**vars(scenario.gains_config))


# The scalar keys whose values must be positive.
_POSITIVE = {"duration", "footprint_radius", "stature"}


def _range_problem(key: str, v) -> str | None:
    """What is out of range in a scalar key's value, checked where the key is
    read, or None; most keys of the [gains] section are checked by Gains instead."""
    if key in _POSITIVE and v <= 0:
        return f"{key} must be positive"
    # engine.run runs round(duration / CONTROL_PERIOD) ticks, more than MAX_TICKS
    # exactly when the quotient exceeds MAX_TICKS + 0.5 (or overflows to inf).
    if key == "duration" and (ticks := v / CONTROL_PERIOD) > MAX_TICKS + 0.5:
        return (
            f"{key} {v!r} s is {ticks:.6g} ticks of {CONTROL_PERIOD} s, "
            f"more than the {MAX_TICKS} a run may have"
        )
    if key in ("footprint_radius", "stature") and v > MAX_COORDINATE:
        return f"{key} must be at most {MAX_COORDINATE:g} m, got {v!r}"
    # The ideal cycle is the solo time divided by it: never longer, and finite.
    if key == "parallelism" and v < 1:
        return f"{key} must be >= 1, got {v!r}"
    if key in ("seed", "noise") and v < 0:
        return f"{key} must be >= 0"
    if key == "noise" and v > MAX_NOISE:
        return f"{key} must be at most {MAX_NOISE:g} m, got {v!r}"
    if key == "task_gain" and v > MAX_TASK_GAIN:
        return f"{key} must be at most {MAX_TASK_GAIN:g}, got {v!r}"
    if key == "cycles" and v < 1:
        return f"{key} must be >= 1"
    if key == "q0":
        try:
            RobotModel().check_joint_vector(v)
        except ValueError as exc:
            return f"{key}: {exc}"
    return None


def _cite(keys, lines: dict[str, int], fallback: int) -> tuple[str, str]:
    """'line N: ' for the first of keys the file sets, else fallback ('' for 0: no such
    section), and ' (key on line M, ...)' for the others it sets, to put around a message."""
    named = [k for k in dict.fromkeys(keys) if k in lines]
    at = lines[named[0]] if named else fallback
    others = ", ".join(f"{k} on line {lines[k]}" for k in named[1:])
    return f"line {at}: " if at else "", f" ({others})" if others else ""


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

    def read(self, e: Entry, label: str, errors: list):
        """The value of an entry, or None with the reason appended to errors; a value
        out of _range_problem's range is kept, and its problem appended after label."""
        try:
            value = self.codec.parse(e.value)
        except (ValueError, KeyError):
            errors.append(f"line {e.line}: " + self.codec.error.format(key=self.key, text=e.value))
            return None
        numbers = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(v) for v in numbers if isinstance(v, float)):
            errors.append(f"line {e.line}: '{self.key}' must be finite, got {e.value}")
            return None
        problem = _range_problem(self.key, value)
        if problem:
            errors.append(f"line {e.line}: {label}: {problem}")
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
    if names is None:
        names = {
            f.name: f.name for f in fields(cls) if f.name not in skip and hints[f.name] in _CODECS
        }
    keys = {key: _Key(key, f, _CODECS[hints[f]]) for key, f in names.items()}
    return _Section(cls, keys, row)


_ROBOT_KEYS = {"q0": "q0"}
_SECTIONS = {
    "scenario": _section(Scenario, skip=_ROBOT_KEYS.values()),
    "gains": _section(GainsConfig),
    "robot": _section(Scenario, names=_ROBOT_KEYS),
    "human": _section(HumanScript, row="waypoint"),  # also human2, human3, ...
    "task": _section(RobotTask, row="step"),
}
_HUMAN = re.compile(r"human(\d*)")


def _kind(section: str) -> str | None:
    """The _SECTIONS entry that describes a section name, or None for an unknown one."""
    if _HUMAN.fullmatch(section):
        return "human"
    return section if section in _SECTIONS else None


def _read_section(name: str, label: str, entries: Section, errors: list):
    """The field values a section sets, its rows in file order, and the line of each key set;
    label starts the problem of a value out of range."""
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
            value = k.read(e, label, errors)
            if value is not None:
                values[k.attr] = value
    # A key left out keeps its default, checked at the header: only [scenario]'s duration fails.
    for k in spec.keys.values():
        if k.key not in lines and (problem := _range_problem(k.key, getattr(spec.cls, k.attr))):
            errors.append(f"line {entries.line}: {label}: {problem}")
    return values, rows, lines


def _gains(values: dict, section: Section, lines: dict[str, int], errors: list):
    """The GainsConfig of the values read, or None if Gains refuses them;
    the error cites the keys its message names, in file order."""
    try:
        Gains.diagonal(**values)
        return GainsConfig(**values)
    except ValueError as exc:
        named = sorted(lines.keys() & str(exc).split(), key=lines.get)
        at, where = _cite(named, lines, section.line)
        errors.append(f"{at}gains: {exc}{where}")
        return None


# How each row key's value reads, and which of its tokens are numbers.
_ROWS = {
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


def _waypoints(
    h: int, rows: list[Entry], duration: float, lines: dict[str, int], errors: list
) -> tuple[HumanWaypoint, ...]:
    """The waypoints of human h; none may lie after a positive duration."""
    waypoints, last = [], None  # last: the index and line of the last waypoint kept
    for idx, e, parts, (t, x, y) in _rows("waypoint", rows, errors):
        posture = _POSTURES.get(parts[3].lower())
        if posture is None:
            errors.append(f"line {e.line}: waypoint {idx} unknown posture '{parts[3]}'")
            continue
        problem = f"line {e.line}: human {h}: waypoint {idx}"
        if waypoints and t <= waypoints[-1].t:
            errors.append(f"{problem} timestamp {t} not after waypoint {last}")
        if not (abs(x) <= MAX_COORDINATE and abs(y) <= MAX_COORDINATE):
            bounds = f"[-{MAX_COORDINATE:g}, {MAX_COORDINATE:g}] m"
            errors.append(f"{problem} x and y must lie in {bounds}, got {x!r} {y!r}")
        if 0 < duration < t:
            errors.append(
                f"{problem} at {t}s is after the end of the {duration}s run "
                f"set on line {lines['duration']}"
            )
        waypoints.append(HumanWaypoint(t, x, y, posture))
        last = f"{idx} on line {e.line}"
    return tuple(waypoints)


def _steps(rows: list[Entry], errors: list) -> tuple[TaskStep, ...]:
    steps, reach = [], RobotModel().reach
    for idx, e, parts, (*target, dwell) in _rows("step", rows, errors):
        distance = math.hypot(*target)
        if distance > reach:
            errors.append(
                f"line {e.line}: task: step {idx} '{parts[0]}' target is {distance:.4g} m "
                f"from the base, beyond the {reach} m reach"
            )
        if dwell < 0:
            problem = f"dwell must be >= 0, got {dwell!r}"
            errors.append(f"line {e.line}: task: step {idx} '{parts[0]}' {problem}")
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
    """Parse and fully validate a scenario file; raises ScenarioError with all problems.

    Unknown sections come first.  Then each section's problems follow in the order the
    parser reads it, whatever the file's order: [scenario], [robot], [gains],
    each [human] by number, [task].
    A value is checked where it is read, and values checked together once all are read.
    """
    sections = parse_sections(source)
    if "scenario" not in sections:
        raise ScenarioError(["missing [scenario] section"])
    errors = [
        f"line {entries.line}: unknown section [{name}]"
        for name, entries in sections.items()
        if _kind(name) is None
    ]
    key_lines = {}  # section name -> the line of each key it sets

    def read(name, label=None) -> tuple[dict, list[Entry]]:
        entries = sections.get(name, Section(0))
        values, rows, key_lines[name] = _read_section(name, label or name, entries, errors)
        return values, rows

    values = {**read("scenario")[0], **read("robot")[0]}
    gains = _gains(read("gains")[0], sections.get("gains", Section(0)), key_lines["gains"], errors)
    if gains is not None:
        values["gains_config"] = gains
    humans = []
    human_sections = sorted((s for s in sections if _kind(s) == "human"), key=_human_order)
    for h, name in enumerate(human_sections):
        scalars, rows = read(name, f"human {h}")
        waypoints = _waypoints(h, rows, values.get("duration", 0.0), key_lines["scenario"], errors)
        if not waypoints:
            errors.append(f"line {sections[name].line}: human {h}: no waypoints")
        humans.append(HumanScript(waypoints=waypoints, **scalars))
    values["humans"] = tuple(humans)
    scalars, rows = read("task")
    steps = _steps(rows, errors)
    if not steps:
        line = sections.get("task", Section(0)).line  # 0: the file has no [task]
        errors.append(f"line {line}: task: no steps" if line else "task: no steps")
    values["task"] = task = RobotTask(steps=steps, **scalars)
    duration = values.get("duration")
    if steps and duration is not None and _range_problem("duration", duration) is None:
        _check_plan(task, duration, key_lines, sections, errors)
    if errors:
        raise ScenarioError(errors)
    return Scenario(**values)


def _check_plan(task: RobotTask, duration: float, key_lines, sections, errors: list):
    """A task whose plan, in the mode that runs the most steps, has more steps
    than the run has ticks can never finish them: a step finishes on a tick of
    its own.  The problem starts at cycles, or at [task] when it is left out."""
    ticks = round(duration / CONTROL_PERIOD)
    per_cycle = max(len(task.steps_for(mode)) for mode in SimMode)
    if task.cycles * per_cycle > ticks:
        at = key_lines["task"].get("cycles", sections["task"].line)
        run = f"the {duration!r} s run set on line {key_lines['scenario']['duration']}"
        errors.append(
            f"line {at}: task: {task.cycles} cycles of {per_cycle} steps are more steps "
            f"than the {ticks} ticks of {run}"
        )


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
    blocks.append(_section_text("gains", sc.gains_config))
    blocks.append(_section_text("robot", sc))
    for i, human in enumerate(sc.humans):
        rows = [f"{w.t!r} {w.x!r} {w.y!r} {w.posture.value}" for w in human.waypoints]
        blocks.append(_section_text("human" if i == 0 else f"human{i + 1}", human, rows))
    steps = []
    for s in sc.task.steps:
        row = f"{s.name} {s.target[0]!r} {s.target[1]!r} {s.target[2]!r} {s.dwell!r}"
        steps.append(row + (" " + ",".join(s.modes) if s.modes else ""))
    blocks.append(_section_text("task", sc.task, steps))
    return "\n\n".join(blocks) + "\n"
