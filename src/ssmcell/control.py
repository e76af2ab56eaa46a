"""Hierarchical two-loop velocity controller: zone arbitration, skeleton scaling, resolution."""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .kinematics import (
    DEFAULT_DAMPING,
    Jacobian,
    RANK_TOL,
    RobotModel,
    SINGULARITY_THRESHOLD,
)
from .perception import SCAN_PERIOD, SKELETON_RATE
from .separation import SeparationInputs, ViolationGate
from .zones import Quadrant, Zone, ZoneLayout

NOMINAL_SPEED = 1.0  # m/s, full Cartesian speed
FULL_FRACTION = 1.0
COLLABORATIVE_FRACTION = 0.5
CONTROL_PERIOD = 0.002  # s
STALE_PERIODS = 3.0  # sensor silence tolerated, in units of that sensor's period
_TIME_TOL = 1e-9
_SCALARS = struct.Struct("4d")  # exact bits of d_i, human_speed, tcp_speed and fraction


class ControlError(ValueError):
    pass


class ModeKind(enum.Enum):
    FULL = "full"
    COLLABORATIVE = "collaborative"
    REDUCED = "reduced"
    STANDSTILL = "standstill"


class CommandSource(enum.Enum):
    PRIMARY_LOOP = "primary"
    SECONDARY_LOOP = "secondary"
    ESTOP = "estop"


@dataclass(frozen=True)
class SpeedMode:
    kind: ModeKind
    fraction: float

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise ControlError(f"fraction {self.fraction} outside [0, 1]")
        expected = _FIXED_FRACTIONS.get(self.kind)
        if expected is not None and self.fraction != expected:
            raise ControlError(f"{self.kind} must carry fraction {expected}")


# The fraction each mode but REDUCED must carry.
_FIXED_FRACTIONS = {
    ModeKind.FULL: FULL_FRACTION,
    ModeKind.COLLABORATIVE: COLLABORATIVE_FRACTION,
    ModeKind.STANDSTILL: 0.0,
}


MODE_FULL = SpeedMode(ModeKind.FULL, FULL_FRACTION)
MODE_COLLABORATIVE = SpeedMode(ModeKind.COLLABORATIVE, COLLABORATIVE_FRACTION)
MODE_STANDSTILL = SpeedMode(ModeKind.STANDSTILL, 0.0)


@dataclass(frozen=True)
class Gains:
    """Controller gains; kp/kd/task_gain are positive-definite diagonal 6x6."""

    kp: np.ndarray = field(repr=False)
    kd: np.ndarray = field(repr=False)
    task_gain: np.ndarray = field(repr=False)
    k0: float
    ks_floor: float
    accel_limit: float

    def __post_init__(self):
        for name in ("kp", "kd", "task_gain"):
            m = getattr(self, name)
            if m.shape != (6, 6):
                raise ControlError(f"{name} must be 6x6")
            if np.any(np.diag(m) < 0) or (name != "kd" and np.any(np.diag(m) <= 0)):
                raise ControlError(f"{name} diagonal must be positive")
        if self.k0 < 0:
            raise ControlError("k0 must be >= 0")
        if not 0.0 < self.ks_floor <= 1.0:
            raise ControlError("ks_floor must lie in (0, 1]")
        if self.accel_limit <= 0:
            raise ControlError("accel_limit must be positive")

    @staticmethod
    def diagonal(
        kp: float = 20.0,
        kd: float = 2.0,
        task_gain: float = 1.0,
        k0: float = 0.05,
        ks_floor: float = 0.3,
        accel_limit: float = 2.0,  # fraction/s slew bound on the commanded fraction
    ) -> "Gains":
        """Gains with kp, kd and task_gain on the diagonal, in read-only arrays; the
        defaults are the cell's gains, Scenario.gains_config, which every run shares."""
        diagonals = [np.eye(6) * g for g in (kp, kd, task_gain)]
        for m in diagonals:
            m.flags.writeable = False
        return Gains(*diagonals, k0, ks_floor, accel_limit)


class SpeedCommand(NamedTuple):
    """One control tick's arbitration output and resolved joint rates; the
    rate arrays are read-only, as later ticks may return the same command."""

    mode: SpeedMode
    fraction: float  # slew-limited fraction actually applied this tick
    v_cartesian: float  # fraction x nominal speed (m/s)
    qdot_cmd: np.ndarray
    qdot_task: np.ndarray | None = None  # resolution before PD correction
    source: CommandSource = CommandSource.PRIMARY_LOOP
    damped: bool = False


def primary_speed_select(left: Zone, right: Zone, robot_quadrant: Quadrant) -> SpeedMode:
    """Zone/quadrant arbitration of the laser loop, on the zones of the left
    and the right quadrant.

    Danger on the robot's side stops it; warning on its side, or any intrusion
    on the opposite side, drops it to collaborative speed; otherwise full speed.
    """
    if robot_quadrant is Quadrant.BOTH:
        own, opposite = max(left, right), Zone.NORMAL
    elif robot_quadrant is Quadrant.LEFT:
        own, opposite = left, right
    else:
        own, opposite = right, left
    if own == Zone.DANGER:
        return MODE_STANDSTILL
    if own == Zone.WARNING or opposite >= Zone.WARNING:
        return MODE_COLLABORATIVE
    return MODE_FULL


def scale_factor(d_i: float, layout: ZoneLayout, gains: Gains) -> float:
    """Skeleton-distance scaling: 1 at the trigger distance, floor at the danger boundary."""
    start = layout.scale_start_distance
    floor_d = layout.scale_floor_distance
    if d_i >= start:
        return 1.0
    if d_i <= floor_d or start <= floor_d:
        return gains.ks_floor
    return gains.ks_floor + (1.0 - gains.ks_floor) * (d_i - floor_d) / (start - floor_d)


def secondary_scale(
    d_i: float, layout: ZoneLayout, mode_in: SpeedMode, gains: Gains
) -> SpeedMode:
    """Apply the skeleton scaling to the primary mode; can only reduce speed."""
    if d_i < 0:
        raise ControlError("d_i must be >= 0")
    if mode_in.kind == ModeKind.STANDSTILL:
        return mode_in
    if d_i > layout.scale_start_distance:
        return mode_in
    target = min(mode_in.fraction, scale_factor(d_i, layout, gains) * FULL_FRACTION)
    if target < mode_in.fraction:
        return SpeedMode(ModeKind.REDUCED, target)
    return mode_in


class _Resolution:
    """What _resolve_rates computed for one Jacobian object and q bytes: U.T
    and V = Vt.T of the SVD, the task factors, the null-space term and the
    damped flag; and the rates for the last v6 bytes (None before the first)."""

    __slots__ = (
        "J", "q_bytes", "Ut", "V", "task_factors", "null_term", "damped", "v_bytes", "rates"
    )

    def __init__(self, J, q_bytes, Ut, V, task_factors, null_term, damped):
        self.J, self.q_bytes, self.Ut, self.V = J, q_bytes, Ut, V
        self.task_factors, self.null_term, self.damped = task_factors, null_term, damped
        self.v_bytes = self.rates = None


class Controller:
    """Single-writer controller state machine fed by timestamped sensor messages.

    Sensor messages may arrive at different rates (zero-order hold between
    arrivals) or out of order within a period (latest timestamp wins).  A
    sensor silent for longer than STALE_PERIODS of its own period forces a
    fail-safe standstill.  Each tick lasts CONTROL_PERIOD; a fraction of 1
    commands NOMINAL_SPEED.  With sequential, both loops are gated to the
    skeleton rate (the slow-loop emulation baseline).
    """

    def __init__(
        self,
        model: RobotModel,
        layout: ZoneLayout,
        gains: Gains,
        separation: SeparationInputs,
        *,
        sequential: bool = False,
    ):
        self.model = model
        self.layout = layout
        self.gains = gains
        self.separation = separation
        self.sequential = sequential
        self.fraction = 0.0
        self.zones = (Zone.NORMAL, Zone.NORMAL)  # the held scan's left and right zone
        self._occ_t = -math.inf
        self._d_i = math.inf
        self._human_speed = 0.0
        self._skel_t = -math.inf
        self._gate = ViolationGate()
        self._held: tuple[SpeedMode, CommandSource] | None = None
        self._held_skel_t = -math.inf
        # The key of the last full step, its command and the gate state it left.
        self._last: tuple[tuple, SpeedCommand, bool] | None = None
        self.repeated = False  # whether the last step reused the one before
        self._resolution: _Resolution | None = None  # _resolve_rates' last
        self._pd_key = self._u_pd = None  # the last e bytes of _evaluate and its correction
        # Constant pieces of the per-tick resolution.
        self._pd_matrix = np.linalg.solve(np.eye(6) + self.gains.kd, self.gains.kp)
        limits = np.asarray(model.joint_limits, dtype=float)
        # Per joint: the mid-range and the squared range, as Python floats.
        self._joint_centering = list(
            zip(
                (0.5 * (limits[:, 0] + limits[:, 1])).tolist(),
                ((limits[:, 1] - limits[:, 0]) ** 2).tolist(),
            )
        )

    def offer_scan(self, t: float, left: Zone, right: Zone):
        """Hold the zones of the left and the right quadrant scanned at t, as
        Zone members or their codes."""
        if t >= self._occ_t:  # latest wins; stale duplicates dropped
            self.zones = (left, right)
            self._occ_t = t

    def offer_skeleton(self, t: float, d_i: float, human_speed: float = 0.0):
        if t >= self._skel_t:
            self._d_i = d_i
            self._human_speed = human_speed
            self._skel_t = t

    def seed_fraction(self, robot_quadrant: Quadrant):
        """Start at rest at the fraction the held messages arbitrate to, so
        that a cold start has nothing to slew.  Arbitrating again with the
        same messages, as the first step does, gives the same mode and gate state."""
        self.fraction = self._arbitrate(robot_quadrant, 0.0)[0].fraction

    def _stale(self, t: float) -> bool:
        return (
            t - self._occ_t > STALE_PERIODS * SCAN_PERIOD + _TIME_TOL
            or t - self._skel_t > STALE_PERIODS * (1.0 / SKELETON_RATE) + _TIME_TOL
        )

    def _arbitrate(self, robot_quadrant: Quadrant, tcp_speed: float):
        primary = primary_speed_select(*self.zones, robot_quadrant)
        mode = secondary_scale(self._d_i, self.layout, primary, self.gains)
        source = (
            CommandSource.SECONDARY_LOOP if mode is not primary else CommandSource.PRIMARY_LOOP
        )
        if math.isfinite(self._d_i):
            inputs = self.separation.with_speeds(self._human_speed, tcp_speed)
            if self._gate.update(self._d_i, inputs):
                mode = MODE_STANDSTILL
                source = CommandSource.SECONDARY_LOOP
        return mode, source

    def _resolve_rates(self, q: np.ndarray, v6: np.ndarray, J: Jacobian) -> tuple[np.ndarray, bool]:
        """Single-SVD velocity resolution with null-space energy optimization.

        Rates are J^+ (task_gain v6) plus N (k0 grad w), where w is the
        joint-range-centering objective -sum(((q - mid) / range)^2) and N the
        null-space projector.  Below SINGULARITY_THRESHOLD the task part uses
        the damped least-squares factors s / (s^2 + DEFAULT_DAMPING^2)
        (Chiaverini 1997); the projector always uses the exact inverse.

        What depends on J and q alone (the factorisation, the factors, the
        damped flag and the null-space term) is kept for the last Jacobian
        object and q bytes, and the rates for the last v6 bytes too.  Each kept
        value is the array the same expression gives, so every bit is as when
        it is computed afresh.  The rates are read-only, as a later call may
        return the same array.
        """
        q = np.asarray(q, dtype=float)
        q_bytes = q.tobytes()
        memo = self._resolution
        if memo is None or memo.J is not J or memo.q_bytes != q_bytes:
            U, s, Vt = np.linalg.svd(J.matrix)
            values = s.tolist()
            damped = values[-1] < SINGULARITY_THRESHOLD
            # 1 / s_i above the rank tolerance, else 0, in Python floats.
            tol = RANK_TOL * values[0]
            exact_factors = np.array([1.0 / v if v > tol else 0.0 for v in values])
            if damped:
                task_factors = s / (s * s + DEFAULT_DAMPING * DEFAULT_DAMPING)
            else:
                task_factors = exact_factors
            # k0 * (-2 (q - mid) / range^2), elementwise in Python floats.
            k0 = self.gains.k0
            centering = zip(q.tolist(), self._joint_centering)
            qdot0 = np.array([k0 * (-2.0 * (v - mid) / span_sq) for v, (mid, span_sq) in centering])
            # N qdot0 = qdot0 - J^+ (J qdot0) without forming the projector.
            null_term = qdot0 - Vt.T @ (exact_factors * (U.T @ (J.matrix @ qdot0)))
            memo = _Resolution(J, q_bytes, U.T, Vt.T, task_factors, null_term, damped)
            self._resolution = memo
        v6 = np.asarray(v6, dtype=float)
        v_bytes = v6.tobytes()
        if v_bytes != memo.v_bytes:
            base = memo.V @ (memo.task_factors * (memo.Ut @ (self.gains.task_gain @ v6)))
            memo.rates = base + memo.null_term
            memo.rates.flags.writeable = False
            memo.v_bytes = v_bytes
        return memo.rates, memo.damped

    def step(
        self,
        t: float,
        *,
        robot_quadrant: Quadrant,
        task_direction,
        joint_reference,
        q: np.ndarray,
        tcp_speed: float = 0.0,
        J: Jacobian,
    ) -> SpeedCommand:
        """One control tick of one control period.

        The tick is keyed on everything the full evaluation reads: the
        contents of the held sensor messages (both quadrant zones, d_i and the
        human speed, and in sequential mode the time of the last skeleton
        frame, because each frame re-arbitrates), the watchdog verdict, the
        robot quadrant, the gate state, the exact bits of tcp_speed and of the
        fraction before the slew, and the bytes of the task direction, joint
        reference and q.  A tick whose key equals that of the last fully
        evaluated tick gets that tick's command, the same object, and leaves
        the state that tick left.  This memo is the controller's only one
        across whole ticks; _resolve_rates and _evaluate each keep the last
        result of their own stage.  J must be ``jacobian(model, q)``: the key
        holds q, which fixes J.
        """
        stale = self._stale(t)
        key = (
            *self.zones,
            self._skel_t if self.sequential else None,
            stale,
            robot_quadrant,
            self._gate.tripped,
            _SCALARS.pack(self._d_i, self._human_speed, tcp_speed, self.fraction),
            np.asarray(task_direction, dtype=float).tobytes(),
            np.asarray(joint_reference, dtype=float).tobytes(),
            np.asarray(q, dtype=float).tobytes(),
        )
        last = self._last
        self.repeated = last is not None and key == last[0]
        if self.repeated:
            # The full step would leave the state it left last time.
            _, command, self._gate.tripped = last
            self.fraction = command.fraction
        else:
            command = self._evaluate(
                robot_quadrant, task_direction, joint_reference, q, tcp_speed, J, stale
            )
            self._last = (key, command, self._gate.tripped)
        return command

    def _evaluate(
        self, robot_quadrant, task_direction, joint_reference, q, tcp_speed, J, stale
    ) -> SpeedCommand:
        if stale:
            mode, source = MODE_STANDSTILL, CommandSource.ESTOP
        elif self.sequential:
            # Both loops polled together at skeleton arrivals only.
            if self._held is None or self._skel_t > self._held_skel_t:
                self._held = self._arbitrate(robot_quadrant, tcp_speed)
                self._held_skel_t = self._skel_t
            mode, source = self._held
        else:
            mode, source = self._arbitrate(robot_quadrant, tcp_speed)

        if stale:
            self.fraction = 0.0  # the watchdog's standstill is exempt from the slew bound
        else:
            step_max = self.gains.accel_limit * CONTROL_PERIOD
            delta = mode.fraction - self.fraction
            self.fraction += math.copysign(min(abs(delta), step_max), delta) if delta else 0.0

        # The task velocity: the direction at the fraction's speed, no rotation.
        scale = self.fraction * NOMINAL_SPEED
        x, y, z = np.asarray(task_direction, dtype=float).tolist()
        v6 = np.array([x * scale, y * scale, z * scale, 0.0, 0.0, 0.0])
        qdot_raw, damped = self._resolve_rates(q, v6, J)
        e = np.asarray(joint_reference, dtype=float) - q
        # PD law applied semi-implicitly against the velocity plant: with the
        # reference advancing at the task rates, de/dt = -u, so
        # u = Kp e + Kd de/dt collapses to (I + Kd) u = Kp e.  This keeps the
        # 2 ms discrete loop stable at the default gains.  The correction of
        # the last e bytes is kept: it is the array the same product gives.
        e_bytes = e.tobytes()
        if e_bytes != self._pd_key:
            self._pd_key, self._u_pd = e_bytes, self._pd_matrix @ e
        u_pd = self._u_pd
        # Both outputs are clamped from the same raw vector so that a zero PD
        # correction leaves them bit-identical (exact reference tracking).
        qdot_task = self.model.clamp_joint_rates(qdot_raw)
        qdot_cmd = self.model.clamp_joint_rates(qdot_raw + u_pd)
        qdot_cmd.flags.writeable = qdot_task.flags.writeable = False
        return SpeedCommand(mode, self.fraction, scale, qdot_cmd, qdot_task, source, damped)

