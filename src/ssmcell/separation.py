"""Time-varying protective separation distance and the violation predicate."""

from __future__ import annotations

from dataclasses import dataclass

# Hysteresis applied by the control loop so the predicate cannot chatter on noise.
VIOLATION_HYSTERESIS = 0.02  # m


class SeparationError(ValueError):
    pass


@dataclass(frozen=True)
class SeparationInputs:
    """Inputs for the dynamic separation distance.

    human_speed / robot_speed in m/s; robot_reaction_time is the controller
    latency (s); perception_response_time the sensing latency (s); intrusion,
    robot_uncertainty, human_uncertainty are fixed allowances (m).  The
    defaults past the two speeds are the cell's ISO/TS 15066 terms, the ones
    every scenario runs with.
    """

    human_speed: float = 0.0
    robot_speed: float = 0.0
    robot_reaction_time: float = 0.1
    perception_response_time: float = 0.064
    intrusion: float = 0.06
    robot_uncertainty: float = 0.02
    human_uncertainty: float = 0.02

    def __post_init__(self):
        for name in (
            "human_speed",
            "robot_speed",
            "robot_reaction_time",
            "perception_response_time",
            "intrusion",
            "robot_uncertainty",
            "human_uncertainty",
        ):
            _check_non_negative(name, getattr(self, name))

    def with_speeds(self, human_speed: float, robot_speed: float) -> "SeparationInputs":
        """These inputs at other speeds.  Only the two speeds are checked: the
        other fields were checked when these inputs were made."""
        _check_non_negative("human_speed", human_speed)
        _check_non_negative("robot_speed", robot_speed)
        other = object.__new__(SeparationInputs)
        other.__dict__.update(self.__dict__, human_speed=human_speed, robot_speed=robot_speed)
        return other


def _check_non_negative(name: str, value: float):
    if value < 0:
        raise SeparationError(f"{name} must be >= 0")


def _travel_terms(
    inputs: SeparationInputs, human_speed: float, robot_speed: float
) -> tuple[float, float, float]:
    t_r = inputs.robot_reaction_time
    t_s = inputs.perception_response_time
    s_h = human_speed * (t_r + t_s)
    s_r = robot_speed * t_r
    s_s = robot_speed * (t_r + t_s)
    return s_h, s_r, s_s


def separation_terms(inputs: SeparationInputs) -> tuple[float, float, float]:
    """The three travel terms: (human travel, robot travel, robot stopping travel)."""
    return _travel_terms(inputs, inputs.human_speed, inputs.robot_speed)


def msd_at_speeds(inputs: SeparationInputs, human_speed: float, robot_speed: float) -> float:
    """``compute_msd_dynamic(inputs.with_speeds(human_speed, robot_speed))`` without the copy.

    The speeds are not validated; the per-tick caller passes scripted walk
    speeds and a vector norm, all >= 0 by construction.  human_speed may be
    an array: each element gets the float operations a scalar would.
    """
    s_h, s_r, s_s = _travel_terms(inputs, human_speed, robot_speed)
    return s_h + s_r + s_s + inputs.intrusion + inputs.robot_uncertainty + inputs.human_uncertainty


def compute_msd_dynamic(inputs: SeparationInputs) -> float:
    """Dynamic minimum separation distance: travel terms plus fixed allowances."""
    return msd_at_speeds(inputs, inputs.human_speed, inputs.robot_speed)


class ViolationGate:
    """Stateful violation predicate with release hysteresis for in-loop use.

    Trips as soon as the distance drops below the dynamic minimum and releases
    only once the distance clears the minimum plus VIOLATION_HYSTERESIS.
    """

    def __init__(self):
        self.tripped = False

    def update(self, actual_distance: float, inputs: SeparationInputs) -> bool:
        msd = compute_msd_dynamic(inputs)
        if self.tripped:
            if actual_distance > msd + VIOLATION_HYSTERESIS:
                self.tripped = False
        else:
            if actual_distance < msd:
                self.tripped = True
        return self.tripped
