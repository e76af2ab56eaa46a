"""Static safety zones: minimum separation distance, three-layer quadrant layout, classification."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .kinematics import RobotModel

DANGER_MARGIN = 0.100  # m, band added around the robot's working strip
DEFAULT_QUADRANT_HALF_WIDTH = RobotModel.reach / 2  # m, half the arm's reach: 0.425
DEFAULT_LASER_MOUNT_HEIGHT = 0.400  # m
DEFAULT_HEIGHT_BAND = (0.0, 2.0)  # m
# Human-to-TCP distance at which the secondary speed scaling bottoms out.
# Matches the irreducible protective terms of the dynamic separation formula.
DEFAULT_SCALE_FLOOR_DISTANCE = 0.300  # m
# Relative distance from a disc's radius within which np.hypot and math.hypot
# might round to opposite sides of it; both are within one ulp.
_HYPOT_SLACK = 1e-12


class ZoneError(ValueError):
    pass


class Zone(enum.IntEnum):
    """Severity-ordered zone bands (higher value = more severe)."""

    NORMAL = 0
    WARNING = 1
    DANGER = 2


class Quadrant(enum.Enum):
    LEFT = "left"
    RIGHT = "right"
    BOTH = "both"


@dataclass(frozen=True)
class ZoneLabel:
    zone: Zone
    quadrant: Quadrant


@dataclass(frozen=True)
class SafetyParams:
    """Inputs of the static separation formula.

    approach_speed: operator walking speed toward the cell (m/s)
    stop_time: total perception + control + braking time (s)
    intrusion: reach of body parts past the detected position (m)
    uncertainty: position uncertainty allowance (m)
    """

    approach_speed: float = 1.6
    stop_time: float = 0.5
    intrusion: float = 0.85
    uncertainty: float = 0.1

    def __post_init__(self):
        for name in ("approach_speed", "stop_time", "intrusion", "uncertainty"):
            if getattr(self, name) < 0:
                raise ZoneError(f"{name} must be >= 0")


def compute_msd_static(params: SafetyParams) -> float:
    """Static minimum separation distance: K*T + C + delta."""
    return params.approach_speed * params.stop_time + params.intrusion + params.uncertainty


@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned rectangle in the ground plane."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def contains(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def distance_to(self, x: float, y: float) -> float:
        dx = max(self.x_min - x, 0.0, x - self.x_max)
        dy = max(self.y_min - y, 0.0, y - self.y_max)
        return math.hypot(dx, dy)

    def strictly_inside(self, other: "Rect") -> bool:
        return (
            other.x_min <= self.x_min
            and self.x_max < other.x_max
            and other.y_min <= self.y_min
            and self.y_max <= other.y_max
        )

    def corners(self) -> list[tuple[float, float]]:
        return [
            (self.x_min, self.y_min),
            (self.x_max, self.y_min),
            (self.x_max, self.y_max),
            (self.x_min, self.y_max),
        ]


@dataclass(frozen=True)
class ZoneLayout:
    """Three nested zone rectangles split into left/right quadrants at y = 0.

    The base frame sits at the origin with +x the approach axis; the split
    line runs along x.  scale_start_distance / scale_floor_distance are the
    human-to-TCP distances anchoring the secondary speed-scaling ramp.
    """

    danger_extent: Rect
    warning_extent: Rect
    normal_extent: Rect
    height_band: tuple[float, float] = DEFAULT_HEIGHT_BAND
    quadrant_half_width: float = DEFAULT_QUADRANT_HALF_WIDTH
    laser_mount_height: float = DEFAULT_LASER_MOUNT_HEIGHT
    msd: float = 0.0
    danger_margin: float = DANGER_MARGIN
    scale_start_distance: float = 0.0
    scale_floor_distance: float = DEFAULT_SCALE_FLOOR_DISTANCE

    @property
    def reach(self) -> float:
        return 2.0 * self.quadrant_half_width

    def extent(self, zone: Zone) -> Rect:
        if zone == Zone.DANGER:
            return self.danger_extent
        if zone == Zone.WARNING:
            return self.warning_extent
        return self.normal_extent


def build_zone_layout(
    msd: float,
    workspace_length: float,
    workspace_width: float,
    quadrant_half_width: float = DEFAULT_QUADRANT_HALF_WIDTH,
    *,
    danger_margin: float = DANGER_MARGIN,
    height_band: tuple[float, float] = DEFAULT_HEIGHT_BAND,
    laser_mount_height: float = DEFAULT_LASER_MOUNT_HEIGHT,
    scale_floor_distance: float = DEFAULT_SCALE_FLOOR_DISTANCE,
) -> ZoneLayout:
    """Construct the nested three-band layout for a given separation distance.

    The monitored area spans x in [0, workspace_length] in front of the base.
    The warning band's outer boundary sits exactly msd from the TCP of the
    fully stretched arm (x = reach); the danger band covers the robot's
    working strip plus danger_margin.
    """
    if workspace_length <= 0 or workspace_width <= 0:
        raise ZoneError("workspace dimensions must be positive")
    if quadrant_half_width <= 0:
        raise ZoneError("quadrant_half_width must be positive")
    if msd < 0:
        raise ZoneError("msd must be >= 0")
    reach = 2.0 * quadrant_half_width
    danger_front = quadrant_half_width + danger_margin
    warning_front = reach + msd
    if msd >= workspace_length or warning_front >= workspace_length:
        raise ZoneError(
            f"infeasible layout: warning boundary {warning_front:.4g} m does not fit "
            f"inside the {workspace_length:.4g} m workspace"
        )
    if danger_front >= warning_front:
        raise ZoneError("infeasible layout: danger band would swallow the warning band")
    half_w = workspace_width / 2.0
    danger_half_w = min(danger_front, half_w)
    normal = Rect(0.0, workspace_length, -half_w, half_w)
    warning = Rect(0.0, warning_front, -half_w, half_w)
    danger = Rect(0.0, danger_front, -danger_half_w, danger_half_w)
    layout = ZoneLayout(
        danger_extent=danger,
        warning_extent=warning,
        normal_extent=normal,
        height_band=height_band,
        quadrant_half_width=quadrant_half_width,
        laser_mount_height=laser_mount_height,
        msd=msd,
        danger_margin=danger_margin,
        scale_start_distance=msd,
        scale_floor_distance=scale_floor_distance,
    )
    assert danger.strictly_inside(warning) and warning.strictly_inside(normal)
    return layout


def quadrant_of(y: float) -> Quadrant:
    """The side of the split line y = 0 that a point lies on; BOTH on the line, and for NaN."""
    if y > 0:
        return Quadrant.RIGHT
    if y < 0:
        return Quadrant.LEFT
    return Quadrant.BOTH


def classify_point(layout: ZoneLayout, p) -> ZoneLabel:
    """Innermost zone containing the ground projection of p within the height band."""
    x, y = float(p[0]), float(p[1])
    z = float(p[2]) if len(p) > 2 else layout.height_band[0]
    quadrant = quadrant_of(y)
    if not layout.height_band[0] <= z <= layout.height_band[1]:
        return ZoneLabel(Zone.NORMAL, quadrant)
    if layout.danger_extent.contains(x, y):
        return ZoneLabel(Zone.DANGER, quadrant)
    if layout.warning_extent.contains(x, y):
        return ZoneLabel(Zone.WARNING, quadrant)
    return ZoneLabel(Zone.NORMAL, quadrant)


def classify_footprint(layout: ZoneLayout, center, radius: float) -> ZoneLabel:
    """Severest zone any point of a ground disc touches.

    Quadrant is BOTH when the disc crosses the split line y = 0.
    """
    if radius <= 0:
        raise ZoneError("radius must be positive")
    cx, cy = float(center[0]), float(center[1])
    if layout.danger_extent.distance_to(cx, cy) <= radius:
        zone = Zone.DANGER
    elif layout.warning_extent.distance_to(cx, cy) <= radius:
        zone = Zone.WARNING
    else:
        zone = Zone.NORMAL
    quadrant = Quadrant.BOTH if abs(cy) <= radius else quadrant_of(cy)
    return ZoneLabel(zone, quadrant)


def footprint_zones(layout: ZoneLayout, x: np.ndarray, y: np.ndarray, radius: float) -> np.ndarray:
    """``classify_footprint(layout, (x[k], y[k]), radius).zone`` of each k, as int8.

    The distances to each rectangle are distance_to's operations elementwise,
    with np.hypot for math.hypot; where the two could disagree about which
    side of the radius a distance lies on, classify_footprint decides.
    """
    if radius <= 0:
        raise ZoneError("radius must be positive")
    zone = np.zeros(len(x), dtype=np.int8)
    near = np.zeros(len(x), dtype=bool)
    for level in (Zone.WARNING, Zone.DANGER):  # danger overrides warning
        rect = layout.extent(level)
        dx = np.maximum(np.maximum(rect.x_min - x, 0.0), x - rect.x_max)
        dy = np.maximum(np.maximum(rect.y_min - y, 0.0), y - rect.y_max)
        d = np.hypot(dx, dy)
        zone[d <= radius] = level
        near |= np.abs(d - radius) <= _HYPOT_SLACK * radius
    for k in np.flatnonzero(near).tolist():
        zone[k] = classify_footprint(layout, (x[k], y[k]), radius).zone
    return zone


def export_layout(layout: ZoneLayout) -> str:
    """Structured-text export of the layout (corner coordinates, 6 decimals)."""
    lines = [
        "# safety zone layout (meters)",
        f"msd = {layout.msd:.6f}",
        f"reach = {layout.reach:.6f}",
        f"quadrant_half_width = {layout.quadrant_half_width:.6f}",
        f"laser_mount_height = {layout.laser_mount_height:.6f}",
        f"height_band = {layout.height_band[0]:.6f} {layout.height_band[1]:.6f}",
        f"scale_start_distance = {layout.scale_start_distance:.6f}",
        f"scale_floor_distance = {layout.scale_floor_distance:.6f}",
        "split_line = y=0 along x",
    ]
    for zone in (Zone.DANGER, Zone.WARNING, Zone.NORMAL):
        rect = layout.extent(zone)
        lines.append(f"[{zone.name.lower()}]")
        for i, (x, y) in enumerate(rect.corners()):
            lines.append(f"corner_{i} = {x:.6f} {y:.6f}")
    return "\n".join(lines) + "\n"
