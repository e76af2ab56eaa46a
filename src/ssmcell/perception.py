"""Simulated sensing: planar laser scanners and the 30 Hz skeleton stream."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .zones import Quadrant, Zone, ZoneLabel, ZoneLayout

SKELETON_RATE = 30.0  # Hz
SCAN_PERIOD = 0.030  # s, one laser scan
DEFAULT_STATURE = 1.70  # m, head landmark height when standing
DEFAULT_FOOTPRINT_RADIUS = 0.30  # m
REACH_EXTENSION = 0.80  # m, shoulder-to-wrist span of a fully extended arm
LEAN_ANGLE = math.radians(30.0)
GRID_TOL = 1e-9


class PerceptionError(ValueError):
    pass


class Posture(enum.Enum):
    STANDING = "standing"
    REACHING = "reaching"
    LEANING = "leaning"


# Canonical landmark order; index order breaks distance ties.
LANDMARK_NAMES = (
    "pelvis",
    "spine_navel",
    "spine_chest",
    "neck",
    "clavicle_left",
    "shoulder_left",
    "elbow_left",
    "wrist_left",
    "hand_left",
    "handtip_left",
    "thumb_left",
    "clavicle_right",
    "shoulder_right",
    "elbow_right",
    "wrist_right",
    "hand_right",
    "handtip_right",
    "thumb_right",
    "hip_left",
    "knee_left",
    "ankle_left",
    "foot_left",
    "hip_right",
    "knee_right",
    "ankle_right",
    "foot_right",
    "head",
    "nose",
    "eye_left",
    "ear_left",
    "eye_right",
    "ear_right",
)
N_LANDMARKS = len(LANDMARK_NAMES)
_INDEX = {name: i for i, name in enumerate(LANDMARK_NAMES)}

# Skeleton edges whose lengths stay fixed across postures (rigid stick figure).
BONES = (
    ("pelvis", "spine_navel"),
    ("spine_navel", "spine_chest"),
    ("spine_chest", "neck"),
    ("neck", "head"),
    ("head", "nose"),
    ("head", "eye_left"),
    ("head", "eye_right"),
    ("head", "ear_left"),
    ("head", "ear_right"),
    ("neck", "clavicle_left"),
    ("neck", "clavicle_right"),
    ("clavicle_left", "shoulder_left"),
    ("clavicle_right", "shoulder_right"),
    ("shoulder_left", "elbow_left"),
    ("shoulder_right", "elbow_right"),
    ("elbow_left", "wrist_left"),
    ("elbow_right", "wrist_right"),
    ("wrist_left", "hand_left"),
    ("wrist_right", "hand_right"),
    ("hand_left", "handtip_left"),
    ("hand_right", "handtip_right"),
    ("wrist_left", "thumb_left"),
    ("wrist_right", "thumb_right"),
    ("pelvis", "hip_left"),
    ("pelvis", "hip_right"),
    ("hip_left", "knee_left"),
    ("hip_right", "knee_right"),
    ("knee_left", "ankle_left"),
    ("knee_right", "ankle_right"),
    ("ankle_left", "foot_left"),
    ("ankle_right", "foot_right"),
)

# Arm segment lengths as fractions of stature; they sum so that a fully
# extended arm spans REACH_EXTENSION at the default stature.
_UPPER_ARM = 0.42 / DEFAULT_STATURE
_FOREARM = 0.38 / DEFAULT_STATURE
_HAND = 0.08 / DEFAULT_STATURE
_HANDTIP = 0.18 / DEFAULT_STATURE
_THUMB = 0.07 / DEFAULT_STATURE


@dataclass(frozen=True, eq=False)
class HumanState:
    """Scripted human: ground position (m), heading (rad), speed, size, posture.

    States compare and hash by identity: an array field has no single truth value.
    """

    ground: np.ndarray
    heading: float = math.pi
    walk_speed: float = 0.0
    footprint_radius: float = DEFAULT_FOOTPRINT_RADIUS
    posture: Posture = Posture.STANDING
    stature: float = DEFAULT_STATURE

    def __post_init__(self):
        object.__setattr__(self, "ground", np.asarray(self.ground, dtype=float))
        if self.walk_speed < 0:
            raise PerceptionError("walk_speed must be >= 0")
        if self.footprint_radius <= 0:
            raise PerceptionError("footprint_radius must be positive")
        if self.stature <= 0:
            raise PerceptionError("stature must be positive")


@dataclass(frozen=True)
class ScannerMount:
    """Planar scanner pose and optics in the base frame."""

    x: float
    y: float
    heading: float
    plane_height: float = 0.400  # m
    fov: float = 4.8  # rad
    angular_resolution: float = 0.0087  # rad, ~0.5 deg
    max_range: float = 5.5  # m
    scan_period: float = SCAN_PERIOD

    def __post_init__(self):
        if not 0 < self.fov <= 2 * math.pi:
            raise PerceptionError("fov must lie in (0, 2*pi]")
        if self.scan_period <= 0:
            raise PerceptionError("scan_period must be positive")
        if self.angular_resolution <= 0:
            raise PerceptionError("angular_resolution must be positive")

    @property
    def n_rays(self) -> int:
        return int(self.fov / self.angular_resolution) + 1

    def ray_angles(self) -> np.ndarray:
        k = np.arange(self.n_rays)
        return self.heading - self.fov / 2.0 + k * self.angular_resolution


@dataclass(frozen=True)
class LaserScan:
    t: float
    ranges: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class SkeletonFrame:
    t: float
    landmarks: np.ndarray = field(repr=False)  # (32, 3) m
    confidence: np.ndarray = field(repr=False)  # (32,) in [0, 1]

    def landmark(self, name: str) -> np.ndarray:
        return self.landmarks[_INDEX[name]]


def _check_grid(t: float, period: float, what: str):
    steps = t / period
    if abs(steps - round(steps)) > GRID_TOL / period:
        raise PerceptionError(f"{what} time {t} is not aligned to the {period} s grid")


def simulate_scan(
    mount: ScannerMount,
    humans: list[HumanState],
    t: float,
    *,
    rng: np.random.Generator | None = None,
    noise: float = 0.0,
) -> LaserScan:
    """Cast one scan against the human footprint discs; nearest hit wins per ray.

    Rays that hit nothing report the max_range sentinel.  Optional uniform
    range noise of +-noise metres is applied to true hits only.
    """
    _check_grid(t, mount.scan_period, "scan")
    angles = mount.ray_angles()
    ranges = np.full(angles.shape, mount.max_range)
    origin = np.array([mount.x, mount.y])
    ux = np.cos(angles)
    uy = np.sin(angles)
    for human in humans:
        if not 0.0 <= mount.plane_height <= human.stature:
            continue
        oc = human.ground - origin
        r = human.footprint_radius
        b = ux * oc[0] + uy * oc[1]  # projection of center onto each ray
        c = float(oc @ oc) - r * r
        disc = b * b - c
        mask = disc >= 0.0
        if not mask.any():
            continue
        sq = np.sqrt(np.where(mask, disc, 0.0))
        t1 = b - sq
        t2 = b + sq
        hit = np.where(t1 > 1e-12, t1, t2)
        valid = mask & (hit > 1e-12) & (hit < mount.max_range)
        ranges = np.where(valid & (hit < ranges), hit, ranges)
    if noise > 0.0:
        if rng is None:
            raise PerceptionError("noise requested without an rng")
        jitter = rng.uniform(-noise, noise, ranges.shape)
        hits = ranges < mount.max_range
        ranges = np.where(hits, np.clip(ranges + jitter, 1e-6, mount.max_range), ranges)
    return LaserScan(t=t, ranges=ranges)


def scan_to_occupancy(
    scan: LaserScan, mount: ScannerMount, layout: ZoneLayout
) -> list[tuple[ZoneLabel, np.ndarray]]:
    """Convert scan hits to base-frame points and classify each into a zone.

    All hits of the scan are classified at once; each label equals
    ``classify_point(layout, p)`` for its point p.
    """
    cos_a, sin_a = _ray_directions(mount)
    if cos_a.shape != scan.ranges.shape:
        raise PerceptionError("scan does not match mount geometry")
    hit = ~(scan.ranges >= mount.max_range)  # no-return sentinel; NaN counts as a hit
    r = scan.ranges[hit]
    if not len(r):
        return []
    points = np.empty((len(r), 3))
    points[:, 0] = mount.x + r * cos_a[hit]
    points[:, 1] = mount.y + r * sin_a[hit]
    points[:, 2] = mount.plane_height
    x, y = points[:, 0], points[:, 1]
    # The tests of quadrant_of and classify_point, in their order, on arrays.
    quadrant = np.where(y > 0, 1, np.where(y < 0, 0, 2))
    zone = np.zeros(len(r), dtype=int)
    if layout.height_band[0] <= mount.plane_height <= layout.height_band[1]:
        for level in (Zone.WARNING, Zone.DANGER):  # danger overrides warning
            rect = layout.extent(level)
            inside = (rect.x_min <= x) & (x <= rect.x_max) & (rect.y_min <= y) & (y <= rect.y_max)
            zone[inside] = level
    return [(_LABELS[z][q], p) for z, q, p in zip(zone.tolist(), quadrant.tolist(), points)]


_QUADRANT_ORDER = (Quadrant.LEFT, Quadrant.RIGHT, Quadrant.BOTH)
_LABELS = tuple(tuple(ZoneLabel(zone, q) for q in _QUADRANT_ORDER) for zone in Zone)


@lru_cache(maxsize=16)
def _ray_directions(mount: ScannerMount) -> tuple[np.ndarray, np.ndarray]:
    # Per-ray cosines and sines from math.cos/math.sin, so that hit points
    # carry the same floats as a point computed from one ray alone.
    angles = mount.ray_angles()
    return (
        np.array([math.cos(a) for a in angles.tolist()]),
        np.array([math.sin(a) for a in angles.tolist()]),
    )


def merge_occupancy(entries) -> dict[Quadrant, Zone]:
    """Per-quadrant max severity over any number of scanners' hit lists."""
    left = right = Zone.NORMAL
    for label, _ in entries:
        if label.quadrant is not Quadrant.RIGHT and label.zone > left:  # LEFT or BOTH
            left = label.zone
        if label.quadrant is not Quadrant.LEFT and label.zone > right:  # RIGHT or BOTH
            right = label.zone
    return {Quadrant.LEFT: left, Quadrant.RIGHT: right}


def _rotate_about_axis(v: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    # Rodrigues rotation; axis must be unit length.
    return (
        v * math.cos(angle)
        + np.cross(axis, v) * math.sin(angle)
        + axis * (axis @ v) * (1.0 - math.cos(angle))
    )


def _standing_template(human: HumanState) -> np.ndarray:
    return _template_for_stature(human.stature).copy()


@lru_cache(maxsize=16)
def _template_for_stature(s: float) -> np.ndarray:
    """Landmarks in body-local coordinates (x forward, y left, z up), metres."""
    pts = np.zeros((N_LANDMARKS, 3))

    def put(name, fwd, lat, z):
        pts[_INDEX[name]] = (fwd, lat, z)

    put("pelvis", 0.0, 0.0, 0.56 * s)
    put("spine_navel", 0.0, 0.0, 0.65 * s)
    put("spine_chest", 0.0, 0.0, 0.74 * s)
    put("neck", 0.0, 0.0, 0.82 * s)
    put("head", 0.0, 0.0, 1.00 * s)
    put("nose", 0.06 * s, 0.0, 0.95 * s)
    put("eye_left", 0.05 * s, 0.02 * s, 0.96 * s)
    put("eye_right", 0.05 * s, -0.02 * s, 0.96 * s)
    put("ear_left", 0.0, 0.04 * s, 0.95 * s)
    put("ear_right", 0.0, -0.04 * s, 0.95 * s)
    shoulder_z = 0.81 * s
    for side, sign in (("left", 1.0), ("right", -1.0)):
        put(f"clavicle_{side}", 0.0, sign * 0.05 * s, shoulder_z)
        put(f"shoulder_{side}", 0.0, sign * 0.11 * s, shoulder_z)
        put(f"elbow_{side}", 0.0, sign * 0.11 * s, shoulder_z - _UPPER_ARM * s)
        wrist_z = shoulder_z - (_UPPER_ARM + _FOREARM) * s
        put(f"wrist_{side}", 0.0, sign * 0.11 * s, wrist_z)
        put(f"hand_{side}", 0.0, sign * 0.11 * s, wrist_z - _HAND * s)
        put(f"handtip_{side}", 0.0, sign * 0.11 * s, wrist_z - _HANDTIP * s)
        put(f"thumb_{side}", 0.0, sign * (0.11 * s - _THUMB * s), wrist_z)
        put(f"hip_{side}", 0.0, sign * 0.06 * s, 0.54 * s)
        put(f"knee_{side}", 0.0, sign * 0.06 * s, 0.29 * s)
        put(f"ankle_{side}", 0.0, sign * 0.06 * s, 0.05 * s)
        put(f"foot_{side}", 0.09 * s, sign * 0.06 * s, 0.02 * s)
    return pts


def pose_landmarks(human: HumanState) -> np.ndarray:
    """World-frame landmark array (32, 3) for the human's current state and posture.

    REACHING extends the base-nearer arm toward the robot base; LEANING tilts
    the upper body toward the base.  Bone lengths are invariant to posture.
    """
    local = _standing_template(human)
    ch, sh = math.cos(human.heading), math.sin(human.heading)
    world = np.empty_like(local)
    world[:, 0] = human.ground[0] + ch * local[:, 0] - sh * local[:, 1]
    world[:, 1] = human.ground[1] + sh * local[:, 0] + ch * local[:, 1]
    world[:, 2] = local[:, 2]

    s = human.stature
    if human.posture == Posture.REACHING:
        left = world[_INDEX["shoulder_left"]]
        right = world[_INDEX["shoulder_right"]]
        side = "left" if np.linalg.norm(left) <= np.linalg.norm(right) else "right"
        shoulder = world[_INDEX[f"shoulder_{side}"]]
        direction = -shoulder / np.linalg.norm(shoulder)  # toward the base origin
        world[_INDEX[f"elbow_{side}"]] = shoulder + _UPPER_ARM * s * direction
        wrist = shoulder + (_UPPER_ARM + _FOREARM) * s * direction
        world[_INDEX[f"wrist_{side}"]] = wrist
        world[_INDEX[f"hand_{side}"]] = wrist + _HAND * s * direction
        world[_INDEX[f"handtip_{side}"]] = wrist + _HANDTIP * s * direction
        perp = np.cross(direction, np.array([0.0, 0.0, 1.0]))
        n = np.linalg.norm(perp)
        perp = np.array([1.0, 0.0, 0.0]) if n < 1e-9 else perp / n
        world[_INDEX[f"thumb_{side}"]] = wrist + _THUMB * s * perp
    elif human.posture == Posture.LEANING:
        toward = -np.array([human.ground[0], human.ground[1], 0.0])
        n = np.linalg.norm(toward)
        if n > 1e-9:
            toward /= n
            axis = np.cross(np.array([0.0, 0.0, 1.0]), toward)
            axis /= np.linalg.norm(axis)
            pelvis = world[_INDEX["pelvis"]].copy()
            upper = [
                "spine_navel",
                "spine_chest",
                "neck",
                "head",
                "nose",
                "eye_left",
                "eye_right",
                "ear_left",
                "ear_right",
                "clavicle_left",
                "clavicle_right",
                "shoulder_left",
                "shoulder_right",
            ]
            for name in upper:
                i = _INDEX[name]
                world[i] = pelvis + _rotate_about_axis(world[i] - pelvis, axis, LEAN_ANGLE)
            # Arms keep hanging vertically from the displaced shoulders.
            for side in ("left", "right"):
                shoulder = world[_INDEX[f"shoulder_{side}"]]
                drop = np.array([0.0, 0.0, -1.0])
                world[_INDEX[f"elbow_{side}"]] = shoulder + _UPPER_ARM * s * drop
                wrist = shoulder + (_UPPER_ARM + _FOREARM) * s * drop
                world[_INDEX[f"wrist_{side}"]] = wrist
                world[_INDEX[f"hand_{side}"]] = wrist + _HAND * s * drop
                world[_INDEX[f"handtip_{side}"]] = wrist + _HANDTIP * s * drop
                sign = 1.0 if side == "left" else -1.0
                inward = np.array([-math.sin(human.heading), math.cos(human.heading), 0.0])
                world[_INDEX[f"thumb_{side}"]] = wrist - sign * _THUMB * s * inward
    return world


def skeleton_sample(human: HumanState, t: float) -> SkeletonFrame:
    """One tracker frame at time t; t must sit on the 30 Hz grid."""
    _check_grid(t, 1.0 / SKELETON_RATE, "skeleton")
    return SkeletonFrame(t=t, landmarks=pose_landmarks(human), confidence=np.ones(N_LANDMARKS))


def min_distance_tcp(frame: SkeletonFrame, tcp) -> tuple[float, str]:
    """Minimum landmark-to-TCP distance; ties resolve to the lowest landmark index.

    Landmarks with zero confidence are ignored.
    """
    tcp = np.asarray(tcp, dtype=float)
    d = np.linalg.norm(frame.landmarks - tcp, axis=1)
    d = np.where(frame.confidence > 0.0, d, np.inf)
    if not np.isfinite(d).any():
        raise PerceptionError("no confident landmarks in frame")
    i = int(np.argmin(d))
    return float(d[i]), LANDMARK_NAMES[i]


def default_scanner_mounts(layout: ZoneLayout) -> tuple[ScannerMount, ScannerMount]:
    """Far-corner mounts looking back across the monitored area (overlapping FOV)."""
    rect = layout.normal_extent
    mounts = []
    for y in (rect.y_min, rect.y_max):
        heading = math.atan2(0.0 - y, 0.0 - rect.x_max)
        mounts.append(
            ScannerMount(
                x=rect.x_max,
                y=y,
                heading=heading,
                plane_height=layout.laser_mount_height,
            )
        )
    return tuple(mounts)

