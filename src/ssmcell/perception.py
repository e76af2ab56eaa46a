"""Simulated sensing: planar laser scanners and the 30 Hz skeleton stream."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .zones import Quadrant, Zone, ZoneLayout

SKELETON_RATE = 30.0  # Hz
SCAN_PERIOD = 0.030  # s, one laser scan
SCAN_CHUNK = 64  # scans that scan_occupancies casts together
_MARGIN = 2  # rays that a scan casts on each side of a footprint's cone
DEFAULT_STATURE = 1.70  # m, head landmark height when standing
DEFAULT_FOOTPRINT_RADIUS = 0.30  # m
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

# Arm segment lengths as fractions of stature; upper arm and forearm sum so
# that a fully extended arm spans 0.80 m, shoulder to wrist, at the default
# stature.
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
    """Planar scanner pose in the base frame.

    Every scanner of the cell has the same optics, class attributes and not
    fields: it scans the plane at the layout's laser mount height.
    """

    x: float
    y: float
    heading: float
    plane_height = ZoneLayout.laser_mount_height  # m
    fov = 4.8  # rad
    angular_resolution = 0.0087  # rad, ~0.5 deg
    max_range = 5.5  # m
    n_rays = int(fov / angular_resolution) + 1

    def ray_angles(self) -> np.ndarray:
        k = np.arange(self.n_rays)
        return self.heading - self.fov / 2.0 + k * self.angular_resolution


# The cell's two scanners, at the base-side corners of the monitored area and
# aimed at the far end of the centre line, so hits land on an intruder's
# robot-facing side.  math.atan2(0.45, 1.5) differs from the headings in the last bit.
SCANNER_MOUNTS = (
    ScannerMount(0.0, -0.45, 0.29145679447786715),
    ScannerMount(0.0, 0.45, -0.29145679447786715),
)


@dataclass(frozen=True)
class LaserScan:
    """k scans by every ray of a mount set: ``ranges[j]`` holds scan j, taken at
    ``t[j]``, with the mounts' rays in mount order."""

    t: np.ndarray  # (k,) s
    ranges: np.ndarray = field(repr=False)  # (k, n_rays) m; max_range where nothing was hit


@dataclass(frozen=True)
class SkeletonFrame:
    t: float
    landmarks: np.ndarray = field(repr=False)  # (32, 3) m
    confidence: np.ndarray = field(repr=False)  # (32,) in [0, 1]

    def landmark(self, name: str) -> np.ndarray:
        return self.landmarks[_INDEX[name]]


def _check_grid(times: np.ndarray, period: float, what: str):
    steps = times / period
    off = np.abs(steps - np.round(steps)) > GRID_TOL / period
    if off.any():
        raise PerceptionError(f"{what} time {times[off][0]} is not aligned to the {period} s grid")


@dataclass(frozen=True)
class _Rays:
    """Every ray of a mount set, in mount order, with what the cast and the hit
    points read of it."""

    mount: np.ndarray  # (n,) index of each ray's mount
    origin: np.ndarray  # (n_mounts, 2) mount x, y
    x: np.ndarray  # (n,) the ray's mount x
    y: np.ndarray  # (n,) the ray's mount y
    ux: np.ndarray  # (n,) np.cos of the ray angle, for the cast
    uy: np.ndarray  # (n,) np.sin
    cos_a: np.ndarray  # (n,) math.cos of the ray angle, for the hit points
    sin_a: np.ndarray  # (n,) math.sin
    start: np.ndarray  # (n_mounts,) the angle of each mount's ray 0


@lru_cache(maxsize=16)
def _rays(mounts: tuple[ScannerMount, ...]) -> _Rays:
    # The cast keeps np.cos/np.sin of each mount's angles, and the hit points
    # math.cos/math.sin, so that a point carries the floats of one ray computed
    # alone; the two may differ in the last bit.
    angles = [mount.ray_angles() for mount in mounts]
    every = np.concatenate(angles).tolist()
    mount = np.repeat(np.arange(len(mounts)), [len(a) for a in angles])
    origin = np.array([(m.x, m.y) for m in mounts], dtype=float)
    return _Rays(
        mount=mount,
        origin=origin,
        x=origin[mount, 0],
        y=origin[mount, 1],
        ux=np.concatenate([np.cos(a) for a in angles]),
        uy=np.concatenate([np.sin(a) for a in angles]),
        cos_a=np.array([math.cos(a) for a in every]),
        sin_a=np.array([math.sin(a) for a in every]),
        start=np.array([a[0] for a in angles]),
    )


def _cone(rays: _Rays, oc: np.ndarray, oc_sq: np.ndarray, radius: float):
    """The rays that can meet a disc of the radius at offset oc (k, mounts, 2)
    from each mount, ``|oc|^2`` oc_sq, as flat indices into oc's (k, mounts)
    and the scans' (k, n_rays) ranges: those within asin(radius / |oc|) of the
    centre's bearing or its turn before, and _MARGIN rays more each side; all
    when the mount lies in the disc or the half-angle exceeds 1 rad; none when
    the centre is not finite.  No other ray has a root ahead."""
    n, step = ScannerMount.n_rays, ScannerMount.angular_resolution
    outside = oc_sq > radius * radius
    ratio = np.divide(radius, np.sqrt(oc_sq), out=np.ones_like(oc_sq), where=outside)
    half = np.arcsin(np.minimum(ratio, 1.0))[..., None]
    bearing = np.mod(np.arctan2(oc[..., 1], oc[..., 0]) - rays.start, 2.0 * math.pi)
    centre = np.stack((bearing, bearing - 2.0 * math.pi), axis=-1)  # (k, mounts, 2)
    lo = np.ceil((centre - half) / step) - _MARGIN
    hi = np.floor((centre + half) / step) + _MARGIN
    every = half[..., 0] > 1.0
    lo[every], hi[every] = (0, n), n - 1  # the first window takes every ray
    lo[~np.isfinite(oc).all(axis=-1)] = n
    lo, hi = np.clip(lo, 0, n).astype(np.intp), np.clip(hi, -1, n - 1).astype(np.intp)
    length = np.maximum(hi - lo + 1, 0).ravel()
    k = np.arange(length.sum()) - np.repeat(np.cumsum(length) - length - lo.ravel(), length)
    cell = np.repeat(np.arange(length.size) // 2, length)
    return cell, cell * n + k


def simulate_scan(
    mounts,
    ground,
    radius,
    stature,
    times,
    *,
    rng: np.random.Generator | None = None,
    noise: float = 0.0,
) -> LaserScan:
    """Cast one scan per time by every ray of the mounts against the human
    footprint discs; the nearest hit wins per ray.

    ``ground[j, h]`` is the x, y of human h in the scan taken at ``times[j]``,
    a (k, humans, 2) array; ``radius[h]`` and ``stature[h]`` are its footprint
    radius and stature.  A human shorter than ScannerMount.plane_height (or of
    NaN stature) is under the scan plane and is not cast.  Rays that hit
    nothing report the ScannerMount.max_range sentinel.
    Optional uniform range noise of +-noise metres is applied to true hits
    only, as one (k, n_rays) draw from rng: the values, in the order, of one
    draw per scan and mount.
    """
    mounts = tuple(mounts)
    times = np.asarray(times, dtype=float)
    _check_grid(times, SCAN_PERIOD, "scan")
    ground = np.asarray(ground, dtype=float)
    radius, stature = np.asarray(radius, dtype=float), np.asarray(stature, dtype=float)
    if ground.shape != (len(times), len(radius), 2) or stature.shape != radius.shape:
        raise PerceptionError("ground must be (scans, humans, 2), with a radius and stature each")
    rays = _rays(mounts)
    ranges = np.full((len(times), len(rays.mount)), ScannerMount.max_range)
    for h in range(len(radius)):
        if not ScannerMount.plane_height <= stature[h]:
            continue
        oc = ground[:, h, None, :] - rays.origin
        # |oc|^2 is one BLAS dot per scan and mount, as the 1-D v @ v makes it:
        # BLAS may fuse its multiply-add, which an elementwise form would not.
        v = oc.reshape(-1, 2)
        oc_sq = np.matmul(v[:, None, :], v[:, :, None]).reshape(oc.shape[:2])
        c = oc_sq - radius[h] * radius[h]
        # The arithmetic of one ray at a time, on the rays of the disc's cone.
        cell, at = _cone(rays, oc, oc_sq, radius[h])
        ray = at % len(rays.mount)
        b = oc[..., 0].ravel()[cell] * rays.ux[ray]  # projection of center onto each ray
        b += oc[..., 1].ravel()[cell] * rays.uy[ray]
        disc = b * b
        disc -= c.ravel()[cell]
        mask = disc >= 0.0
        disc[~mask] = 0.0
        sq = np.sqrt(disc, out=disc)
        hit = b + sq  # the far root, unless the near one lies ahead
        near = np.subtract(b, sq, out=b)
        np.copyto(hit, near, where=near > 1e-12)
        flat = ranges.reshape(-1)
        valid = mask & (hit > 1e-12) & (hit < ScannerMount.max_range) & (hit < flat[at])
        flat[at[valid]] = hit[valid]
    if noise > 0.0:
        if rng is None:
            raise PerceptionError("noise requested without an rng")
        noisy = rng.uniform(-noise, noise, ranges.shape)
        noisy += ranges
        np.clip(noisy, 1e-6, ScannerMount.max_range, out=noisy)
        np.copyto(ranges, noisy, where=ranges < ScannerMount.max_range)
    return LaserScan(t=times, ranges=ranges)


# The quadrant codes of ScanHits.quadrant, in code order.
QUADRANT_CODES = (Quadrant.LEFT, Quadrant.RIGHT, Quadrant.BOTH)


@dataclass(frozen=True)
class ScanHits:
    """The scans' hits as base-frame points, each classified into a zone and a
    side of the split line.  Arrays are (k, n_rays), like the scan's ranges.
    ``len()`` is the number of hits."""

    hit: np.ndarray  # bool; a NaN range counts as a hit
    x: np.ndarray  # m, base frame; the point's z is ScannerMount.plane_height
    y: np.ndarray
    zone: np.ndarray  # int8 Zone of the point, NORMAL off hits
    quadrant: np.ndarray  # int8 index into QUADRANT_CODES

    def __len__(self) -> int:
        return int(np.count_nonzero(self.hit))


def scan_to_occupancy(scan: LaserScan, mounts, layout: ZoneLayout) -> ScanHits:
    """Convert the scans' hits to base-frame points and classify each into a zone.

    Each hit's zone and quadrant equal ``classify_point(layout, p)`` for its point p,
    whose z is ScannerMount.plane_height.  That plane lies in the layout's
    height band, so the zone tests only x and y.
    """
    rays = _rays(tuple(mounts))
    r = scan.ranges
    if r.shape[-1:] != rays.x.shape:
        raise PerceptionError("scan does not match mount geometry")
    hit = ~(r >= ScannerMount.max_range)  # no-return sentinel; NaN counts as a hit
    x = r * rays.cos_a
    x += rays.x
    y = r * rays.sin_a
    y += rays.y
    # The tests of quadrant_of and classify_point, in their order, on arrays.
    quadrant = np.full(r.shape, 2, dtype=np.int8)
    quadrant[y > 0] = 1
    quadrant[y < 0] = 0
    zone = np.zeros(r.shape, dtype=np.int8)
    for level in (Zone.WARNING, Zone.DANGER):  # danger overrides warning
        rect = layout.extent(level)
        inside = (rect.x_min <= x) & (x <= rect.x_max) & (rect.y_min <= y) & (y <= rect.y_max)
        zone[inside & hit] = level
    return ScanHits(hit=hit, x=x, y=y, zone=zone, quadrant=quadrant)


def merge_occupancy(hits: ScanHits, *, quadrant_blind: bool = False) -> np.ndarray:
    """Per-quadrant max severity of each scan over all its rays: (k, 2) zones,
    LEFT then RIGHT.

    A hit on the split line counts on both sides.  A quadrant-blind merge gives
    each side the worse of the two.
    """
    left = np.where(hits.quadrant == 1, 0, hits.zone).max(axis=-1)  # LEFT or BOTH
    right = np.where(hits.quadrant == 0, 0, hits.zone).max(axis=-1)  # RIGHT or BOTH
    merged = np.stack((left, right), axis=-1)
    if quadrant_blind:
        merged[:] = merged.max(axis=-1, keepdims=True)
    return merged


def scan_occupancies(
    mounts,
    ground,
    radius,
    stature,
    times,
    layout: ZoneLayout,
    *,
    rng: np.random.Generator | None = None,
    noise: float = 0.0,
    quadrant_blind: bool = False,
) -> np.ndarray:
    """The merged occupancy of each scan, (scans, 2) zone codes, LEFT then
    RIGHT, as merge_occupancy gives; the arguments before layout are
    simulate_scan's.

    Scans are cast SCAN_CHUNK at a time, in order, so that noise draws what
    casting them one by one would.  Without noise a scan is cast only when
    some human's x or y differs from the scan before, and a scan that is not
    cast takes the occupancy of the last one that was.
    """
    times = np.asarray(times, dtype=float)
    ground = np.asarray(ground, dtype=float)
    fresh = np.ones(len(times), dtype=bool)
    if not noise > 0.0:
        fresh[1:] = (ground[1:] != ground[:-1]).any(axis=(1, 2))
    cast = np.flatnonzero(fresh)
    merged = np.empty((len(cast), 2), dtype=np.int8)
    for start in range(0, len(cast), SCAN_CHUNK):
        chunk = cast[start : start + SCAN_CHUNK]
        scan = simulate_scan(
            mounts, ground[chunk], radius, stature, times[chunk], rng=rng, noise=noise
        )
        hits = scan_to_occupancy(scan, mounts, layout)
        merged[start : start + len(chunk)] = merge_occupancy(hits, quadrant_blind=quadrant_blind)
        del scan, hits  # a chunk's arrays are not held while the next one is cast
    return merged[np.cumsum(fresh) - 1]


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


# The postures of landmark_block's posture codes, in code order.
POSTURES = tuple(Posture)
_REACHING, _LEANING = POSTURES.index(Posture.REACHING), POSTURES.index(Posture.LEANING)
# Each side's arm, shoulder to thumb, left then right; and the upper body,
# which leaning tilts about the pelvis.
_ARM = ("shoulder", "elbow", "wrist", "hand", "handtip", "thumb")
_ARMS = [[_INDEX[f"{part}_{side}"] for part in _ARM] for side in ("left", "right")]
_TILTED = ("spine", "neck", "head", "nose", "eye", "ear", "clavicle", "shoulder")
_UPPER = [i for i, name in enumerate(LANDMARK_NAMES) if name.startswith(_TILTED)]


def landmark_block(x, y, cos_h, sin_h, posture, stature: float) -> np.ndarray:
    """World-frame landmark arrays (n, 32, 3) of n states of one stature.

    x and y are the states' ground positions, cos_h and sin_h math.cos and
    math.sin of their headings, posture their codes in POSTURES; all (n,).
    Row k holds the floats pose_landmarks gives for state k: the standing
    template is placed with the same elementwise operations, and the reaching
    and the leaning states are then bent, each posture as one block.
    """
    local = _template_for_stature(stature)
    x, y = np.asarray(x, dtype=float)[:, None], np.asarray(y, dtype=float)[:, None]
    ch, sh = np.asarray(cos_h, dtype=float)[:, None], np.asarray(sin_h, dtype=float)[:, None]
    world = np.empty((len(x), N_LANDMARKS, 3))
    world[:, :, 0] = x + ch * local[:, 0] - sh * local[:, 1]
    world[:, :, 1] = y + sh * local[:, 0] + ch * local[:, 1]
    world[:, :, 2] = local[:, 2]
    posture = np.asarray(posture)
    reach = np.flatnonzero(posture == _REACHING)
    if len(reach):
        world[reach] = _reach(world[reach], stature)
    lean = np.flatnonzero(posture == _LEANING)
    if len(lean):
        world[lean] = _lean(world[lean], x[lean], y[lean], ch[lean], sh[lean], stature)
    return world


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of each pair of last-axis vectors, with the BLAS dot call of the
    1-D product.  OpenBLAS's Prescott kernel sums otherwise at another 16-byte
    alignment, so each vector lies where the 1-D product had it: in place in a
    block of states, or in a row of _aligned for a vector of its own."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _aligned(a: np.ndarray) -> np.ndarray:
    """A copy of a (..., 3) whose rows are padded to 4 floats, so each starts
    on a 16-byte boundary, as a fresh 3-vector does."""
    return np.concatenate((a, a[..., :1]), axis=-1)[..., :3]


def _reach(world: np.ndarray, s: float) -> np.ndarray:
    """Placed standing landmarks (n, 32, 3) with the base-nearer arm of each
    state extended toward the robot base.  Bone lengths are kept."""
    arms, rows = np.array(_ARMS), np.arange(len(world))
    left, right = (np.sqrt(_dots(world[:, i], world[:, i])) for i in arms[:, 0])
    side = np.where(left <= right, 0, 1)
    shoulder = world[rows, arms[side, 0]]
    direction = -shoulder / np.where(side, right, left)[:, None]  # toward the base origin
    wrist = shoulder + (_UPPER_ARM + _FOREARM) * s * direction
    perp = _aligned(np.cross(direction, (0.0, 0.0, 1.0)))
    n = np.sqrt(_dots(perp, perp))[:, None]
    flat = n < 1e-9
    perp = np.divide(perp, n, out=np.where(flat, (1.0, 0.0, 0.0), 0.0), where=~flat)
    hand, handtip = wrist + _HAND * s * direction, wrist + _HANDTIP * s * direction
    arm = (shoulder + _UPPER_ARM * s * direction, wrist, hand, handtip, wrist + _THUMB * s * perp)
    world[rows[:, None], arms[side, 1:]] = np.stack(arm, axis=1)
    return world


def _lean(world: np.ndarray, gx, gy, ch, sh, s: float) -> np.ndarray:
    """Placed standing landmarks (n, 32, 3) of states on the ground gx, gy
    (n, 1) with the upper body tilted toward the base, the arms hanging from
    the displaced shoulders.  A state at the base origin does not lean."""
    toward = _aligned(-np.concatenate((gx, gy, np.zeros_like(gx)), axis=1))
    n = np.sqrt(_dots(toward, toward))
    tilt = n > 1e-9
    axis = _aligned(np.cross((0.0, 0.0, 1.0), toward[tilt] / n[tilt, None]))
    axis = _aligned(axis / np.sqrt(_dots(axis, axis))[:, None])[:, None]  # (m, 1, 3)
    bent, arms = world[tilt], np.array(_ARMS)
    pelvis = bent[:, _INDEX["pelvis"], None]
    v = _aligned(bent[:, _UPPER] - pelvis)
    # Rodrigues rotation by LEAN_ANGLE about each state's axis.
    cos_a, sin_a = math.cos(LEAN_ANGLE), math.sin(LEAN_ANGLE)
    along = axis * _dots(axis, v)[..., None] * (1.0 - cos_a)
    bent[:, _UPPER] = pelvis + (v * cos_a + np.cross(axis, v) * sin_a + along)
    shoulder = bent[:, arms[:, 0]]  # (m, 2, 3), left then right
    drop = np.array([0.0, 0.0, -1.0])
    wrist = shoulder + (_UPPER_ARM + _FOREARM) * s * drop
    inward = np.stack((-sh[tilt], ch[tilt], np.zeros_like(ch[tilt])), axis=-1)  # (m, 1, 3)
    thumb = wrist - np.array([[1.0], [-1.0]]) * _THUMB * s * inward  # left, right
    hand, handtip = wrist + _HAND * s * drop, wrist + _HANDTIP * s * drop
    arm = (shoulder + _UPPER_ARM * s * drop, wrist, hand, handtip, thumb)
    bent[:, arms[:, 1:]] = np.stack(arm, axis=2)
    world[tilt] = bent
    return world


def pose_landmarks(human: HumanState) -> np.ndarray:
    """World-frame landmark array (32, 3) for the human's current state and posture."""
    return landmark_block(
        human.ground[:1],
        human.ground[1:],
        [math.cos(human.heading)],
        [math.sin(human.heading)],
        [POSTURES.index(human.posture)],
        human.stature,
    )[0]


def skeleton_sample(human: HumanState, t: float) -> SkeletonFrame:
    """One tracker frame at time t; t must sit on the 30 Hz grid."""
    _check_grid(np.array([t]), 1.0 / SKELETON_RATE, "skeleton")
    return SkeletonFrame(t=t, landmarks=pose_landmarks(human), confidence=np.ones(N_LANDMARKS))
