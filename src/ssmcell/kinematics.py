"""6-DOF serial arm: forward kinematics, geometric Jacobian, damped pseudo-inverse."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import truediv
from typing import ClassVar

import numpy as np

# Singular values below this fraction of the largest count as rank-deficient.
RANK_TOL = 1e-10
# Default damping used by callers when the arm is close to a singular pose.
DEFAULT_DAMPING = 1e-3
SINGULARITY_THRESHOLD = 1e-2


class KinematicsError(ValueError):
    pass


class JointLimitError(KinematicsError):
    pass


@dataclass(frozen=True)
class LinkRow:
    """One serial link: rotation offset (rad), offset d (m), length a (m), twist alpha (rad)."""

    theta_offset: float
    d: float
    a: float
    alpha: float


@dataclass(frozen=True)
class RobotModel:
    """The one 6-joint serial arm every scenario runs; its parameters are fixed."""

    # UR5-proportioned links whose maximum TCP distance is exactly the quoted
    # 0.850 m reach (sum of the three link lengths, attained at q = 0).
    link_parameters: ClassVar[tuple[LinkRow, ...]] = (
        LinkRow(0.0, 0.0, 0.0, math.pi / 2),
        LinkRow(0.0, 0.0, 0.425, 0.0),
        LinkRow(0.0, 0.0, 0.330, 0.0),
        LinkRow(0.0, 0.0, 0.095, math.pi / 2),
        LinkRow(0.0, 0.0, 0.0, -math.pi / 2),
        LinkRow(0.0, 0.0, 0.0, 0.0),
    )
    joint_limits: ClassVar[tuple[tuple[float, float], ...]] = ((-2 * math.pi, 2 * math.pi),) * 6
    max_joint_speed: ClassVar[tuple[float, ...]] = (math.pi,) * 6  # rad/s per joint
    reach: ClassVar[float] = 0.850  # m

    def check_joint_vector(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.shape != (6,):
            raise KinematicsError(f"expected 6 joint values, got shape {q.shape}")
        for i, (lo, hi) in enumerate(self.joint_limits):
            if not lo <= q[i] <= hi:
                raise JointLimitError(f"joint {i} value {q[i]:.6f} outside [{lo:.6f}, {hi:.6f}]")
        return q

    def clamp_joint_rates(self, qdot: np.ndarray) -> np.ndarray:
        """Scale a joint-rate vector uniformly so every joint respects its speed limit.

        The ratios |qdot_i| / limit_i are Python floats, the quotients numpy's
        division gives.  max() passes over a NaN that np.max would return, and
        with a NaN ratio nothing is scaled, as np.max's NaN is not above 1.
        """
        over = list(map(truediv, map(abs, qdot.tolist()), self.max_joint_speed))
        worst = max(over)
        if worst > 1.0 and not math.isnan(sum(over)):
            return qdot / worst
        return qdot


@dataclass(frozen=True)
class Jacobian:
    """Geometric Jacobian mapping joint rates to (linear m/s, angular rad/s)."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (6, 6):
            raise KinematicsError(f"Jacobian must be 6x6, got {m.shape}")
        if not np.isfinite(m).all():
            raise KinematicsError("Jacobian has non-finite entries")


def _link_table(links: tuple[LinkRow, ...]) -> tuple[tuple[float, ...], ...]:
    """(theta_offset, a, d, cos alpha, sin alpha) of each link, computed once per
    link tuple.  Keyed by the tuple's id: the entry holds the tuple, so no
    other object can take that id while the entry is kept."""
    entry = _LINK_TABLES.get(id(links))
    if entry is None:
        if len(_LINK_TABLES) >= _MAX_LINK_TABLES:
            _LINK_TABLES.clear()
        table = tuple(
            (row.theta_offset, row.a, row.d, math.cos(row.alpha), math.sin(row.alpha))
            for row in links
        )
        entry = _LINK_TABLES[id(links)] = (links, table)
    return entry[1]


_LINK_TABLES: dict[int, tuple] = {}
_MAX_LINK_TABLES = 16


class FrameChain:
    """Hand-rolled cumulative frames for the hot path: joint origins and z axes.

    The arithmetic runs on Python floats (q.tolist()), which round as numpy
    float64 scalars do; TestBitPin in tests/test_kinematics.py pins the bytes
    of the frames and of the Jacobian.
    """

    __slots__ = ("origins", "z_axes")

    def __init__(self, model: RobotModel, q):
        cos, sin = math.cos, math.sin
        r00, r01, r02 = 1.0, 0.0, 0.0
        r10, r11, r12 = 0.0, 1.0, 0.0
        r20, r21, r22 = 0.0, 0.0, 1.0
        px = py = pz = 0.0
        origins = [(0.0, 0.0, 0.0)]
        z_axes = [(0.0, 0.0, 1.0)]
        links = _link_table(model.link_parameters)
        for qi, (offset, a, d, ca, sa) in zip(np.asarray(q, dtype=float).tolist(), links):
            theta = qi + offset
            ct, st = cos(theta), sin(theta)
            # Local translation (a ct, a st, d) and rotation Rz(theta) Rx(alpha),
            # whose rows are (ct, -st ca, st sa), (st, ct ca, -ct sa), (0, sa, ca).
            tx, ty = a * ct, a * st
            px += r00 * tx + r01 * ty + r02 * d
            py += r10 * tx + r11 * ty + r12 * d
            pz += r20 * tx + r21 * ty + r22 * d
            l01, l02 = -st * ca, st * sa
            l11, l12 = ct * ca, -ct * sa
            r00, r01, r02 = (
                r00 * ct + r01 * st,
                r00 * l01 + r01 * l11 + r02 * sa,
                r00 * l02 + r01 * l12 + r02 * ca,
            )
            r10, r11, r12 = (
                r10 * ct + r11 * st,
                r10 * l01 + r11 * l11 + r12 * sa,
                r10 * l02 + r11 * l12 + r12 * ca,
            )
            r20, r21, r22 = (
                r20 * ct + r21 * st,
                r20 * l01 + r21 * l11 + r22 * sa,
                r20 * l02 + r21 * l12 + r22 * ca,
            )
            origins.append((px, py, pz))
            z_axes.append((r02, r12, r22))
        self.origins = origins
        self.z_axes = z_axes

    @property
    def tcp(self) -> np.ndarray:
        return np.array(self.origins[-1])

    def jacobian_matrix(self) -> np.ndarray:
        """Column i is (z_i x (p - p_i), z_i), built as the matrix's six rows."""
        px, py, pz = self.origins[-1]
        vx, vy, vz = [], [], []
        for (zx, zy, zz), (ox, oy, oz) in zip(self.z_axes[:6], self.origins):
            dx, dy, dz = px - ox, py - oy, pz - oz
            vx.append(zy * dz - zz * dy)
            vy.append(zz * dx - zx * dz)
            vz.append(zx * dy - zy * dx)
        zx, zy, zz = zip(*self.z_axes[:6])
        return np.array([*vx, *vy, *vz, *zx, *zy, *zz]).reshape(6, 6)


def tcp_position(model: RobotModel, q) -> np.ndarray:
    """TCP position in the base frame for joint vector q; the limits are not checked."""
    return FrameChain(model, q).tcp


def jacobian(model: RobotModel, q) -> Jacobian:
    """Geometric Jacobian at q: column i is (z_i x (p - p_i), z_i) for revolute joints."""
    return Jacobian(matrix=FrameChain(model, q).jacobian_matrix())


def pseudo_inverse(J: Jacobian | np.ndarray, damping: float = 0.0) -> np.ndarray:
    """Moore-Penrose inverse (damping 0) or damped least squares J^T (J J^T + d^2 I)^-1."""
    m = J.matrix if isinstance(J, Jacobian) else np.asarray(J, dtype=float)
    if damping < 0:
        raise KinematicsError("damping must be >= 0")
    if damping == 0.0:
        return np.linalg.pinv(m, rcond=RANK_TOL)
    U, s, Vt = np.linalg.svd(m, full_matrices=False)
    # SVD form of the damped inverse; defined even when s has zeros.
    factors = s / (s * s + damping * damping)
    return (Vt.T * factors) @ U.T


def null_space_projector(J: Jacobian | np.ndarray) -> np.ndarray:
    """N = I - J^+ J; maps joint rates into motions invisible at the TCP."""
    m = J.matrix if isinstance(J, Jacobian) else np.asarray(J, dtype=float)
    return np.eye(m.shape[1]) - pseudo_inverse(m) @ m
