"""6-DOF serial arm: forward kinematics, geometric Jacobian, damped pseudo-inverse."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
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
        """Scale a joint-rate vector uniformly so every joint respects its speed limit."""
        limits = np.asarray(self.max_joint_speed)
        over = np.abs(qdot) / limits
        worst = over.max()
        if worst > 1.0:
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
        if not np.all(np.isfinite(m)):
            raise KinematicsError("Jacobian has non-finite entries")

    @functools.cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(U, s, Vt) of the full SVD of the matrix, computed once per Jacobian."""
        return np.linalg.svd(self.matrix)


class FrameChain:
    """Hand-rolled cumulative frames for the hot path: joint origins and z axes."""

    __slots__ = ("origins", "z_axes")

    def __init__(self, model: RobotModel, q):
        cos, sin = math.cos, math.sin
        r00, r01, r02 = 1.0, 0.0, 0.0
        r10, r11, r12 = 0.0, 1.0, 0.0
        r20, r21, r22 = 0.0, 0.0, 1.0
        px = py = pz = 0.0
        origins = [(0.0, 0.0, 0.0)]
        z_axes = [(0.0, 0.0, 1.0)]
        for i, row in enumerate(model.link_parameters):
            theta = q[i] + row.theta_offset
            ct, st = cos(theta), sin(theta)
            ca, sa = cos(row.alpha), sin(row.alpha)
            a, d = row.a, row.d
            # local translation (a*ct, a*st, d), local rotation Rz(theta)*Rx(alpha)
            tx, ty, tz = a * ct, a * st, d
            px += r00 * tx + r01 * ty + r02 * tz
            py += r10 * tx + r11 * ty + r12 * tz
            pz += r20 * tx + r21 * ty + r22 * tz
            l00, l01, l02 = ct, -st * ca, st * sa
            l10, l11, l12 = st, ct * ca, -ct * sa
            l21, l22 = sa, ca
            n00 = r00 * l00 + r01 * l10
            n01 = r00 * l01 + r01 * l11 + r02 * l21
            n02 = r00 * l02 + r01 * l12 + r02 * l22
            n10 = r10 * l00 + r11 * l10
            n11 = r10 * l01 + r11 * l11 + r12 * l21
            n12 = r10 * l02 + r11 * l12 + r12 * l22
            n20 = r20 * l00 + r21 * l10
            n21 = r20 * l01 + r21 * l11 + r22 * l21
            n22 = r20 * l02 + r21 * l12 + r22 * l22
            r00, r01, r02 = n00, n01, n02
            r10, r11, r12 = n10, n11, n12
            r20, r21, r22 = n20, n21, n22
            origins.append((px, py, pz))
            z_axes.append((r02, r12, r22))
        self.origins = origins
        self.z_axes = z_axes

    @property
    def tcp(self) -> np.ndarray:
        return np.array(self.origins[-1])

    def jacobian_matrix(self) -> np.ndarray:
        px, py, pz = self.origins[-1]
        J = np.empty((6, 6))
        for i in range(6):
            zx, zy, zz = self.z_axes[i]
            ox, oy, oz = self.origins[i]
            dx, dy, dz = px - ox, py - oy, pz - oz
            J[0, i] = zy * dz - zz * dy
            J[1, i] = zz * dx - zx * dz
            J[2, i] = zx * dy - zy * dx
            J[3, i] = zx
            J[4, i] = zy
            J[5, i] = zz
        return J


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
