import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import finite_difference_jacobian, oracle_transform_chain

from ssmcell.kinematics import (
    FrameChain,
    KinematicsError,
    LinkRow,
    RobotModel,
    jacobian,
    null_space_projector,
    pseudo_inverse,
    tcp_position,
)


# A stand-in for an arm of zero-length links: FrameChain reads only link_parameters.
ZERO_MODEL = SimpleNamespace(link_parameters=(LinkRow(0.0, 0.0, 0.0, 0.0),) * 6)


class TestForwardKinematics:
    def test_identity_chain(self):
        assert np.allclose(tcp_position(ZERO_MODEL, np.zeros(6)), 0.0)

    def test_fully_stretched_reaches_published_reach(self):
        model = RobotModel()
        position = tcp_position(model, np.zeros(6))
        assert abs(np.linalg.norm(position) - model.reach) < 1e-9
        assert abs(np.linalg.norm(position) - 0.850) < 1e-9

    def test_matches_transform_chain_oracle(self):
        model = RobotModel()
        rng = np.random.default_rng(42)
        for _ in range(20):
            q = rng.uniform(-3.0, 3.0, 6)
            T = oracle_transform_chain(model, q)
            assert np.max(np.abs(tcp_position(model, q) - T[:3, 3])) < 1e-9

    def test_tcp_never_exceeds_reach(self):
        model = RobotModel()
        rng = np.random.default_rng(7)
        for _ in range(500):
            q = rng.uniform(-2 * math.pi, 2 * math.pi, 6)
            assert np.linalg.norm(tcp_position(model, q)) <= model.reach + 1e-9


class TestJacobian:
    def test_matches_central_differences(self):
        model = RobotModel()
        rng = np.random.default_rng(3)
        for _ in range(100):
            q = rng.uniform(-3.0, 3.0, 6)
            J = jacobian(model, q).matrix
            J_fd = finite_difference_jacobian(model, q)
            assert np.max(np.abs(J - J_fd)) < 1e-6

    def test_zero_length_robot_zero_translation(self):
        J = jacobian(ZERO_MODEL, np.array([0.3, -0.4, 1.0, 0.2, 0.1, -0.8])).matrix
        assert np.max(np.abs(J[:3, :])) < 1e-12

    def test_stretched_pose_singular(self):
        J = jacobian(RobotModel(), np.zeros(6)).matrix
        s = np.linalg.svd(J, compute_uv=False)
        rank = int(np.sum(s > 1e-10 * s[0]))
        assert rank < 6

    def test_generic_pose_full_rank(self):
        J = jacobian(RobotModel(), np.array([0.4, -1.1, 0.9, 0.6, -0.7, 0.3])).matrix
        s = np.linalg.svd(J, compute_uv=False)
        assert int(np.sum(s > 1e-10 * s[0])) == 6


class TestPseudoInverse:
    def test_square_nonsingular_equals_inverse(self):
        rng = np.random.default_rng(11)
        J = rng.normal(size=(6, 6)) + 3 * np.eye(6)
        assert np.max(np.abs(pseudo_inverse(J) - np.linalg.inv(J))) < 1e-9

    def test_orthonormal_rows_give_transpose(self):
        rng = np.random.default_rng(12)
        Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        rows = Q[:3, :]  # orthonormal rows
        J = np.zeros((6, 6))
        J[:3, :] = rows
        # transpose property holds on the nonzero block
        assert np.max(np.abs(pseudo_inverse(rows) - rows.T)) < 1e-9

    def test_moore_penrose_conditions(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            J = rng.normal(size=(6, 6))
            Jp = pseudo_inverse(J)
            assert np.max(np.abs(J @ Jp @ J - J)) < 1e-9
            assert np.max(np.abs(Jp @ J @ Jp - Jp)) < 1e-9
            assert np.max(np.abs((J @ Jp).T - J @ Jp)) < 1e-9
            assert np.max(np.abs((Jp @ J).T - Jp @ J)) < 1e-9

    def test_damped_form_defined_at_singularity(self):
        J = np.zeros((6, 6))
        Jp = pseudo_inverse(J, damping=1e-3)
        assert np.all(np.isfinite(Jp))

    def test_negative_damping_rejected(self):
        with pytest.raises(KinematicsError):
            pseudo_inverse(np.eye(6), damping=-1.0)


class TestNullSpaceProjector:
    def test_full_rank_square_gives_zero(self):
        rng = np.random.default_rng(21)
        J = rng.normal(size=(6, 6)) + 3 * np.eye(6)
        assert np.max(np.abs(null_space_projector(J))) < 1e-9

    def test_rank_deficient_annihilation_and_idempotence(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            A = rng.normal(size=(6, 3))
            B = rng.normal(size=(3, 6))
            J = A @ B  # rank 3
            N = null_space_projector(J)
            assert np.max(np.abs(J @ N)) < 1e-9
            assert np.max(np.abs(N @ N - N)) < 1e-9

    def test_zero_jacobian_gives_identity(self):
        assert np.max(np.abs(null_space_projector(np.zeros((6, 6))) - np.eye(6))) < 1e-12


class TestModel:
    def test_clamp_joint_rates_preserves_direction(self):
        model = RobotModel()
        qdot = np.array([10.0, 0.0, 0.0, 0.0, 0.0, 5.0])
        clamped = model.clamp_joint_rates(qdot)
        assert abs(clamped[0]) <= model.max_joint_speed[0] + 1e-12
        assert np.allclose(clamped / np.linalg.norm(clamped), qdot / np.linalg.norm(qdot))

    def test_frame_chain_matches_oracle(self):
        model = RobotModel()
        rng = np.random.default_rng(5)
        q = rng.uniform(-3, 3, 6)
        chain = FrameChain(model, q)
        T = oracle_transform_chain(model, q)
        assert np.max(np.abs(chain.tcp - T[:3, 3])) < 1e-12

    def test_clamp_joint_rates_matches_the_array_form(self):
        # The ratios are Python floats; the result is the one np.max over
        # np.abs(qdot) / limits gives, bit for bit, and a NaN scales nothing.
        model = RobotModel()
        limits = np.asarray(model.max_joint_speed)
        rng = np.random.default_rng(11)
        cases = list(rng.uniform(-8.0, 8.0, (300, 6))) + [np.full(6, -0.0)]
        cases.append(np.array([9.0, math.nan, 0.0, 0.0, 0.0, 0.0]))
        for qdot in cases:
            worst = (np.abs(qdot) / limits).max()
            expected = qdot / worst if worst > 1.0 else qdot
            assert model.clamp_joint_rates(qdot).tobytes() == expected.tobytes()


class TestBitPin:
    """FrameChain and jacobian_matrix work on Python floats; their bits are
    pinned to those of the chain that worked on numpy scalars and wrote the
    matrix item by item, recorded before the change, at 1,000 seeded q."""

    DIGESTS = {
        "robot": "09c009ad009dfb66cdb3b778f7fec9172c2c78e74e9169a66139eeec6f656a64",
        "zero": "ad133abcb3bd279bdf2149d47206c02d49a534e22d7e43771adb0562417e2f6d",
    }

    @pytest.mark.parametrize("name, model", [("robot", RobotModel()), ("zero", ZERO_MODEL)])
    def test_origins_z_axes_and_jacobian_bytes(self, name, model):
        h = hashlib.sha256()
        rng = np.random.default_rng(2028)
        for q in rng.uniform(-2 * math.pi, 2 * math.pi, (1000, 6)):
            chain = FrameChain(model, q)
            h.update(np.array(chain.origins, dtype=float).tobytes())
            h.update(np.array(chain.z_axes, dtype=float).tobytes())
            h.update(chain.jacobian_matrix().tobytes())
        assert h.hexdigest() == self.DIGESTS[name]

    def test_a_list_q_gives_the_arrays_bits(self):
        q = [0.3, -1.1, 2.0, 0.7, -0.4, 1.9]
        by_list, by_array = FrameChain(RobotModel(), q), FrameChain(RobotModel(), np.array(q))
        assert by_list.origins == by_array.origins and by_list.z_axes == by_array.z_axes
