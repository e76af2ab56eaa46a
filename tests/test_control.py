import dataclasses
import math

import numpy as np
import pytest

from ssmcell.control import (
    COLLABORATIVE_FRACTION,
    CONTROL_PERIOD,
    CommandSource,
    ControlError,
    Controller,
    Gains,
    MODE_COLLABORATIVE,
    MODE_FULL,
    ModeKind,
    SpeedMode,
    primary_speed_select,
    scale_factor,
    secondary_scale,
)
from ssmcell.kinematics import (
    DEFAULT_DAMPING,
    RANK_TOL,
    SINGULARITY_THRESHOLD,
    Jacobian,
    RobotModel,
    jacobian,
    pseudo_inverse,
)
from ssmcell.perception import SKELETON_RATE
from ssmcell.scenario import Scenario, build_gains
from ssmcell.zones import Quadrant, Zone, build_zone_layout

MODEL = RobotModel()
LAYOUT = build_zone_layout(0.45, 1.5, 0.9, 0.425)
GAINS = Gains.diagonal()
REGULAR_Q = np.array([0.4, -1.1, 0.9, 0.6, -0.7, 0.3])


def occ(left=Zone.NORMAL, right=Zone.NORMAL):
    return left, right


class TestPrimarySelect:
    def test_all_normal_full_speed(self):
        mode = primary_speed_select(Zone.NORMAL, Zone.NORMAL, Quadrant.LEFT)
        assert mode.kind == ModeKind.FULL and mode.fraction == 1.0

    def test_warning_opposite_quadrant_keeps_operating(self):
        mode = primary_speed_select(Zone.NORMAL, Zone.WARNING, Quadrant.LEFT)
        assert mode.kind == ModeKind.COLLABORATIVE and mode.fraction == 0.5

    def test_danger_own_quadrant_standstill(self):
        mode = primary_speed_select(Zone.DANGER, Zone.NORMAL, Quadrant.LEFT)
        assert mode.kind == ModeKind.STANDSTILL and mode.fraction == 0.0

    def test_danger_opposite_quadrant_collaborative(self):
        mode = primary_speed_select(Zone.NORMAL, Zone.DANGER, Quadrant.LEFT)
        assert mode.kind == ModeKind.COLLABORATIVE

    def test_warning_own_quadrant(self):
        mode = primary_speed_select(Zone.WARNING, Zone.NORMAL, Quadrant.LEFT)
        assert mode.kind == ModeKind.COLLABORATIVE

    def test_robot_straddling_split_uses_worst(self):
        mode = primary_speed_select(Zone.NORMAL, Zone.DANGER, Quadrant.BOTH)
        assert mode.kind == ModeKind.STANDSTILL


class TestSecondaryScale:
    def test_at_trigger_unchanged(self):
        mode = secondary_scale(LAYOUT.scale_start_distance, LAYOUT, MODE_COLLABORATIVE, GAINS)
        assert mode is MODE_COLLABORATIVE

    def test_at_danger_boundary_floor_fraction(self):
        mode = secondary_scale(LAYOUT.scale_floor_distance, LAYOUT, MODE_COLLABORATIVE, GAINS)
        assert mode.kind == ModeKind.REDUCED
        assert mode.fraction == pytest.approx(0.3, abs=1e-12)

    def test_midway_scale_factor_interpolates(self):
        mid = 0.5 * (LAYOUT.scale_start_distance + LAYOUT.scale_floor_distance)
        assert scale_factor(mid, LAYOUT, GAINS) == pytest.approx(0.65, abs=1e-12)

    def test_never_increases_fraction(self):
        far = LAYOUT.scale_start_distance * 2
        assert secondary_scale(far, LAYOUT, MODE_COLLABORATIVE, GAINS) is MODE_COLLABORATIVE
        near = LAYOUT.scale_floor_distance
        mode = secondary_scale(near, LAYOUT, MODE_FULL, GAINS)
        assert mode.fraction <= MODE_FULL.fraction

    def test_min_composition(self):
        # scaled value above the collaborative fraction cannot raise it
        d = LAYOUT.scale_floor_distance + 0.8 * (
            LAYOUT.scale_start_distance - LAYOUT.scale_floor_distance
        )
        ks = scale_factor(d, LAYOUT, GAINS)
        assert ks > COLLABORATIVE_FRACTION
        mode = secondary_scale(d, LAYOUT, MODE_COLLABORATIVE, GAINS)
        assert mode.fraction == COLLABORATIVE_FRACTION

    def test_standstill_passthrough(self):
        from ssmcell.control import MODE_STANDSTILL

        assert secondary_scale(0.0, LAYOUT, MODE_STANDSTILL, GAINS) is MODE_STANDSTILL

    def test_negative_distance_rejected(self):
        with pytest.raises(ControlError):
            secondary_scale(-0.1, LAYOUT, MODE_COLLABORATIVE, GAINS)


def resolve(q, v, gains=GAINS, J=None):
    """Rates and damped flag from the engine's resolver, on a fresh controller."""
    ctrl = Controller(MODEL, LAYOUT, gains, Scenario.separation)
    q = np.asarray(q, dtype=float)
    J = jacobian(MODEL, q) if J is None else J
    return ctrl._resolve_rates(q, np.asarray(v, dtype=float), J)


class TestVelocityResolution:
    def test_zero_task_zero_gradient(self):
        mids = np.array([0.5 * (lo + hi) for lo, hi in MODEL.joint_limits])
        out, _ = resolve(mids, np.zeros(6))
        assert np.max(np.abs(out)) == 0.0

    def test_null_space_invisible_in_task_space(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            q = rng.uniform(-2.5, 2.5, 6)
            J = jacobian(MODEL, q)
            v = rng.normal(size=6) * 0.2
            out, damped = resolve(q, v)
            base = pseudo_inverse(J, DEFAULT_DAMPING if damped else 0.0) @ (GAINS.task_gain @ v)
            assert np.max(np.abs(J.matrix @ (out - base))) < 1e-9

    def test_identity_gain_reduces_to_inverse(self):
        rng = np.random.default_rng(9)
        M = rng.normal(size=(6, 6)) + 3 * np.eye(6)
        gains = Gains.diagonal(task_gain=1.0, k0=0.0)
        v = rng.normal(size=6)
        out, _ = resolve(REGULAR_Q, v, gains, J=Jacobian(matrix=M))
        assert np.max(np.abs(out - np.linalg.inv(M) @ v)) < 1e-8

    def test_damped_branch_matches_reference(self):
        stretched = np.zeros(6)  # q = 0 is the fully extended arm, also the joint midpoints
        J = jacobian(MODEL, stretched)
        assert np.linalg.svd(J.matrix, compute_uv=False)[-1] < SINGULARITY_THRESHOLD
        v = np.random.default_rng(13).normal(size=6) * 0.2
        out, damped = resolve(stretched, v)
        assert damped
        reference = pseudo_inverse(J, DEFAULT_DAMPING) @ (GAINS.task_gain @ v)
        assert np.max(np.abs(out - reference)) < 1e-9


def reference_rates(q, v6, J, gains=GAINS):
    """The resolution as whole-array expressions, all recomputed on every call."""
    U, s, Vt = np.linalg.svd(J.matrix)
    damped = s[-1] < SINGULARITY_THRESHOLD
    exact = np.where(s > RANK_TOL * s[0], 1.0 / np.where(s > 0, s, 1.0), 0.0)
    task = s / (s * s + DEFAULT_DAMPING * DEFAULT_DAMPING) if damped else exact
    limits = np.asarray(MODEL.joint_limits)
    mid, span_sq = 0.5 * (limits[:, 0] + limits[:, 1]), (limits[:, 1] - limits[:, 0]) ** 2
    base = Vt.T @ (task * (U.T @ (gains.task_gain @ v6)))
    qdot0 = gains.k0 * (-2.0 * (q - mid) / span_sq)
    null_term = qdot0 - Vt.T @ (exact * (U.T @ (J.matrix @ qdot0)))
    return base + null_term, damped


class TestResolveCaches:
    """_resolve_rates keeps what depends on the Jacobian object and q, and the
    rates of the last v6; every answer must be a fresh controller's, bit for bit."""

    @staticmethod
    def fresh(q, v6, J):
        return Controller(MODEL, LAYOUT, GAINS, Scenario.separation)._resolve_rates(q, v6, J)

    def check(self, got, q, v6, J):
        rates, damped = got
        fresh_rates, fresh_damped = self.fresh(q, v6, J)
        ref_rates, ref_damped = reference_rates(q, v6, J)
        assert rates.tobytes() == fresh_rates.tobytes() == ref_rates.tobytes()
        assert damped == fresh_damped == ref_damped
        assert not rates.flags.writeable  # a later call may hand out the same array
        return damped

    def test_new_and_repeated_v6_on_one_jacobian(self):
        ctrl = Controller(MODEL, LAYOUT, GAINS, Scenario.separation)
        J = jacobian(MODEL, REGULAR_Q)
        rng = np.random.default_rng(21)
        va, vb = (np.concatenate([rng.normal(size=3) * 0.3, np.zeros(3)]) for _ in range(2))
        for v6 in (va, vb, vb.copy(), va, np.zeros(6), np.zeros(6)):
            self.check(ctrl._resolve_rates(REGULAR_Q, v6, J), REGULAR_Q, v6, J)

    def test_another_q_or_jacobian_object_is_resolved_afresh(self):
        ctrl = Controller(MODEL, LAYOUT, GAINS, Scenario.separation)
        v6 = np.array([0.2, -0.1, 0.3, 0.0, 0.0, 0.0])
        # Joint 2 is free, so the null-space term is k0's gradient there.
        M = np.eye(6)
        M[:, 2] = 0.0
        J = Jacobian(matrix=M)
        self.check(ctrl._resolve_rates(REGULAR_Q, v6, J), REGULAR_Q, v6, J)
        moved = REGULAR_Q + 0.01  # the same v6 on the same object, at another q
        self.check(ctrl._resolve_rates(moved, v6, J), moved, v6, J)
        assert reference_rates(moved, v6, J)[0][2] != reference_rates(REGULAR_Q, v6, J)[0][2]
        J2 = jacobian(MODEL, moved)  # another object at the same q
        self.check(ctrl._resolve_rates(moved, v6, J2), moved, v6, J2)

    def test_a_pose_near_a_singularity_still_damps(self):
        ctrl = Controller(MODEL, LAYOUT, GAINS, Scenario.separation)
        v6 = np.array([0.1, 0.2, -0.1, 0.0, 0.0, 0.0])
        for k in range(4):
            q = np.array([0.2, -0.3, 1e-4 * k, 0.1, 0.5, -0.2])  # elbow straight: singular
            J = jacobian(MODEL, q)
            assert np.linalg.svd(J.matrix, compute_uv=False)[-1] < SINGULARITY_THRESHOLD
            for _ in range(2):  # computed, then kept
                assert self.check(ctrl._resolve_rates(q, v6, J), q, v6, J)


class TestEnergyObjective:
    """The null-space term is k0 times the gradient of w(q) = -sum(((q - mid) / range)^2).

    A Jacobian with joint i's column zeroed leaves exactly that joint in the
    null space, so the term shows there in full.
    """

    @staticmethod
    def objective(q):
        return -sum(
            ((qi - 0.5 * (lo + hi)) / (hi - lo)) ** 2 for qi, (lo, hi) in zip(q, MODEL.joint_limits)
        )

    @staticmethod
    def free_joint(i):
        M = np.eye(6)
        M[:, i] = 0.0
        return Jacobian(matrix=M)

    def test_zero_gradient_at_midpoints(self):
        mids = np.array([0.5 * (lo + hi) for lo, hi in MODEL.joint_limits])
        for i in range(6):
            out, _ = resolve(mids, np.zeros(6), J=self.free_joint(i))
            assert np.max(np.abs(out)) == 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        h = 1e-6
        for _ in range(20):
            q = rng.uniform(-3, 3, 6)
            for i in range(6):
                out, _ = resolve(q, np.zeros(6), J=self.free_joint(i))
                qp, qm = q.copy(), q.copy()
                qp[i] += h
                qm[i] -= h
                fd = (self.objective(qp) - self.objective(qm)) / (2 * h)
                assert abs(out[i] - GAINS.k0 * fd) < 1e-8
                assert np.max(np.abs(np.delete(out, i))) < 1e-12


class TestPdLaw:
    """The PD correction of Controller.step: (I + Kd) u = Kp (joint_reference - q)."""

    @staticmethod
    def correction(e, gains):
        ctrl = make_controller(gains=gains)
        ctrl.offer_scan(0.0, *occ())
        ctrl.offer_skeleton(0.0, math.inf)
        cmd = step_simple(ctrl, 0.0, q=np.zeros(6), reference=np.asarray(e, dtype=float))
        return cmd.qdot_cmd

    def test_zero_errors(self):
        ctrl = make_controller()
        ctrl.fraction = 1.0
        ctrl.offer_scan(0.0, *occ())
        ctrl.offer_skeleton(0.0, math.inf)
        cmd = step_simple(ctrl, 0.0, direction=(1.0, 0.0, 0.0))
        assert np.max(np.abs(cmd.qdot_task)) > 0.0
        assert np.array_equal(cmd.qdot_cmd, cmd.qdot_task)

    def test_unit_proportional(self):
        e = np.zeros(6)
        e[2] = 1.0
        out = self.correction(e, Gains.diagonal(kp=1.0, kd=0.0, k0=0.0))
        assert np.array_equal(out, e)

    def test_linearity_in_kp(self):
        e = np.array([0.1, -0.2, 0.3, 0.0, 0.5, -0.1]) * 0.01  # small enough to stay unclamped
        a = self.correction(e, Gains.diagonal(kp=20.0, kd=0.0, k0=0.0))
        b = self.correction(e, Gains.diagonal(kp=40.0, kd=0.0, k0=0.0))
        assert np.allclose(b, 2 * a)
        assert np.allclose(a, 20 * e)


class TestCellGains:
    def test_the_shared_gains_cannot_be_written(self):
        # Every run takes this one object, so no run may change the next one's gains.
        gains = Scenario.gains_config
        assert build_gains(Scenario()) is gains
        for name in ("kp", "kd", "task_gain"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(gains, name)[0, 0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            gains.kp = np.eye(6)
        assert np.array_equal(gains.kp, np.eye(6) * 20.0)


def make_controller(sequential=False, gains=None):
    return Controller(MODEL, LAYOUT, gains or GAINS, Scenario.separation, sequential=sequential)


def step_simple(ctrl, t, q=None, direction=(0.0, 0.0, 0.0), tcp_speed=0.0, reference=None):
    q = REGULAR_Q if q is None else q
    return ctrl.step(
        t,
        robot_quadrant=Quadrant.LEFT,
        task_direction=np.asarray(direction),
        joint_reference=q if reference is None else reference,
        q=q,
        tcp_speed=tcp_speed,
        J=jacobian(MODEL, q),
    )


class TestControllerStep:
    def test_slew_limited_rampdown(self):
        ctrl = make_controller()
        ctrl.fraction = 1.0
        dt = CONTROL_PERIOD
        ctrl.offer_scan(0.0, *occ())
        ctrl.offer_skeleton(0.0, math.inf)
        fractions = [step_simple(ctrl, i * dt).fraction for i in range(5)]
        assert all(f == 1.0 for f in fractions)
        prev = 1.0
        for i in range(5, 300):
            t = i * dt
            if i % 15 == 0:
                ctrl.offer_scan(t, *occ(left=Zone.DANGER))
            if i % 16 == 0:
                ctrl.offer_skeleton(t, math.inf)
            cmd = step_simple(ctrl, t)
            assert abs(cmd.fraction - prev) <= GAINS.accel_limit * dt + 1e-12
            prev = cmd.fraction
        assert prev == 0.0

    def test_stale_sensors_force_standstill(self):
        ctrl = make_controller()
        ctrl.fraction = 1.0
        ctrl.offer_scan(0.0, *occ())
        ctrl.offer_skeleton(0.0, math.inf)
        cmd = step_simple(ctrl, 0.0)
        assert cmd.mode.kind == ModeKind.FULL
        # freeze the streams for more than three sensor periods
        t_stale = 3 * (1.0 / SKELETON_RATE) + 0.01
        cmd = step_simple(ctrl, t_stale)
        assert cmd.mode.kind == ModeKind.STANDSTILL
        assert cmd.source == CommandSource.ESTOP
        assert cmd.fraction == 0.0

    @pytest.mark.parametrize("silent", ["scan", "skeleton"])
    def test_one_silent_stream_alone_forces_standstill(self, silent):
        ctrl = make_controller()
        ctrl.fraction = 1.0
        ctrl.offer_scan(0.0, *occ())
        ctrl.offer_skeleton(0.0, math.inf)
        step_simple(ctrl, 0.0)
        t = 0.5  # past three periods of either sensor
        if silent != "scan":
            ctrl.offer_scan(t, *occ())
        if silent != "skeleton":
            ctrl.offer_skeleton(t, math.inf)
        cmd = step_simple(ctrl, t)
        assert cmd.mode.kind == ModeKind.STANDSTILL
        assert cmd.source == CommandSource.ESTOP
        assert cmd.fraction == 0.0

    def test_watchdog_recovers_when_data_resumes(self):
        ctrl = make_controller()
        ctrl.offer_scan(0.0, *occ())
        ctrl.offer_skeleton(0.0, math.inf)
        step_simple(ctrl, 0.0)
        t_stale = 0.5
        assert step_simple(ctrl, t_stale).source == CommandSource.ESTOP
        ctrl.offer_scan(t_stale, *occ())
        ctrl.offer_skeleton(t_stale, math.inf)
        assert step_simple(ctrl, t_stale + 0.002).source != CommandSource.ESTOP

    def test_final_fraction_is_min_of_loops(self):
        ctrl = make_controller()
        ctrl.fraction = 1.0
        ctrl.offer_scan(0.0, *occ(left=Zone.WARNING))
        ctrl.offer_skeleton(0.0, LAYOUT.scale_floor_distance)
        cmd = step_simple(ctrl, 0.0)
        primary = primary_speed_select(Zone.WARNING, Zone.NORMAL, Quadrant.LEFT)
        ks = scale_factor(LAYOUT.scale_floor_distance, LAYOUT, GAINS)
        assert cmd.mode.fraction == min(primary.fraction, ks)
        assert cmd.source == CommandSource.SECONDARY_LOOP

    def test_fraction_monotone_during_monotone_approach(self):
        ctrl = make_controller()
        ctrl.fraction = 1.0
        dt = CONTROL_PERIOD
        d = 1.2
        prev_fraction = 1.0
        for i in range(0, 4000):
            t = i * dt
            d = max(0.12, 1.2 - 0.4 * t)  # monotric approach
            if i % 15 == 0:
                zone = Zone.DANGER if d < 0.2 else Zone.WARNING if d < 0.9 else Zone.NORMAL
                ctrl.offer_scan(t, *occ(left=zone))
            if i % 17 == 0:
                ctrl.offer_skeleton(t, d, human_speed=0.4)
            cmd = step_simple(ctrl, t)
            assert cmd.fraction <= prev_fraction + 1e-12
            prev_fraction = cmd.fraction

    def test_violation_gate_forces_standstill(self):
        ctrl = make_controller()
        ctrl.fraction = 1.0
        ctrl.offer_scan(0.0, *occ(left=Zone.WARNING))
        # distance below the dynamic minimum for the offered speeds
        ctrl.offer_skeleton(0.0, 0.05, human_speed=0.0)
        cmd = step_simple(ctrl, 0.0)
        assert cmd.mode.kind == ModeKind.STANDSTILL
        assert cmd.source == CommandSource.SECONDARY_LOOP

    def test_out_of_order_messages_latest_wins(self):
        ctrl = make_controller()
        ctrl.offer_scan(0.030, *occ(left=Zone.DANGER))
        ctrl.offer_scan(0.015, *occ())  # stale duplicate arrives late
        assert ctrl.zones == (Zone.DANGER, Zone.NORMAL)

    def test_sequential_gates_to_skeleton_arrivals(self):
        ctrl = make_controller(sequential=True)
        ctrl.fraction = 1.0
        dt = CONTROL_PERIOD
        ctrl.offer_scan(0.0, *occ())
        ctrl.offer_skeleton(0.0, math.inf)
        step_simple(ctrl, 0.0)
        # zone change arrives but no new skeleton frame yet: held at FULL
        ctrl.offer_scan(0.030, *occ(left=Zone.DANGER))
        cmd = step_simple(ctrl, 0.032)
        assert cmd.mode.kind == ModeKind.FULL
        ctrl.offer_skeleton(1 / 30.0, math.inf)
        cmd = step_simple(ctrl, 0.034)
        assert cmd.mode.kind == ModeKind.STANDSTILL

    def test_nominal_speed_command_at_full(self):
        ctrl = make_controller()
        ctrl.fraction = 1.0
        ctrl.offer_scan(0.0, *occ())
        ctrl.offer_skeleton(0.0, math.inf)
        cmd = step_simple(ctrl, 0.0, direction=(1.0, 0.0, 0.0))
        assert cmd.v_cartesian == 1.0

    def test_damping_engaged_near_singularity(self):
        ctrl = make_controller()
        ctrl.offer_scan(0.0, *occ())
        ctrl.offer_skeleton(0.0, math.inf)
        stretched = np.zeros(6)  # fully extended arm is rank deficient
        cmd = step_simple(ctrl, 0.0, q=stretched, direction=(1.0, 0.0, 0.0))
        assert cmd.damped
        assert np.all(np.isfinite(cmd.qdot_cmd))
        regular = np.array([0.4, -1.1, 0.9, 0.6, -0.7, 0.3])
        ctrl.offer_scan(0.002, *occ())
        ctrl.offer_skeleton(1 / 30.0, math.inf)
        assert not step_simple(ctrl, 0.002, q=regular).damped


class TestFactorReuse:
    """Reusing the last tick's factorisation must not change a single bit."""

    @pytest.mark.parametrize(
        "q, damped",
        [
            (np.array([0.4, -1.1, 0.9, 0.6, -0.7, 0.3]), False),
            (np.array([0.3, -0.6, 0.004, 0.5, 0.7, 0.2]), True),  # elbow almost straight
        ],
    )
    def test_same_jacobian_object_matches_fresh_one(self, q, damped):
        dt = 0.002

        def second_tick(first_q, second_J):
            ctrl = make_controller()
            ctrl.fraction = 0.5  # ramping up, so the task velocity differs per tick
            ctrl.offer_scan(0.0, *occ())
            ctrl.offer_skeleton(0.0, math.inf)
            J = jacobian(MODEL, first_q)
            step_J = J if second_J is None else second_J
            for t, tick_q, tick_J in ((0.0, first_q, J), (dt, q, step_J)):
                cmd = ctrl.step(
                    t,
                    robot_quadrant=Quadrant.LEFT,
                    task_direction=np.array([0.6, 0.0, -0.8]),
                    joint_reference=q + 1e-3,
                    q=tick_q,
                    J=tick_J,
                )
            return cmd

        reused = second_tick(q, None)  # the same Jacobian object on both ticks
        other_q = np.array([-0.5, -0.8, 1.2, 0.1, 0.9, -0.4])
        fresh = second_tick(other_q, jacobian(MODEL, q))  # factorised afresh
        assert reused.damped == fresh.damped == damped
        assert reused.qdot_cmd.tobytes() == fresh.qdot_cmd.tobytes()
        assert reused.qdot_task.tobytes() == fresh.qdot_task.tobytes()


class TestSpeedModeValidation:
    def test_full_must_carry_one(self):
        with pytest.raises(ControlError):
            SpeedMode(ModeKind.FULL, 0.7)

    def test_reduced_free_fraction(self):
        assert SpeedMode(ModeKind.REDUCED, 0.42).fraction == 0.42

