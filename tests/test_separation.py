import numpy as np
import pytest

from ssmcell.scenario import Scenario
from ssmcell.separation import (
    SeparationError,
    SeparationInputs,
    ViolationGate,
    compute_msd_dynamic,
    separation_terms,
)


def make_inputs(v_h=1.6, v_r=1.0, t_r=0.1, t_s=0.064, c=0.2, z_r=0.05, z_d=0.05):
    return SeparationInputs(
        human_speed=v_h,
        robot_speed=v_r,
        robot_reaction_time=t_r,
        perception_response_time=t_s,
        intrusion=c,
        robot_uncertainty=z_r,
        human_uncertainty=z_d,
    )


def test_defaults_are_the_cells_terms():
    assert SeparationInputs() == make_inputs(v_h=0.0, v_r=0.0, c=0.06, z_r=0.02, z_d=0.02)
    assert Scenario.separation == SeparationInputs()


class TestTerms:
    def test_worked_example(self):
        s_h, s_r, s_s = separation_terms(make_inputs())
        assert s_h == 1.6 * (0.1 + 0.064)
        assert s_r == 1.0 * 0.1
        assert s_s == 1.0 * (0.1 + 0.064)
        assert s_h == pytest.approx(0.2624, abs=1e-12)
        assert s_r == pytest.approx(0.1, abs=1e-12)
        assert s_s == pytest.approx(0.164, abs=1e-12)

    def test_all_zero(self):
        assert separation_terms(make_inputs(0, 0, 0, 0, 0, 0, 0)) == (0.0, 0.0, 0.0)

    def test_stationary_human(self):
        s_h, _, _ = separation_terms(make_inputs(v_h=0.0))
        assert s_h == 0.0

    def test_stopping_minus_travel_identity(self):
        inputs = make_inputs(v_r=0.75, t_r=0.25, t_s=0.125)
        s_h, s_r, s_s = separation_terms(inputs)
        assert s_s - s_r == 0.75 * 0.125


class TestDynamicMsd:
    def test_worked_example(self):
        total = compute_msd_dynamic(make_inputs())
        expected = 1.6 * 0.164 + 1.0 * 0.1 + 1.0 * 0.164 + 0.2 + 0.05 + 0.05
        assert total == expected
        assert total == pytest.approx(0.8264, abs=1e-12)

    def test_all_zero(self):
        assert compute_msd_dynamic(make_inputs(0, 0, 0, 0, 0, 0, 0)) == 0.0

    def test_speed_linearity(self):
        base = make_inputs(c=0.25, z_r=0.125, z_d=0.0625)
        doubled = base.with_speeds(2 * base.human_speed, 2 * base.robot_speed)
        fixed = 0.25 + 0.125 + 0.0625
        assert compute_msd_dynamic(doubled) - fixed == pytest.approx(
            2 * (compute_msd_dynamic(base) - fixed), abs=1e-12
        )

    def test_monotone_in_every_field(self):
        base = make_inputs()
        msd0 = compute_msd_dynamic(base)
        for name in (
            "human_speed",
            "robot_speed",
            "robot_reaction_time",
            "perception_response_time",
            "intrusion",
            "robot_uncertainty",
            "human_uncertainty",
        ):
            import dataclasses

            bumped = dataclasses.replace(base, **{name: getattr(base, name) + 0.1})
            assert compute_msd_dynamic(bumped) >= msd0

    def test_negative_field_rejected(self):
        with pytest.raises(SeparationError):
            make_inputs(v_h=-0.1)


class TestViolationPredicate:
    """A fresh gate trips iff the distance is strictly below the dynamic minimum."""

    def test_boundary_is_compliant(self):
        inputs = make_inputs()
        msd = compute_msd_dynamic(inputs)
        assert ViolationGate().update(msd, inputs) is False

    def test_zero_distance_violates(self):
        assert ViolationGate().update(0.0, make_inputs()) is True

    def test_single_threshold_sweep(self):
        inputs = make_inputs()
        msd = compute_msd_dynamic(inputs)
        values = [ViolationGate().update(d, inputs) for d in np.linspace(0.0, 2 * msd, 2001)]
        flips = sum(1 for a, b in zip(values, values[1:]) if a != b)
        assert flips == 1
        assert values[0] is True and values[-1] is False

    def test_negative_distance_rejected(self):
        # The controller's skeleton scaling rejects a negative distance before the gate sees it.
        from ssmcell.control import ControlError, Controller, Gains
        from ssmcell.kinematics import RobotModel, jacobian
        from ssmcell.zones import Quadrant, Zone, build_zone_layout

        model = RobotModel()
        ctrl = Controller(
            model, build_zone_layout(0.45, 1.5, 0.9, 0.425), Gains.diagonal(), make_inputs()
        )
        ctrl.offer_scan(0.0, {Quadrant.LEFT: Zone.NORMAL, Quadrant.RIGHT: Zone.NORMAL})
        ctrl.offer_skeleton(0.0, -0.1)
        with pytest.raises(ControlError):
            ctrl.step(
                0.0,
                robot_quadrant=Quadrant.LEFT,
                task_direction=np.zeros(3),
                joint_reference=np.zeros(6),
                q=np.zeros(6),
                J=jacobian(model, np.zeros(6)),
            )


class TestViolationGate:
    def test_trip_and_hysteresis_release(self):
        inputs = make_inputs(v_h=0.0, v_r=0.0)
        msd = compute_msd_dynamic(inputs)  # 0.3 with these defaults
        gate = ViolationGate()  # releases 0.02 m above the minimum
        assert gate.update(msd + 0.05, inputs) is False
        assert gate.update(msd - 0.01, inputs) is True
        # back above msd but inside the hysteresis band: still tripped
        assert gate.update(msd + 0.01, inputs) is True
        assert gate.update(msd + 0.03, inputs) is False
