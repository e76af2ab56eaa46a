import numpy as np
import pytest

from ssmcell.control import Gains, ModeKind
from ssmcell.stability import (
    LyapunovSample,
    StabilityError,
    check_segment,
    discrete_derivative,
    evaluate_trace,
    lyapunov_value,
    split_segments,
)

GAINS = Gains.diagonal(kp=20.0, kd=2.0)


def samples(values, mode=ModeKind.FULL, dt=0.002, t0=0.0):
    return [LyapunovSample(t=t0 + i * dt, value=v, mode=mode) for i, v in enumerate(values)]


class TestLyapunovValue:
    def test_equilibrium_is_zero(self):
        assert lyapunov_value(np.zeros(6), np.zeros(6), GAINS) == 0.0

    def test_unit_error_identity_gain(self):
        gains = Gains.diagonal(kp=1.0, kd=1.0)
        e = np.zeros(6)
        e[0] = 1.0
        assert lyapunov_value(e, np.zeros(6), gains) == pytest.approx(0.5, abs=1e-15)

    def test_positive_definite(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            e = rng.normal(size=6)
            edot = rng.normal(size=6)
            if np.linalg.norm(e) + np.linalg.norm(edot) > 0:
                assert lyapunov_value(e, edot, GAINS) > 0.0

    def test_negative_energy_sample_rejected(self):
        with pytest.raises(StabilityError):
            LyapunovSample(t=0.0, value=-1e-9, mode=ModeKind.FULL)


class TestCheckSegment:
    def test_standstill_zero_energy(self):
        verdict = check_segment(samples([0.0] * 50, mode=ModeKind.STANDSTILL), eps=0.0)
        assert verdict.converged
        assert verdict.invariant_set_detected
        assert verdict.max_vdot == 0.0

    def test_pd_step_response_decays(self):
        # desk-scale closed loop: velocity plant under the PD law
        kp, kd = 20.0, 2.0
        dt = 0.002
        e = np.full(6, 0.5)
        vals = []
        for _ in range(800):
            u = kp / (1.0 + kd) * e
            edot = -u
            vals.append(lyapunov_value(e, edot, GAINS))
            e = e + edot * dt
        verdict = check_segment(samples(vals), eps=1e-9 * max(vals))
        assert verdict.converged
        assert vals[0] > vals[-1]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_injected_violation_flagged(self):
        vals = list(np.linspace(1.0, 0.2, 100))
        vals[50] = 0.9  # artificial energy increase
        verdict = check_segment(samples(vals), eps=1e-9)
        assert not verdict.converged

    def test_mode_switch_inside_slice_rejected(self):
        mixed = samples([1.0] * 5) + samples([1.0] * 5, mode=ModeKind.COLLABORATIVE, t0=0.01)
        with pytest.raises(StabilityError):
            check_segment(mixed, eps=0.0)

    def test_empty_segment_rejected(self):
        with pytest.raises(StabilityError):
            check_segment([], eps=0.0)


class TestSegmentation:
    def test_segments_tile_the_trace(self):
        trace = (
            samples([1.0] * 10, ModeKind.FULL)
            + samples([0.5] * 10, ModeKind.COLLABORATIVE, t0=0.02)
            + samples([0.0] * 10, ModeKind.STANDSTILL, t0=0.04)
        )
        segments = split_segments(trace)
        assert [s[0].mode for s in segments] == [
            ModeKind.FULL,
            ModeKind.COLLABORATIVE,
            ModeKind.STANDSTILL,
        ]
        assert sum(len(s) for s in segments) == len(trace)

    def test_evaluate_trace_default_eps(self):
        trace = samples(list(np.linspace(2.0, 0.0, 200)))
        report = evaluate_trace(trace)
        assert report.eps == pytest.approx(1e-9 * 2.0)
        assert report.all_converged

    def test_terminal_standstill_invariant_set(self):
        decay = list(np.linspace(1.0, 0.0, 100)) + [0.0] * 20
        report = evaluate_trace(samples(decay))
        assert any(s.invariant_set_detected for s in report.segments)


class TestDiscreteDerivative:
    def test_linear_ramp(self):
        t = np.arange(10) * 0.1
        v = 3.0 * t
        d = discrete_derivative(t, v)
        assert np.allclose(d, 3.0)

    def test_single_sample(self):
        assert np.array_equal(discrete_derivative(np.array([0.0]), np.array([1.0])), [0.0])
