import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmcell.control import Gains, ModeKind
from ssmcell.engine import lyapunov_samples, run
from ssmcell.scenario import SimMode
from ssmcell.stability import (
    LyapunovSample,
    SegmentVerdict,
    StabilityError,
    StabilityReport,
    check_segment,
    discrete_derivative,
    evaluate_trace,
    lyapunov_value,
)
from ssmcell.trace import MODES, N_CODES, N_FLOATS, Trace
from helpers import bundled

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

    @pytest.mark.parametrize("value", [-1.0, math.inf, -math.inf, math.nan])
    def test_negative_or_non_finite_energy_rejected_in_both_paths(self, value):
        with pytest.raises(StabilityError, match="at t=0.004$"):
            LyapunovSample(t=0.004, value=value, mode=ModeKind.FULL)
        values = [0.0, 1.0, value, 2.0]
        with pytest.raises(StabilityError, match="at t=0.004$"):
            lyapunov_samples(energy_trace(np.arange(4) * 0.002, values, [ModeKind.FULL] * 4))


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
        segments = evaluate_trace(trace).segments
        assert [s.mode for s in segments] == [
            ModeKind.FULL,
            ModeKind.COLLABORATIVE,
            ModeKind.STANDSTILL,
        ]
        assert [(s.t_start, s.t_end) for s in segments] == [
            (trace[a].t, trace[b - 1].t) for a, b in ((0, 10), (10, 20), (20, 30))
        ]

    def test_evaluate_trace_default_eps(self):
        trace = samples(list(np.linspace(2.0, 0.0, 200)))
        report = evaluate_trace(trace)
        assert report.eps == pytest.approx(1e-9 * 2.0)
        assert report.all_converged

    def test_undefined_rate_at_the_end_is_not_settled(self):
        # two last samples at one time give dV/dt = 0/0: NaN ends the settled
        # stretch and fails the decay check, as in the per-sample loop
        times = (0.0, 0.002, 0.004, 0.004)
        trace = [LyapunovSample(t=t, value=1.0, mode=ModeKind.FULL) for t in times]
        with np.errstate(invalid="ignore"):
            report, reference = evaluate_trace(trace), reference_report(trace)
        assert repr(report) == repr(reference)
        assert not report.segments[0].converged
        assert not report.segments[0].invariant_set_detected

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


def energy_trace(times, values, modes):
    """A Trace whose t, lyap and mode columns hold the given series; the rest is zero."""
    trace = Trace(np.zeros((len(times), N_FLOATS)), np.zeros((len(times), N_CODES), dtype=np.int8))
    trace.column("t")[:] = times
    trace.column("lyap")[:] = values
    trace.column("mode")[:] = list(map(MODES.values.index, modes))
    return trace


def reference_report(samples, eps=None):
    """The per-sample loop the column core replaced: split the list at each mode
    switch, then check each slice, counting the settled tail from the end."""
    if eps is None:
        eps = 1e-9 * max(s.value for s in samples)
    segments, current = [], []
    for s in samples:
        if current and s.mode != current[-1].mode:
            segments.append(current)
            current = []
        current.append(s)
    segments.append(current)
    verdicts = []
    for seg in segments:
        times = np.array([s.t for s in seg])
        vdot = discrete_derivative(times, np.array([s.value for s in seg]))
        tail = 0
        for x in np.abs(vdot)[::-1]:
            if x <= eps:
                tail += 1
            else:
                break
        verdicts.append(
            SegmentVerdict(
                t_start=float(times[0]),
                t_end=float(times[-1]),
                mode=seg[0].mode,
                max_vdot=float(vdot.max()),
                converged=bool(vdot.max() <= eps),
                invariant_set_detected=tail >= min(3, len(seg)),
            )
        )
    return StabilityReport(segments=tuple(verdicts), eps=eps)


def column_report(samples, eps=None):
    """evaluate_trace on the columns of a Trace that holds the samples."""
    times, values, modes = zip(*((s.t, s.value, s.mode) for s in samples))
    trace = energy_trace(times, values, modes)
    return evaluate_trace(lyapunov_samples(trace), eps)


@functools.lru_cache(maxsize=None)
def bundled_trace(name):
    return run(bundled(name).with_mode(SimMode.PROPOSED)).trace


@pytest.mark.parametrize("name", ["approach_retreat", "sorting_benchmark"])
class TestColumnsOfBundledRuns:
    def test_iterating_gives_the_per_tick_samples(self, name):
        trace = bundled_trace(name)
        columns = (trace.values(name) for name in ("t", "lyap", "mode"))
        old = list(map(LyapunovSample, *columns))
        series = lyapunov_samples(trace)
        assert len(series) == len(old)
        assert list(series) == old
        assert [series[0], series[-1]] == [old[0], old[-1]]

    def test_list_and_columns_give_equal_reports(self, name):
        series = lyapunov_samples(bundled_trace(name))
        listed = list(series)
        report = evaluate_trace(series)
        assert report == evaluate_trace(listed) == reference_report(listed)
        assert report.all_converged


@st.composite
def sample_lists(draw):
    """1-300 samples in 1-5 constant-mode slices, each with zero, constant,
    rising or decaying energy; slices of one and two samples included."""
    n_slices = draw(st.integers(1, 5))
    mode = draw(st.sampled_from(list(ModeKind)))
    values, modes = [], []
    for _ in range(n_slices):
        n = draw(st.one_of(st.integers(1, 2), st.integers(1, 60)))
        level = draw(st.floats(0.0, 10.0))
        rate = draw(st.floats(0.0, 0.2))
        shape = draw(st.sampled_from(["zero", "constant", "rising", "decaying"]))
        if shape == "zero":
            values += [0.0] * n
        elif shape == "constant":
            values += [level] * n
        elif shape == "rising":
            values += [level + rate * i for i in range(n)]
        else:
            values += [level * math.exp(-rate * i) for i in range(n)]
        modes += [mode] * n
        mode = draw(st.sampled_from([m for m in ModeKind if m != mode]))
    return [
        LyapunovSample(t=i * 0.002, value=v, mode=m) for i, (v, m) in enumerate(zip(values, modes))
    ]


@settings(max_examples=150, deadline=None)
@given(sample_lists(), st.one_of(st.none(), st.floats(0.0, 1e-3)))
def test_list_and_columns_agree_with_the_loop(listed, eps):
    report = evaluate_trace(listed, eps)
    assert report == column_report(listed, eps) == reference_report(listed, eps)
