"""Energy-function monitoring of completed runs: nonnegativity, decay, invariant sets."""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .control import Gains, ModeKind
from .trace import MODES, SLOTS


class StabilityError(ValueError):
    pass


def _check_value(t: float, value: float):
    """StabilityError, naming t, unless an energy value is finite and >= 0."""
    if not (math.isfinite(value) and value >= 0):
        what = "negative" if value < 0 else "not finite"
        raise StabilityError(f"energy value {value} {what} at t={t}")


@dataclass(frozen=True)
class LyapunovSample:
    t: float
    value: float
    mode: ModeKind

    def __post_init__(self):
        _check_value(self.t, self.value)


class LyapunovSeries(Sequence):
    """An energy series held as columns: t, V and the mode code of each sample,
    coded as a trace codes its mode column (``trace.MODES``).

    Indexing and iterating give the LyapunovSample of each sample;
    ``evaluate_trace`` reads the columns.  Like LyapunovSample, it raises
    StabilityError for a value that is not finite and >= 0.
    """

    def __init__(self, times, values, modes):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.modes = np.asarray(modes)
        bad = np.flatnonzero(~(np.isfinite(self.values) & (self.values >= 0)))
        if len(bad):
            _check_value(self.times[bad[0]].item(), self.values[bad[0]].item())

    @classmethod
    def of(cls, samples) -> LyapunovSeries:
        """A series as it is, or the columns of a list of LyapunovSample."""
        if isinstance(samples, cls):
            return samples
        rows = map(operator.attrgetter("t", "value", "mode"), samples)
        times, values, modes = list(zip(*rows)) or ((), (), ())
        return cls(times, values, list(map(SLOTS["mode"].code_of.__getitem__, modes)))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> LyapunovSample:
        t, value = self.times[i].item(), self.values[i].item()
        return LyapunovSample(t, value, MODES.values[self.modes[i]])

    def __iter__(self):
        modes = map(MODES.values.__getitem__, self.modes.tolist())
        return map(LyapunovSample, self.times.tolist(), self.values.tolist(), modes)


@dataclass(frozen=True)
class SegmentVerdict:
    t_start: float
    t_end: float
    mode: ModeKind
    max_vdot: float
    converged: bool
    invariant_set_detected: bool


@dataclass(frozen=True)
class StabilityReport:
    segments: tuple[SegmentVerdict, ...] = field(default=())
    eps: float = 0.0

    @property
    def all_converged(self) -> bool:
        return all(s.converged for s in self.segments)


def lyapunov_value(e, edot, gains: Gains) -> float:
    """Quadratic energy candidate 0.5 e'Kp e + 0.5 de'Kd de."""
    e = np.asarray(e, dtype=float)
    edot = np.asarray(edot, dtype=float)
    return float(0.5 * e @ (gains.kp @ e) + 0.5 * edot @ (gains.kd @ edot))


def discrete_derivative(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Centered differences in the interior, one-sided at the segment ends."""
    n = len(values)
    if n < 2:
        return np.zeros(n)
    d = np.empty(n)
    d[0] = (values[1] - values[0]) / (times[1] - times[0])
    d[-1] = (values[-1] - values[-2]) / (times[-1] - times[-2])
    if n > 2:
        d[1:-1] = (values[2:] - values[:-2]) / (times[2:] - times[:-2])
    return d


def _verdict(times: np.ndarray, values: np.ndarray, mode: ModeKind, eps: float) -> SegmentVerdict:
    vdot = discrete_derivative(times, values)
    max_vdot = float(vdot.max())
    # the persistent stretch: samples after the last one whose |dV/dt| is not
    # within eps; a NaN rate is not within eps, so it ends the stretch
    outside = np.flatnonzero(~(np.abs(vdot) <= eps))
    tail = len(vdot) - (outside[-1] + 1 if len(outside) else 0)
    return SegmentVerdict(
        t_start=float(times[0]),
        t_end=float(times[-1]),
        mode=mode,
        max_vdot=max_vdot,
        converged=bool(max_vdot <= eps),
        invariant_set_detected=bool(tail >= min(3, len(values))),
    )


def check_segment(samples: Sequence[LyapunovSample], eps: float) -> SegmentVerdict:
    """Verdict for one constant-mode slice: discrete dV/dt <= eps throughout.

    The invariant set is reported when the slice ends in a persistent stretch
    (at least three samples) where |dV/dt| stays within eps.
    """
    series = LyapunovSeries.of(samples)
    if not len(series):
        raise StabilityError("empty segment")
    codes = set(series.modes.tolist())
    if len(codes) > 1:
        names = sorted(MODES.values[c].value for c in codes)
        raise StabilityError(f"segment contains a mode switch: {names}")
    return _verdict(series.times, series.values, MODES.values[series.modes[0]], eps)


def evaluate_trace(samples: Sequence[LyapunovSample], eps: float | None = None) -> StabilityReport:
    """Segment a completed run by mode and check every segment.

    ``samples`` is a LyapunovSeries (``engine.lyapunov_samples``) or a list
    of LyapunovSample, which is checked on its columns in the same way.  eps
    defaults to 1e-9 times the largest energy value seen in the run.
    """
    series = LyapunovSeries.of(samples)
    if not len(series):
        raise StabilityError("no samples to evaluate")
    if eps is None:
        eps = 1e-9 * float(series.values.max())
    times, values, modes = series.times, series.values, series.modes
    bounds = [0, *(np.flatnonzero(modes[1:] != modes[:-1]) + 1).tolist(), len(series)]
    verdicts = tuple(
        _verdict(times[a:b], values[a:b], MODES.values[modes[a]], eps)
        for a, b in zip(bounds, bounds[1:])
    )
    return StabilityReport(segments=verdicts, eps=eps)
