"""Energy-function monitoring of completed runs: nonnegativity, decay, invariant sets."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .control import Gains, ModeKind


class StabilityError(ValueError):
    pass


@dataclass(frozen=True)
class LyapunovSample:
    t: float
    value: float
    mode: ModeKind

    def __post_init__(self):
        if self.value < 0:
            raise StabilityError(f"energy value {self.value} negative at t={self.t}")


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


def check_segment(samples: list[LyapunovSample], eps: float) -> SegmentVerdict:
    """Verdict for one constant-mode slice: discrete dV/dt <= eps throughout.

    The invariant set is reported when the slice ends in a persistent stretch
    (at least three samples) where |dV/dt| stays within eps.
    """
    if not samples:
        raise StabilityError("empty segment")
    modes = {s.mode for s in samples}
    if len(modes) > 1:
        raise StabilityError(f"segment contains a mode switch: {sorted(m.value for m in modes)}")
    times = np.array([s.t for s in samples])
    values = np.array([s.value for s in samples])
    vdot = discrete_derivative(times, values)
    max_vdot = float(vdot.max()) if len(vdot) else 0.0
    converged = bool(max_vdot <= eps)
    tail = 0
    for x in np.abs(vdot)[::-1]:
        if x <= eps:
            tail += 1
        else:
            break
    return SegmentVerdict(
        t_start=float(times[0]),
        t_end=float(times[-1]),
        mode=samples[0].mode,
        max_vdot=max_vdot,
        converged=converged,
        invariant_set_detected=tail >= min(3, len(samples)),
    )


def split_segments(samples: list[LyapunovSample]) -> list[list[LyapunovSample]]:
    """Slices between mode switches; segments tile the trace."""
    segments: list[list[LyapunovSample]] = []
    current: list[LyapunovSample] = []
    for s in samples:
        if current and s.mode != current[-1].mode:
            segments.append(current)
            current = []
        current.append(s)
    if current:
        segments.append(current)
    return segments


def evaluate_trace(samples: list[LyapunovSample], eps: float | None = None) -> StabilityReport:
    """Segment a completed run by mode and check every segment.

    eps defaults to 1e-9 times the largest energy value seen in the run.
    """
    if not samples:
        raise StabilityError("no samples to evaluate")
    if eps is None:
        eps = 1e-9 * max(s.value for s in samples)
    verdicts = tuple(check_segment(seg, eps) for seg in split_segments(samples))
    return StabilityReport(segments=verdicts, eps=eps)
