"""Step-size schedules and the integral conditions they must satisfy.

A usable schedule is a nonincreasing alpha: [0, inf) -> (0, 1] whose
integral diverges while its square integrates finitely: the gradient
feedback keeps being excited but its injected noise-like disagreement is
summable. Power laws a0/(1+t)^p satisfy this exactly for p in (1/2, 1].
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError, check_known

LEMMA_STEP = 1e-2
LEMMA_TOL = 1e-4
WINDOW_END = 1e3


@dataclass(frozen=True, eq=False)
class StepSchedule:
    """Piecewise description of alpha(t); values always lie in (0, 1]. A
    custom schedule takes values[k] from times[k] until the next time."""

    kind: str
    a0: float = 1.0
    p: float = 0.0
    times: tuple[float, ...] = ()
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in SCHEDULES:
            raise InvalidInputError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "custom-piecewise":
            times, values = self.times, self.values
            if len(times) != len(values):
                raise InvalidInputError("times and values must have equal length")
            if not times:
                raise InvalidInputError("custom schedule needs pieces")
            if times[0] != 0.0 or any(b <= a for a, b in zip(times, times[1:])):
                raise InvalidInputError("piece times must increase strictly from 0")
            if any(not (0 < v <= 1) for v in values):
                raise InvalidInputError("schedule values must lie in (0, 1]")
        else:
            if not (0 < self.a0 <= 1):
                raise InvalidInputError("a0 must lie in (0, 1]")
            if self.p < 0:
                raise InvalidInputError("exponent p must be nonnegative")

    def __call__(self, t: float) -> float:
        return evaluate(self, t)


def power_law(a0: float = 1.0, p: float = 1.0) -> StepSchedule:
    return StepSchedule("power-law", a0=a0, p=p)


def constant(a0: float) -> StepSchedule:
    return StepSchedule("constant", a0=a0)


def custom_piecewise(times: Sequence[float], values: Sequence[float]) -> StepSchedule:
    return StepSchedule(
        "custom-piecewise", times=tuple(map(float, times)), values=tuple(map(float, values))
    )


SCHEDULES = {"power-law": power_law, "constant": constant, "custom-piecewise": custom_piecewise}


def evaluate(schedule: StepSchedule, t: float) -> float:
    """alpha(t); the last custom piece persists beyond its start."""
    if t < 0:
        raise InvalidInputError("schedules are defined for t >= 0")
    if schedule.kind == "constant":
        return schedule.a0
    if schedule.kind == "power-law":
        return schedule.a0 / (1.0 + t) ** schedule.p
    return schedule.values[bisect_right(schedule.times, t) - 1]


def evaluate_many(schedule: StepSchedule, times) -> np.ndarray:
    """alpha at every entry of `times`, as array operations."""
    ts = np.asarray(times, dtype=float)
    if np.any(ts < 0):
        raise InvalidInputError("schedules are defined for t >= 0")
    if schedule.kind == "constant":
        return np.full(ts.shape, schedule.a0)
    if schedule.kind == "power-law":
        return schedule.a0 / (1.0 + ts) ** schedule.p
    values = np.array(schedule.values)
    return values[np.searchsorted(schedule.times, ts, side="right") - 1]


@dataclass(frozen=True)
class ScheduleReport:
    nonincreasing: bool
    integral_divergent: bool
    square_integrable: bool
    valid: bool
    method: str  # "analytic" or "heuristic"

    to_dict = asdict


def trapezoids(y: np.ndarray, d) -> np.ndarray:
    """Trapezoid terms d (y[k] + y[k+1]) / 2, d scalar or np.diff(x), as scipy forms them."""
    return d * (y[1:] + y[:-1]) / 2.0


def _window_integrals(schedule: StepSchedule, power: float) -> tuple[float, float]:
    """Contributions of alpha^power over [T/4, T/2] and [T/2, T], T = WINDOW_END."""
    grid1 = np.linspace(WINDOW_END / 4, WINDOW_END / 2, 2001)
    grid2 = np.linspace(WINDOW_END / 2, WINDOW_END, 4001)
    return tuple(
        float(np.sum(trapezoids(evaluate_many(schedule, grid) ** power, np.diff(grid))))
        for grid in (grid1, grid2)
    )


def check_validity(schedule: StepSchedule) -> ScheduleReport:
    """Classify a schedule against the step-size conditions.

    Power-law and constant kinds are decided analytically; custom
    piecewise schedules are classified from numeric window integrals and
    the report is marked heuristic. A doubling window whose contribution
    stops shrinking signals a divergent integral.
    """
    if schedule.kind == "power-law":
        divergent = schedule.p <= 1.0
        square = schedule.p > 0.5
        return ScheduleReport(True, divergent, square, divergent and square, "analytic")
    if schedule.kind == "constant":
        return ScheduleReport(True, True, False, False, "analytic")
    values = schedule.values
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    i1, i2 = _window_integrals(schedule, 1.0)
    divergent = i2 >= 0.95 * i1
    s1, s2 = _window_integrals(schedule, 2.0)
    square = s2 < 0.95 * s1
    return ScheduleReport(
        nonincreasing, divergent, square, nonincreasing and divergent and square, "heuristic"
    )


# --- the auxiliary integral inequality --------------------------------------


@dataclass(frozen=True)
class LemmaAuxResult:
    """Outcome of the weighted-convolution bound check.

    lhs is the double integral of alpha(t) lambda^(t-s) beta(s); rhs is
    the tight envelope ((1-lambda)/|log lambda|) <alpha, beta>. The tight
    constant is sharp only when beta decays at least as fast as the
    kernel; safe_rhs = <alpha, beta>/|log lambda| bounds lhs for every
    admissible pair and is reported alongside.
    """

    lhs: float
    rhs: float
    holds: bool
    safe_rhs: float
    tolerance: float

    to_dict = asdict


def _as_function(beta) -> Callable[[np.ndarray], np.ndarray]:
    if callable(beta):
        return lambda t: np.asarray(beta(t), dtype=float)
    table = np.asarray(beta, dtype=float)
    if table.ndim != 2 or table.shape[1] != 2:
        raise InvalidInputError("beta table must be an (m, 2) array of (t, value) rows")
    ts, vs = table[:, 0], table[:, 1]
    if np.any(np.diff(ts) <= 0):
        raise InvalidInputError("beta table times must increase")
    return lambda t: np.interp(np.asarray(t, dtype=float), ts, vs)


def _simpson(y: np.ndarray, h: float) -> float:
    return float((h / 3) * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum()))


def lemma_aux_check(alpha, beta, lam: float, t_max: float) -> LemmaAuxResult:
    """Quadrature check of the exponentially weighted integral bound.

    Computes lhs = int_0^T alpha(t) int_0^t lambda^(t-s) beta(s) ds dt by
    composite Simpson (the inner convolution by an exact-kernel
    recurrence) and compares against rhs = ((1-lambda)/|log lambda|)
    int_0^T alpha beta, within LEMMA_TOL, on a grid of step near LEMMA_STEP.

    Parameters
    ----------
    alpha : StepSchedule or callable
        Must be nonincreasing; validated on the quadrature grid.
    beta : callable or (m, 2) table of (t, value) rows
        Nonnegative driving function; tables are linearly interpolated.
    lam : float
        Kernel base, strictly inside (0, 1).
    t_max : float
        Truncation horizon of both integrals.
    """
    if not (0.0 < lam < 1.0):
        raise InvalidInputError("lambda must lie strictly inside (0, 1)")
    if t_max <= 0:
        raise InvalidInputError("t_max must be positive")
    alpha_f = alpha if callable(alpha) and not isinstance(alpha, StepSchedule) else (
        lambda t, s=alpha: evaluate_many(s, t)
    )
    beta_f = _as_function(beta)

    n = int(round(t_max / LEMMA_STEP))
    if n % 2:
        n += 1
    h = t_max / n
    t = np.arange(n + 1) * h
    a = np.asarray(alpha_f(t), dtype=float).reshape(-1)
    b = np.asarray(beta_f(t), dtype=float).reshape(-1)
    b_mid = np.asarray(beta_f(t[:-1] + h / 2), dtype=float).reshape(-1)

    if np.any(np.diff(a) > 1e-12 * max(1.0, float(np.abs(a).max()))):
        raise InvalidInputError("alpha must be nonincreasing")
    if np.any(b < -1e-12) or np.any(b_mid < -1e-12):
        raise InvalidInputError("beta must be nonnegative")

    mu = abs(math.log(lam))
    lam_h = lam**h
    lam_h2 = lam ** (h / 2)
    conv = np.zeros(n + 1)
    for k in range(n):
        conv[k + 1] = lam_h * conv[k] + (h / 6) * (
            lam_h * b[k] + 4 * lam_h2 * b_mid[k] + b[k + 1]
        )
    lhs = _simpson(a * conv, h)
    inner = _simpson(a * b, h)
    rhs = (1.0 - lam) / mu * inner
    safe_rhs = inner / mu
    return LemmaAuxResult(lhs, rhs, lhs <= rhs + LEMMA_TOL, safe_rhs, LEMMA_TOL)


# --- serialization ----------------------------------------------------------


def schedule_from_dict(data: dict) -> StepSchedule:
    """The schedule a dict describes; harness guards against a malformed one."""
    rest = dict(data)
    kind = rest.pop("kind")
    check_known(kind, tuple(SCHEDULES), "schedule kind")
    return SCHEDULES[kind](**rest)
