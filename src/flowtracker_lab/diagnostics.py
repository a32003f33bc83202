"""Numerical verification of tracking and convergence properties on recorded runs.

Each check turns one analytic statement into a finite-sample test whose
tolerance covers only discretization error: central differences for
derivatives (second-order in the record interval), trapezoid quadrature
for integrals, with the relevant higher-difference magnitudes estimated
from the data itself.

Norm conventions: per-agent errors use the Euclidean row norm; stacked
blocks use the induced spectral norm. The observer envelope scales its
initial-state term by the worst row of x(0) so that a pure free decay
fits the envelope with constant 1, while the input term keeps the
stacked norm of u.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import CapabilityError, InvalidInputError
from .flowcore import write_tables
from .objectives import ObjectiveFamily, gradient_bound
from .schedules import StepSchedule, evaluate_many, trapezoids
from .simulate import Trajectory

TOL_INEQ_BASE = 1e-6
GAP_TAIL_TOL = 1e-3
WEIGHT_TOL = 1e-8

# fewest records the checks that take central differences read
MIN_DIFF_RECORDS = 5


def _row_norms(block: np.ndarray) -> np.ndarray:
    # (m, n, d) -> (m, n) Euclidean norms of each agent row
    return np.sqrt((block * block).sum(axis=2))


def _stacked_norms(block: np.ndarray) -> np.ndarray:
    # (m, n, d) -> (m,) spectral norms; d = 1 reduces to the vector norm
    if block.shape[2] == 1:
        return np.linalg.norm(block[:, :, 0], axis=1)
    return np.linalg.norm(block, 2, axis=(1, 2))


def consensus_error(traj: Trajectory) -> np.ndarray:
    """e(t_k) = max_i ||y_i(t_k) - xbar(t_k)||."""
    return _row_norms(traj.y - traj.xbar[:, None, :]).max(axis=1)


def lyapunov_series(traj: Trajectory, x_star: np.ndarray) -> np.ndarray:
    """V(t_k) = 0.5 ||xbar(t_k) - x*||^2."""
    delta = traj.xbar - np.asarray(x_star, dtype=float)[None, :]
    return 0.5 * (delta * delta).sum(axis=1)


def objective_series(traj: Trajectory, family: ObjectiveFamily) -> np.ndarray:
    """F(xbar(t_k)) for every sample, in one array pass."""
    return family.objective(traj.xbar)


@dataclass(frozen=True)
class InputTrackingReport:
    residuals: np.ndarray
    tolerance: float
    passed: bool
    c1: float

    def to_dict(self) -> dict:
        return {
            "max_residual": float(self.residuals.max()) if self.residuals.size else 0.0,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "c1": self.c1,
        }


def input_tracking_check(traj: Trajectory, c1: float | None = None) -> InputTrackingReport:
    """Does the sampled average obey d/dt xbar = c1 * sum_i u_i?

    Central differences of xbar are compared against the scaled input
    sum; the tolerance is 10 * dt^2 times the observed curvature of that
    sum, sixty-fold looser than the leading central-difference error.
    Needs full-resolution records.
    """
    if not traj.is_full_resolution:
        raise CapabilityError(
            "input tracking compares derivatives; record at full resolution"
        )
    if traj.n_samples < MIN_DIFF_RECORDS:
        raise InvalidInputError(f"need at least {MIN_DIFF_RECORDS} samples")
    if c1 is None:
        c1 = traj.meta.get("c1", 1.0 / traj.n)
    dt = traj.record_interval
    g = c1 * traj.u.sum(axis=1)  # (m, d)
    deriv = (traj.xbar[2:] - traj.xbar[:-2]) / (2 * dt)
    residuals = np.linalg.norm(deriv - g[1:-1], axis=1)
    curvature = np.linalg.norm(g[2:] - 2 * g[1:-1] + g[:-2], axis=1) / dt**2
    tol = 10.0 * dt**2 * (curvature.max() if curvature.size else 0.0) + 1e-12
    return InputTrackingReport(residuals, tol, bool(residuals.max() <= tol), c1)


@dataclass(frozen=True)
class ObserverBoundReport:
    c2_min: float
    violations: int
    infeasible: bool
    rate: float
    declared_c2: float | None = None

    to_dict = asdict


def observer_bound_fit(
    traj: Trajectory, rate: float, declared_c2: float | None = None
) -> ObserverBoundReport:
    """Fit the smallest c2 with e(t) <= c2 * (rate^t ||x(0)|| + int rate^(t-s) ||u||).

    The envelope integral uses an exact-kernel trapezoid recurrence on
    the record grid. When a declared c2 is supplied, samples exceeding
    the declared envelope are counted as violations.
    """
    if not (0.0 < rate < 1.0):
        raise InvalidInputError("rate must lie strictly inside (0, 1)")
    err = consensus_error(traj)
    x0_worst_row = float(np.linalg.norm(traj.x[0], axis=1).max())
    u_norms = _stacked_norms(traj.u)
    dt = traj.record_interval
    m = traj.n_samples
    lam_dt = rate**dt
    envelope = np.empty(m)
    envelope[0] = x0_worst_row
    forced = 0.0
    for k in range(1, m):
        forced = lam_dt * forced + 0.5 * dt * (lam_dt * u_norms[k - 1] + u_norms[k])
        envelope[k] = rate ** float(traj.times[k]) * x0_worst_row + forced
    tiny = 1e-250
    usable = envelope > tiny
    infeasible = bool(np.any(~usable & (err > 1e-12)))
    if np.any(usable):
        c2_min = float((err[usable] / envelope[usable]).max())
    else:
        c2_min = 0.0
    violations = 0
    if declared_c2 is not None:
        slack = declared_c2 * envelope * (1 + 1e-12) + 1e-15
        violations = int(np.count_nonzero(err > slack))
    return ObserverBoundReport(c2_min, violations, infeasible, rate, declared_c2)


def _h_integrand(traj: Trajectory, cap: float, schedule: StepSchedule) -> np.ndarray:
    # 2 K alpha(t) sum_i ||xbar(t) - y_i(t)|| at every sample
    if not traj.is_full_resolution:
        raise CapabilityError("h-function quadrature needs full-resolution records")
    alphas = evaluate_many(schedule, traj.times)
    return 2.0 * cap * alphas * _row_norms(traj.y - traj.xbar[:, None, :]).sum(axis=1)


def _cumulative_trapezoid(g: np.ndarray, d) -> np.ndarray:
    # the trapezoid integral of g from its first sample to each sample
    return np.concatenate(([0.0], np.cumsum(trapezoids(g, d))))


def h_function(traj: Trajectory, cap: float, schedule: StepSchedule) -> np.ndarray:
    """Cumulative trapezoid of 2 K sum_i alpha(s) ||xbar(s) - y_i(s)||.

    Nondecreasing by construction; bounded exactly when the step-size
    conditions hold. Needs full-resolution records so the quadrature
    error stays inside the inequality tolerances.
    """
    return _cumulative_trapezoid(_h_integrand(traj, cap, schedule), traj.record_interval)


def _trapezoid_error_estimate(g: np.ndarray, dt: float) -> float:
    if g.shape[0] < 3:
        return 0.0
    second = np.abs(g[2:] - 2 * g[1:-1] + g[:-2])
    return float(dt * second.max() / 12.0)


@dataclass(frozen=True)
class InequalityReport:
    """Worst margin of a sampled inequality against its tolerance."""

    passed: bool
    worst_margin: float
    tolerance: float

    to_dict = asdict


def v_dominated_by_h_check(
    traj: Trajectory, x_star: np.ndarray, cap: float, schedule: StepSchedule
) -> InequalityReport:
    """Increments of V(xbar) never exceed increments of the h-function.

    Checking adjacent sample pairs suffices: summing adjacent increments
    reproduces the inequality for any pair t1 < t2.
    """
    v = lyapunov_series(traj, x_star)
    g = _h_integrand(traj, cap, schedule)
    dh = np.diff(_cumulative_trapezoid(g, traj.record_interval))
    tol = TOL_INEQ_BASE + _trapezoid_error_estimate(g, traj.record_interval)
    margins = np.diff(v) - dh
    worst = float(margins.max()) if margins.size else 0.0
    return InequalityReport(bool(worst <= tol), worst, tol)


def vdot_bound_check(
    traj: Trajectory,
    family: ObjectiveFamily,
    schedule: StepSchedule,
    x_star: np.ndarray,
    f_star: float,
    c1: float | None = None,
) -> InequalityReport:
    """Pointwise derivative bound on the Lyapunov value along the run:

        dV/dt <= c1 * (2 K alpha(t) sum_i ||xbar - y_i|| - alpha(t) (F(xbar) - F*))

    The c1 factor reflects that the state average integrates c1 times the
    input sum; dropping it (as in a unit-gain normalization) would make
    the bound fail whenever the optimality gap dominates the consensus
    spread. The derivative is a central difference; the tolerance scales
    with the record interval squared times an estimated third derivative.
    """
    if traj.n_samples < MIN_DIFF_RECORDS:
        raise InvalidInputError(f"need at least {MIN_DIFF_RECORDS} samples")
    if c1 is None:
        c1 = traj.meta.get("c1", 1.0 / traj.n)
    cap = gradient_bound(family)
    v = lyapunov_series(traj, x_star)
    dt = traj.record_interval
    vdot = (v[2:] - v[:-2]) / (2 * dt)
    alphas = evaluate_many(schedule, traj.times)
    spread = _row_norms(traj.y - traj.xbar[:, None, :]).sum(axis=1)
    gaps = objective_series(traj, family) - f_star
    rhs = c1 * (2.0 * cap * alphas * spread - alphas * gaps)
    third = np.abs(v[4:] - 2 * v[3:-1] + 2 * v[1:-3] - v[:-4]) / (2 * dt**3)
    tol = 10.0 * dt**2 * (third.max() if third.size else 0.0) + 1e-9
    margins = vdot - rhs[1:-1]
    worst = float(margins.max()) if margins.size else 0.0
    return InequalityReport(bool(worst <= tol), worst, tol)


@dataclass(frozen=True)
class GapIntegralReport:
    final_value: float
    bounded: bool
    tail_change: float
    integrand_min: float
    passed: bool

    to_dict = asdict


def gap_integral_check(
    traj: Trajectory,
    family: ObjectiveFamily,
    schedule: StepSchedule,
    f_star: float,
) -> GapIntegralReport:
    """Partial integral of alpha(s) (F(xbar(s)) - F*): nonnegative integrand
    and a settled tail (change over the last time decade below GAP_TAIL_TOL)."""
    alphas = evaluate_many(schedule, traj.times)
    gaps = objective_series(traj, family) - f_star
    integrand = alphas * gaps
    partial = _cumulative_trapezoid(integrand, np.diff(traj.times))
    t_end = float(traj.times[-1])
    window = traj.times >= t_end / 10.0
    tail_vals = partial[window]
    tail_change = float(tail_vals.max() - tail_vals.min()) if tail_vals.size else 0.0
    integrand_min = float(integrand.min())
    bounded = tail_change < GAP_TAIL_TOL
    passed = bounded and integrand_min >= -TOL_INEQ_BASE
    return GapIntegralReport(float(partial[-1]), bounded, tail_change, integrand_min, passed)


def weight_conservation_check(traj: Trajectory) -> dict:
    """The ratio-weight block's agent sums, named by traj.meta["ratio"],
    must stay at the agent count along the run; {} without a ratio block."""
    name = traj.meta.get("ratio")
    if name is None:
        return {}
    drift = float(np.abs(traj.aux[name].sum(axis=1) - traj.n).max())
    return {name: {"max_drift": drift, "passed": drift <= WEIGHT_TOL}}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    to_dict = asdict


@dataclass(frozen=True, eq=False)
class DiagnosticsReport:
    """Aggregated series and pass/fail verdicts for one trajectory."""

    times: np.ndarray
    series: dict[str, np.ndarray]
    checks: dict[str, CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks.values())

    def to_dict(self) -> dict:
        return {
            "series_names": sorted(self.series),
            "checks": {name: c.to_dict() for name, c in self.checks.items()},
            "all_passed": self.all_passed,
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    def write_series_csv(self, directory) -> list[str]:
        written = [f"{directory}/{name.replace(' ', '_')}.csv" for name in self.series]
        # one pass over the files, which format their shared t column once
        tables = [
            (path, ["t", name], [self.times, values])
            for path, (name, values) in zip(written, self.series.items())
        ]
        write_tables(tables, "\r\n")
        return written
