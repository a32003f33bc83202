"""Transition-matrix flows of a Laplacian process and their ergodicity metrics.

The flow solves dPhi/dt = -L(t) Phi with Phi(s, s) = I. Because columns
of L sum to zero, Phi stays column-stochastic; mixing is measured by the
distance of Phi(t, s) to the rank-one stochastic matrices, and the decay
rate of that distance classifies the flow. The spectral norm is used for
all matrix distances and is recorded in reports. Spans land on the step
grid by `graphnet.steps_in_span`, the rule runs and processes share.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
import numpy as np
from numpy.linalg import matrix_power

from .errors import InvalidInputError, NumericalFailureError
from .graphnet import DEFAULT_STEP, LaplacianProcess, check_switch_alignment, steps_in_span

# Stochasticity tolerance for healthy flows; constructor rejects at 100x.
TAU_FLOW = 1e-8

# Samples with distances below this are indistinguishable from rounding
# noise and are excluded from rate fits.
FIT_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class FlowMatrix:
    """The transition matrix Phi(t, s) of the mixing flow, t >= s."""

    s: float
    t: float
    Phi: np.ndarray

    def __post_init__(self):
        if self.t < self.s:
            raise InvalidInputError("flow requires t >= s")
        phi = np.asarray(self.Phi, dtype=float)
        if not np.all(np.isfinite(phi)):
            raise NumericalFailureError("flow matrix has non-finite entries", self.t)
        if phi.min() < -100 * TAU_FLOW:
            raise NumericalFailureError(
                f"flow entry {phi.min():.3e} far below zero", self.t
            )
        col_err = np.abs(phi.sum(axis=0) - 1.0).max()
        if col_err > 100 * TAU_FLOW:
            raise NumericalFailureError(
                f"flow column sums drifted by {col_err:.3e}", self.t
            )
        out = phi.copy()
        out.setflags(write=False)
        object.__setattr__(self, "Phi", out)

    @property
    def n(self) -> int:
        return self.Phi.shape[0]


def taylor_polynomial(a: np.ndarray, degree: int = 4, shift: int = 0) -> np.ndarray:
    """sum_{j=0..degree} a^j * shift! / (j + shift)!, by the recurrence
    term_j = term_{j-1} @ a / (j + shift).

    For a linear autonomous right side ds/dt = M s, the four RK4 stages
    collapse to this polynomial of a = hM with degree 4; iterating it is
    the RK4 trajectory. With degree 3 and shift 1 it is the factor that
    maps a constant forcing c to the RK4 step offset h * (...) @ c.
    """
    size = a.shape[0]
    out = np.eye(size)
    term = np.eye(size)
    for j in range(1, degree + 1):
        term = term @ a / (j + shift)
        out = out + term
    return out


class _FlowIntegrator:
    """Advances Phi(., s) forward through a process, reusing past work.

    `powers` maps (id(lap), steps) to the segment propagator
    taylor_polynomial(-h L)^steps; integrators of one process and one h
    may share it, and (id(lap), 1) holds the one-step propagator itself.
    """

    def __init__(
        self, process: LaplacianProcess, s: float, h: float, powers: dict | None = None
    ):
        check_switch_alignment(process, h)
        steps_in_span(s, h, f"start time {s}")
        self.process = process
        self.h = h
        self.t = s
        self.phi = np.eye(process.n)
        self._powers = {} if powers is None else powers

    def advance_to(self, t: float) -> np.ndarray:
        if t < self.t - 1e-12:
            raise InvalidInputError("flow integrator cannot move backwards")
        for lo, hi, lap in self.process.segments(self.t, t):
            steps = steps_in_span(hi - lo, self.h, "segment length")
            if steps == 0:
                continue
            power = self._powers.get((id(lap), steps))
            if power is None:
                prop = self._powers.get((id(lap), 1))
                if prop is None:
                    prop = self._powers[id(lap), 1] = taylor_polynomial(-self.h * lap.matrix)
                power = self._powers[id(lap), steps] = matrix_power(prop, steps)
            self.phi = power @ self.phi
        self.t = t
        return self.phi


def transition_matrix(
    process: LaplacianProcess, s: float, t: float, h: float = DEFAULT_STEP
) -> FlowMatrix:
    """Integrate the matrix flow from s to t with fixed step h.

    Switching instants of the process, as well as s and t themselves,
    must land on the integration grid.
    """
    if not (0 <= s <= t <= process.horizon):
        raise InvalidInputError(
            f"need 0 <= s <= t <= horizon, got s={s}, t={t}, horizon={process.horizon}"
        )
    if h <= 0:
        raise InvalidInputError("step h must be positive")
    integ = _FlowIntegrator(process, s, h)
    steps_in_span(t - s, h, "integration span")
    phi = integ.advance_to(t)
    return FlowMatrix(s, t, phi)


def _as_matrix(m) -> np.ndarray:
    if isinstance(m, FlowMatrix):
        return np.asarray(m.Phi)
    return np.asarray(m, dtype=float)


def distance_to_rank_one(m) -> float:
    """Upper bound on the spectral-norm distance to rank-one stochastic matrices.

    Projects onto pi 1^T with pi = (1/n) M 1 (the row means, a stochastic
    vector when M is column-stochastic). The value is zero exactly when M
    already has identical columns, and never underestimates the true
    distance.
    """
    mat = _as_matrix(m)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidInputError("expected a square matrix")
    if mat.min() < -100 * TAU_FLOW or np.abs(mat.sum(axis=0) - 1.0).max() > 100 * TAU_FLOW:
        raise InvalidInputError("matrix is not column-stochastic")
    pi = mat.mean(axis=1)
    return float(np.linalg.norm(mat - pi[:, None], 2))


def semigroup_defect(
    process: LaplacianProcess, s: float, r: float, t: float, h: float = DEFAULT_STEP
) -> float:
    """Spectral norm of Phi(t,r) Phi(r,s) - Phi(t,s); should be near zero."""
    if not (s <= r <= t):
        raise InvalidInputError("need s <= r <= t")
    phi_ts = transition_matrix(process, s, t, h).Phi
    phi_tr = transition_matrix(process, r, t, h).Phi
    phi_rs = transition_matrix(process, s, r, h).Phi
    return float(np.linalg.norm(phi_tr @ phi_rs - phi_ts, 2))


@dataclass(frozen=True)
class FlowGrid:
    """Sample layout for ergodicity reports: all (s, s + dt) pairs."""

    s_values: tuple[float, ...]
    dt_values: tuple[float, ...]

    def __post_init__(self):
        if not self.s_values or not self.dt_values:
            raise InvalidInputError("grid needs at least one start and one offset")
        if any(s < 0 for s in self.s_values):
            raise InvalidInputError("start times must be nonnegative")
        if any(dt <= 0 for dt in self.dt_values):
            raise InvalidInputError("offsets must be positive")


def _grid(process: LaplacianProcess, h: float, dt_max: float) -> FlowGrid:
    """Starts at 0, 1/4 and 1/2 of the horizon and 12 spans up to dt_max, on the h grid."""
    horizon = process.horizon

    def snap(x: float) -> float:
        return round(x / h) * h

    s_vals = sorted({snap(x) for x in (0.0, horizon / 4, horizon / 2)})
    dt_raw = np.linspace(dt_max / 12, dt_max, 12)
    dt_vals = sorted({snap(x) for x in dt_raw if snap(x) > 0})
    return FlowGrid(tuple(s_vals), tuple(dt_vals))


def default_grid(process: LaplacianProcess, h: float = DEFAULT_STEP) -> FlowGrid:
    """Three start times and a dozen spans up to half the horizon."""
    return _grid(process, h, process.horizon / 2)


def adaptive_grid(
    process: LaplacianProcess,
    h: float = DEFAULT_STEP,
    decay_floor: float = 1e-10,
    powers: dict | None = None,
) -> FlowGrid:
    """Grid whose spans stop where the flow's mixing bottoms out.

    Probes the distance decay of Phi(t, 0) and caps the span range where
    the distance first drops below `decay_floor` (fast mixers would
    otherwise only be sampled in the rounding-noise regime on long
    horizons, while slow mixers still get the full half-horizon range).
    `powers` is a propagator cache shared with other flow integrations
    of the same process and h (see `_FlowIntegrator`).
    """
    cap = process.horizon / 2
    stride = max(1, int(round(min(0.5, cap / 12) / h)))
    integ = _FlowIntegrator(process, 0.0, h, powers)
    t = 0.0
    dt_max = cap
    while t + stride * h <= cap + 1e-12:
        t = round((t + stride * h) / h) * h
        phi = integ.advance_to(t)
        if distance_to_rank_one(FlowMatrix(0.0, t, phi)) < decay_floor:
            dt_max = t
            break
    return _grid(process, h, dt_max)


@dataclass(frozen=True, eq=False)
class ErgodicityReport:
    """Distance-decay samples of a flow and the fitted exponential envelope.

    rate is the per-unit-time decay factor (lambda in (0,1) for mixing
    flows); prefactor scales the envelope; p_star is the smallest row sum
    seen, which certifies the class-P* property when positive.
    """

    samples: tuple[tuple[float, float], ...]
    distances: tuple[float, ...]
    rate: float | None
    prefactor: float | None
    r_squared: float | None
    p_star: float
    log_decay_span: float | None = None
    norm: str = "spectral"

    def weakly_exponentially_ergodic(self, r2_min: float = 0.99) -> bool:
        """Classify the flow from the fit.

        Requires a clean fit (r-squared) with rate below 1 and at least
        one e-fold of observed decay across the grid; the last condition
        rejects flat distance profiles whose near-zero slope would
        otherwise masquerade as a rate just under 1.
        """
        return (
            self.rate is not None
            and 0.0 < self.rate < 1.0
            and self.r_squared is not None
            and self.r_squared >= r2_min
            and self.log_decay_span is not None
            and self.log_decay_span >= 1.0
        )

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "weakly_exponentially_ergodic": self.weakly_exponentially_ergodic(),
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["s", "t", "distance"])
            for (s, t), d in zip(self.samples, self.distances):
                writer.writerow([f"{s:.17g}", f"{t:.17g}", f"{d:.17g}"])


def _fit_rate(spans: np.ndarray, dists: np.ndarray) -> tuple[float | None, float | None, float | None]:
    usable = dists > FIT_FLOOR
    if usable.sum() < 3:
        return None, None, None
    x = spans[usable]
    y = np.log(dists[usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot <= 1e-30:
        r2 = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(math.exp(slope)), float(math.exp(intercept)), r2


def ergodicity_report(
    process: LaplacianProcess,
    h: float = DEFAULT_STEP,
    grid: FlowGrid | None = None,
) -> ErgodicityReport:
    """Sample the flow on a grid and fit its exponential mixing envelope.

    The rate fit regresses log-distance on span over all samples above
    FIT_FLOOR; fewer than 3 usable samples yields a report with no rate.
    Row-sum minima within TAU_FLOW of 1 are reported as exactly 1 so that
    doubly stochastic flows certify p* = 1.
    """
    powers: dict = {}  # one propagator cache for every integrator below
    if grid is None:
        grid = adaptive_grid(process, h, powers=powers)
    samples: list[tuple[float, float]] = []
    dists: list[float] = []
    p_star = math.inf
    ones = np.ones(process.n)
    for s in grid.s_values:
        targets = [s + dt for dt in sorted(grid.dt_values) if s + dt <= process.horizon + 1e-12]
        if not targets:
            continue
        integ = _FlowIntegrator(process, s, h, powers)
        for t in targets:
            t = min(t, process.horizon)
            phi = integ.advance_to(t)
            flow = FlowMatrix(s, t, phi)
            samples.append((s, t))
            dists.append(distance_to_rank_one(flow))
            p_star = min(p_star, float((flow.Phi @ ones).min()))
    if not samples:
        raise InvalidInputError("grid produced no samples inside the horizon")
    if abs(p_star - 1.0) <= TAU_FLOW:
        p_star = 1.0
    spans = np.array([t - s for s, t in samples])
    dist_arr = np.array(dists)
    rate, prefactor, r2 = _fit_rate(spans, dist_arr)
    usable = dist_arr > FIT_FLOOR
    if usable.any():
        logs = np.log(dist_arr[usable])
        decay_span = float(logs.max() - logs.min())
    else:
        decay_span = None
    return ErgodicityReport(
        samples=tuple(samples),
        distances=tuple(dists),
        rate=rate,
        prefactor=prefactor,
        r_squared=r2,
        p_star=p_star,
        log_decay_span=decay_span,
    )
