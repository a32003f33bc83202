"""Transition-matrix flows of a Laplacian process and their ergodicity metrics.

The flow solves dPhi/dt = -L(t) Phi with Phi(s, s) = I. Because columns
of L sum to zero, Phi stays column-stochastic; mixing is measured by the
distance of Phi(t, s) to the rank-one stochastic matrices, and the decay
rate of that distance classifies the flow. The spectral norm is used for
all matrix distances and is recorded in reports. Spans land on the step
grid by `graphnet.steps_in_span`, the rule runs and processes share.
`rk4_maps` is the one RK4 kernel: a piece's propagator is its map of the
field -L, and the simulator's affine path takes its step maps from it and
its step grid, whose maps advance its ratio weights, from `Propagators`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import ExitStack
from dataclasses import asdict, dataclass
from itertools import islice

import numpy as np
from numpy.linalg import matrix_power

from .errors import InvalidInputError, NumericalFailureError
from .graphnet import DEFAULT_STEP, LaplacianProcess, check_switch_alignment, steps_in_span

# Stochasticity tolerance for healthy flows; constructor rejects at 100x.
TAU_FLOW = 1e-8

# Samples with distances below this are indistinguishable from rounding
# noise and are excluded from rate fits, which must reach r-squared R2_MIN
# for a weakly exponentially ergodic verdict.
FIT_FLOOR = 1e-14
R2_MIN = 0.99


# Byte budget of one stack of propagators. Stacked matrix powers beat a
# Python loop while the stack stays in cache: for 120 pieces a stacked
# matrix_power took 0.7 ms against 4.5 ms looped at n = 12, but at n = 64
# stacks of 4 took 18.1 ms against 29.7 ms as one 3.9 MB stack.
STACK_BYTES = 128 * 1024

# Most adaptive-grid probes checked and measured per call; a chunk runs
# past the probe where the grid stops by fewer than PROBE_CHUNK probes.
PROBE_CHUNK = 8

# An adaptive grid probes at most MAX_PROBES times: at the 0.5 spacing that
# covers every horizon up to 1024, and a flow still above DECAY_FLOOR after
# them gets the full half-horizon range, as one that never falls below it.
DECAY_FLOOR = 1e-10
MAX_PROBES = 1024


def _flow_problem(phis: np.ndarray) -> tuple[int, str | None]:
    """(index, message) of the first matrix of a (k, n, n) stack that is
    not a healthy flow (non-finite, an entry far below zero or a column
    sum far from 1), or (k, None) when every one is."""
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(phis).all(axis=(1, 2))
        low = phis.min(axis=(1, 2))
        col_err = np.abs(phis.sum(axis=1) - 1.0).max(axis=1)
        bad = ~finite | (low < -100 * TAU_FLOW) | (col_err > 100 * TAU_FLOW)
    if not bad.any():
        return len(phis), None
    j = int(bad.argmax())
    if not finite[j]:
        return j, "flow matrix has non-finite entries"
    if low[j] < -100 * TAU_FLOW:
        return j, f"flow entry {low[j]:.3e} far below zero"
    return j, f"flow column sums drifted by {col_err[j]:.3e}"


def _check_flows(phis: np.ndarray, times) -> None:
    """NumericalFailureError at the time of the first unhealthy flow of the stack."""
    j, problem = _flow_problem(phis)
    if problem is not None:
        raise NumericalFailureError(problem, times[j])


def _distances(mats: np.ndarray) -> np.ndarray:
    """Spectral norm of M - pi 1^T for each M of a stack, pi the row means:
    the square root of the largest eigenvalue of the Gram matrix D^T D.
    `ergodicity_report` measures its samples with it, and `_below_floor`
    the adaptive grid's probes that its Frobenius bounds leave undecided."""
    d = mats - mats.mean(axis=-1, keepdims=True)
    gram = np.swapaxes(d, -1, -2) @ d
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))


def _below_floor(mats: np.ndarray) -> np.ndarray:
    """`_distances(mats) < DECAY_FLOOR`, mostly without an eigenvalue problem.

    D = M - pi 1^T has D 1 = 0, so rank D <= n - 1 and its Frobenius norm
    F bounds the spectral one: ||D||_2 <= F <= sqrt(n - 1) ||D||_2. F
    below the floor, or above sqrt(n - 1) times it, by a relative 1e-6
    that the rounding of either norm (about n^2 eps) never reaches,
    settles a matrix; one left in the band between sends the whole stack
    to `_distances`.
    """
    d = mats - mats.mean(axis=-1, keepdims=True)
    f = np.linalg.norm(d, axis=(-2, -1))
    below = f < DECAY_FLOOR * (1 - 1e-6)
    above = f > math.sqrt(mats.shape[-1] - 1) * DECAY_FLOOR * (1 + 1e-6)
    if (below | above).all():
        return below
    return _distances(mats) < DECAY_FLOOR


@dataclass(frozen=True, eq=False)
class FlowMatrix:
    """The transition matrix Phi(t, s) of the mixing flow, t >= s."""

    s: float
    t: float
    Phi: np.ndarray

    def __post_init__(self):
        if self.t < self.s:
            raise InvalidInputError("flow requires t >= s")
        out = np.array(self.Phi, dtype=float)
        _check_flows(out[None], [self.t])
        out.setflags(write=False)
        object.__setattr__(self, "Phi", out)


def rk4_maps(
    f1: np.ndarray, f2: np.ndarray, f3: np.ndarray, f4: np.ndarray, h: float
) -> np.ndarray:
    """Exact RK4 one-step maps of the linear fields ds/dt = F s whose
    values at the four stages are f1 ... f4, as a stack (k, m, m) or a
    single (m, m).

    Iterating the map is the RK4 trajectory. A constant field passes one
    matrix four times; a field that depends on time gives its values at
    t, t + h/2, t + h/2 and t + h, and a ratio system's gives the two
    midpoint stages different weights. An affine field s' = M s + c is
    the linear field [[M, c], [0, 0]] on (s, 1), whose map is [[R, r],
    [0, 1]] with s -> R s + r the RK4 step.
    """
    eye = np.eye(f1.shape[-1])
    k2 = f2 @ (eye + (0.5 * h) * f1)
    k3 = f3 @ (eye + (0.5 * h) * k2)
    k4 = f4 @ (eye + h * k3)
    # eye + h/6 (f1 + 2 k2 + 2 k3 + k4), accumulated in k2
    k2 *= 2.0
    k2 += f1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= h / 6.0
    k2 += eye
    return k2


class Propagators:
    """The step grid of a process and h, and the RK4 propagators of its pieces.

    The entry of every flow computation and the step grid of every
    simulator run: rejects a step h that is not finite and positive, checks
    switch alignment once and keeps the step index where each piece
    starts, so walks along the grid take integer steps. Maps (distinct
    piece, steps) to R^steps, where R = rk4_maps(-L, -L, -L, -L, h) is the
    one-step propagator kept at (piece, 1); `build` makes the missing ones
    in stacks of `per_stack` matrices, at most STACK_BYTES, and `power`
    makes a single missing one.
    """

    def __init__(self, process: LaplacianProcess, h: float):
        if not (math.isfinite(h) and h > 0):
            raise InvalidInputError(f"flow step h must be finite and positive, got {h}")
        self.firsts = check_switch_alignment(process, h)
        self.process = process
        self.h = h
        self.per_stack = max(1, STACK_BYTES // (8 * process.n**2))
        self._powers: dict = {}

    def legs(self, i0: int, i1: int):
        """(distinct piece, steps) of each piece on the walk from step i0 to i1."""
        if i1 <= i0:
            return
        firsts = self.firsts
        last = len(firsts) - 1
        for k in range(bisect_right(firsts, i0) - 1, last + 1):
            if firsts[k] >= i1:
                break
            hi = i1 if k == last else min(firsts[k + 1], i1)
            yield self.process.distinct[k], hi - max(firsts[k], i0)

    def build(self, legs) -> None:
        """Make the missing propagators of (piece, steps) legs: the
        one-step ones first, then each power, in stacks of STACK_BYTES."""
        groups: dict[int, dict] = {1: {}}
        for piece, steps in legs:
            for m in {1, steps}:
                if (piece, m) not in self._powers:
                    groups.setdefault(m, {})[piece] = None
        for steps, pieces in groups.items():
            pieces = list(pieces)
            for lo in range(0, len(pieces), self.per_stack):
                chunk = pieces[lo : lo + self.per_stack]
                if steps == 1:
                    field = -self.process.matrices[chunk]
                    stack = rk4_maps(field, field, field, field, self.h)
                else:
                    ones = np.stack([self._powers[piece, 1] for piece in chunk])
                    stack = matrix_power(ones, steps)
                for piece, power in zip(chunk, stack):
                    self._powers[piece, steps] = power

    def power(self, piece: int, steps: int) -> np.ndarray:
        key = (piece, steps)
        if key not in self._powers:
            self.build([key])
        return self._powers[key]


class _FlowIntegrator:
    """Advances Phi(., s) along the step grid of `props` from step `start`."""

    def __init__(self, props: Propagators, start: int):
        self.props = props
        self.i = start
        self.phi = np.eye(props.process.n)

    def legs(self, targets):
        """The legs of the walk through the increasing step indices `targets`."""
        for i0, i1 in zip([self.i, *targets], targets):
            yield from self.props.legs(i0, i1)

    def advance_to(self, i: int) -> np.ndarray:
        for piece, steps in self.props.legs(self.i, i):
            self.phi = self.props.power(piece, steps) @ self.phi
        self.i = i
        return self.phi

    def flows(self, targets) -> np.ndarray:
        """Phi at each of the increasing step indices `targets`, as one stack."""
        out = np.empty((len(targets), *self.phi.shape))
        for j, i in enumerate(targets):
            out[j] = self.advance_to(i)
        return out


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
    integ = _FlowIntegrator(Propagators(process, h), steps_in_span(s, h, f"start time {s}"))
    phi = integ.advance_to(steps_in_span(t, h, f"end time {t}"))
    return FlowMatrix(s, t, phi)


def _grid(process: LaplacianProcess, h: float, dt_max: float) -> tuple[tuple, tuple]:
    """(starts, spans) of a report's samples: starts at 0, 1/4 and 1/2 of
    the horizon and 12 spans up to dt_max, on the h grid, each increasing."""
    horizon = process.horizon

    def snap(x: float) -> float:
        return round(x / h) * h

    starts = sorted({snap(x) for x in (0.0, horizon / 4, horizon / 2)})
    spans = sorted({snap(x) for x in np.linspace(dt_max / 12, dt_max, 12) if snap(x) > 0})
    return tuple(starts), tuple(spans)


def _adaptive_grid(props: Propagators) -> tuple[tuple, tuple]:
    """The grid of a report on the step grid and propagators of `props`,
    whose spans stop where the flow's mixing bottoms out.

    Probes the distance decay of Phi(t, 0) and caps the span range where
    the distance first drops below DECAY_FLOOR (fast mixers would
    otherwise only be sampled in the rounding-noise regime on long
    horizons, while slow mixers still get the full half-horizon range).
    Probes run in chunks of PROBE_CHUNK, fewer where a stack of them
    would pass STACK_BYTES: each chunk is advanced, checked and compared
    with the floor at once, by `_below_floor`, and the first probe under
    the floor stops the grid, as a probe-by-probe loop would.
    """
    process, h = props.process, props.h
    cap = process.horizon / 2
    stride = max(1, int(round(min(0.5, cap / 12) / h)))

    def probes():
        t = 0.0
        while t + stride * h <= cap + 1e-12:
            i = round((t + stride * h) / h)
            t = i * h
            yield t, i

    integ = _FlowIntegrator(props, 0)
    remaining = islice(probes(), MAX_PROBES)
    while chunk := list(islice(remaining, min(PROBE_CHUNK, props.per_stack))):
        times, steps = zip(*chunk)
        props.build(integ.legs(steps))
        phis = integ.flows(steps)
        bad, problem = _flow_problem(phis)
        below = np.flatnonzero(_below_floor(phis[:bad]))
        if below.size:
            return _grid(process, h, times[below[0]])
        if problem is not None:
            raise NumericalFailureError(problem, times[bad])
    return _grid(process, h, cap)


def write_tables(tables, end: str) -> None:
    """Write each (path, header, columns) of `tables`, columns being arrays
    of the same m rows and of one or more columns, one name each in the
    header, as 17-significant-digit text with lines ending in `end`. Rows
    are stacked and formatted by one % call per table and stack of at
    most STACK_BYTES. A column bit-for-bit equal to an earlier one, of any
    table, is formatted once a stack, and its text enters the calls by %s."""
    # every table's columns one by one, and each table's indices among them
    flat, spans = [], []
    for _, _, cols in tables:
        own = [c for col in cols for c in np.atleast_2d(np.asarray(col, float).T)]
        spans.append(range(len(flat), len(flat) + len(own)))
        flat += own
    bits = [c.view(np.int64) for c in flat]
    first = [next(j for j, b in enumerate(bits) if np.array_equal(b, a)) for a in bits]
    texts = {j for i, j in enumerate(first) if j != i}
    lines = [",".join("%s" if first[i] in texts else "%.17g" for i in own) + end for own in spans]
    rows = max(1, STACK_BYTES // (8 * len(flat)))
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", newline="")) for path, _, _ in tables]
        for fh, (_, header, _) in zip(files, tables):
            fh.write(",".join(header) + end)
        for lo in range(0, len(flat[0]), rows):
            parts = [c[lo : lo + rows] for c in flat]
            k = len(parts[0])
            text = {j: ("%.17g," * k % tuple(parts[j].tolist()))[:-1].split(",") for j in texts}
            for fh, own, line in zip(files, spans, lines):
                # each column's values into every len(own)-th slot
                values = [None] * (k * len(own))
                for c, i in enumerate(own):
                    values[c :: len(own)] = text.get(first[i]) or parts[i].tolist()
                fh.write(line * k % tuple(values))


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

    def weakly_exponentially_ergodic(self) -> bool:
        """Classify the flow from the fit.

        Requires a clean fit (r-squared at least R2_MIN) with rate below 1
        and at least one e-fold of observed decay across the grid; the
        last condition rejects flat distance profiles whose near-zero
        slope would otherwise masquerade as a rate just under 1.
        """
        return (
            self.rate is not None
            and 0.0 < self.rate < 1.0
            and self.r_squared is not None
            and self.r_squared >= R2_MIN
            and self.log_decay_span is not None
            and self.log_decay_span >= 1.0
        )

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "weakly_exponentially_ergodic": self.weakly_exponentially_ergodic(),
        }

    def write_csv(self, path) -> None:
        columns = [np.array(self.samples), np.array(self.distances)]
        write_tables([(path, ["s", "t", "distance"], columns)], "\r\n")


def _fit_rate(spans: np.ndarray, dists: np.ndarray) -> tuple:
    """(rate, prefactor, r-squared, log-decay span): the regression of
    log-distance on span over the samples above FIT_FLOOR, None with fewer
    than 3 of them, and the range of their log-distances, None with none."""
    usable = dists > FIT_FLOOR
    if not usable.any():
        return None, None, None, None
    y = np.log(dists[usable])
    decay_span = float(y.max() - y.min())
    x = spans[usable]
    if len(x) < 3:
        return None, None, None, decay_span
    with np.errstate(over="ignore"):
        if not np.isfinite(x @ x):
            # the least-squares fit squares the spans; past the float range
            # it would only print overflow warnings and fit nothing
            return None, None, None, decay_span
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot <= 1e-30:
        r2 = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(math.exp(slope)), float(math.exp(intercept)), r2, decay_span


def ergodicity_report(process: LaplacianProcess, h: float = DEFAULT_STEP) -> ErgodicityReport:
    """Sample the flow on its adaptive grid and fit its exponential mixing envelope.

    The propagators every walk needs are built first; then each walk's
    samples are checked, measured and reduced to p* as stacks of at most
    STACK_BYTES, so a stack raises NumericalFailureError at its first bad
    sample. The rate fit regresses log-distance on span over all
    samples above FIT_FLOOR; fewer than 3 usable samples yields a report
    with no rate. Row-sum minima within TAU_FLOW of 1 are reported as
    exactly 1 so that doubly stochastic flows certify p* = 1.
    """
    props = Propagators(process, h)
    starts, spans = _adaptive_grid(props)
    samples = []
    walks = []  # (integrator from s, its sample times, their step indices)
    for s in starts:
        ts = [min(s + dt, process.horizon) for dt in spans if s + dt <= process.horizon + 1e-12]
        if ts:
            samples.extend((s, t) for t in ts)
            integ = _FlowIntegrator(props, steps_in_span(s, h, f"start time {s}"))
            walks.append((integ, ts, [steps_in_span(t, h, f"sample time {t}") for t in ts]))
    if not samples:
        raise InvalidInputError("grid produced no samples inside the horizon")
    props.build(leg for integ, _, targets in walks for leg in integ.legs(targets))
    dists, p_star = [], math.inf
    for integ, ts, targets in walks:
        for lo in range(0, len(targets), props.per_stack):
            phis = integ.flows(targets[lo : lo + props.per_stack])
            _check_flows(phis, ts[lo:])
            dists.extend(_distances(phis).tolist())
            p_star = min(p_star, float((phis @ np.ones(process.n)).min()))
    if abs(p_star - 1.0) <= TAU_FLOW:
        p_star = 1.0
    rate, prefactor, r2, decay_span = _fit_rate(
        np.array([t - s for s, t in samples]), np.array(dists)
    )
    return ErgodicityReport(
        samples=tuple(samples),
        distances=tuple(dists),
        rate=rate,
        prefactor=prefactor,
        r_squared=r2,
        p_star=p_star,
        log_decay_span=decay_span,
    )
