"""Trajectory integration of flow-tracker systems under a control law.

Classical fixed-step RK4 with the control law evaluated at stage times on
stage states: the feedback is part of the vector field rather than a
zero-order hold, which preserves 4th-order accuracy for the
continuous-time model. Switching instants of the Laplacian process must
land on step boundaries so no step straddles a discontinuity.

When the law is affine in the output (quadratic objectives, or no law)
and the system has no ratio block, the closed loop is affine in the
state: on (state, 1) it is the linear field [[K(L), 0], [0, 0]] + alpha(t)
* forcing, and each RK4 step is its exact map A = [[R, r], [0, 1]] from
`flowcore.rk4_maps`, the kernel of the mixing flow too. The path is
chosen from the system and the law alone, and a law without
`rowwise_affine` takes the generic one. A constant step size gives every
step of a piece the same map, whose powers A^1 ... A^m each piece
caches; any other schedule builds each step's map from alpha at t,
t + h/2 and t + h, and composes the maps of each record interval by
prefix products. Either way one
matrix-vector product per record interval advances the state, and one
batched product recovers the state at every step of a block of
intervals, which is checked for finiteness and the validity box; with
record_every = h and a constant step the result is bit-identical to one
map per step. The generic path compares every step's output with the
box too, so on both paths a run aborts at the first offending step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    W_FLOOR,
    FlowTrackerSystem,
    GradientFeedback,
    SystemState,
    ZeroControl,
)
from .errors import (
    DegenerateWeightsError,
    InvalidInputError,
    NumericalFailureError,
)
from .flowcore import STACK_BYTES, rk4_maps
from .graphnet import LaplacianProcess, check_switch_alignment, steps_in_span
from .schedules import evaluate_many

DEFAULT_RECORD_EVERY = 0.1

# fewest records estimate_limit averages for a stable limit
MIN_TAIL = 10


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled record of a simulation run."""

    times: np.ndarray
    x: np.ndarray  # (m, n, d)
    aux: dict[str, np.ndarray]
    y: np.ndarray  # (m, n, d)
    u: np.ndarray  # (m, n, d)
    xbar: np.ndarray  # (m, d)
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def d(self) -> int:
        return self.x.shape[2]

    @property
    def n_samples(self) -> int:
        return self.times.shape[0]

    @property
    def record_interval(self) -> float:
        return float(self.times[1] - self.times[0]) if self.n_samples > 1 else 0.0

    @property
    def is_full_resolution(self) -> bool:
        h = self.meta.get("h")
        return h is not None and self.n_samples > 1 and abs(self.record_interval - h) < 1e-12

    def _csv_header(self) -> list[str]:
        n, d = self.n, self.d
        cols = ["t"]
        cols += [f"x_{i + 1}" for i in range(n * d)]
        for name, arr in self.aux.items():
            width = int(np.prod(arr.shape[1:]))
            cols += [f"{name}_{i + 1}" for i in range(width)]
        cols += [f"y_{i + 1}" for i in range(n * d)]
        cols += [f"u_{i + 1}" for i in range(n * d)]
        cols += [f"xbar_{i + 1}" for i in range(d)]
        return cols

    def write_csv(self, path) -> None:
        """17-significant-digit text: re-running a config reproduces bytes."""
        m = self.n_samples
        table = np.hstack(
            [self.times[:, None], self.x.reshape(m, -1)]
            + [arr.reshape(m, -1) for arr in self.aux.values()]
            + [self.y.reshape(m, -1), self.u.reshape(m, -1), self.xbar]
        )
        row = ",".join(["%.17g"] * table.shape[1]) + "\n"
        with open(path, "w") as fh:
            fh.write(",".join(self._csv_header()) + "\n")
            fh.writelines(row % tuple(values.tolist()) for values in table)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for k in range(self.n_samples):
                rec = {
                    "t": float(self.times[k]),
                    "x": self.x[k].tolist(),
                    "aux": {name: arr[k].tolist() for name, arr in self.aux.items()},
                    "y": self.y[k].tolist(),
                    "u": self.u[k].tolist(),
                    "xbar": self.xbar[k].tolist(),
                }
                fh.write(json.dumps(rec) + "\n")


def _prefix_powers(aug: np.ndarray, count: int) -> np.ndarray:
    """aug^1 ... aug^count as a stack, by doubling."""
    stack = aug[None]
    while len(stack) < count:
        stack = np.concatenate((stack, stack[-1] @ stack[: count - len(stack)]))
    return stack


def _outside(y: np.ndarray, box) -> np.ndarray:
    """Which entries of the outputs y (..., d) lie outside the box; NaN does not."""
    return (y < box.lo) | (y > box.hi)


_BOX_MESSAGE = "output left the declared gradient-validity box"


def step_grid(
    process: LaplacianProcess, t_end: float, h: float, record_every: float
) -> tuple[int, int]:
    """(steps, steps per record) of a run to t_end; InvalidInputError unless
    the switches, record_every and t_end land on the step grid of h."""
    if h <= 0:
        raise InvalidInputError("step h must be positive")
    if t_end <= 0:
        raise InvalidInputError("t_end must be positive")
    if t_end > process.horizon + 1e-12:
        raise InvalidInputError(
            f"t_end {t_end} exceeds the process horizon {process.horizon}"
        )
    check_switch_alignment(process, h)
    steps_per_record = steps_in_span(record_every, h, "record_every")
    if steps_per_record < 1:
        raise InvalidInputError("record_every must be at least h")
    n_steps = steps_in_span(t_end, h, "t_end")
    if n_steps % steps_per_record:
        raise InvalidInputError("t_end must be a multiple of record_every")
    return n_steps, steps_per_record


def _affine_path(system, coeffs, bounds, per_record, h, box, states) -> None:
    """Fill `states`, whose row 0 holds the initial state, with the record
    states under the affine law u = alpha(t) * (scale * y + offset).

    The steps go in chunks that advance by prefix products of the step
    maps: a constant alpha gives every step of a piece the same map, so a
    chunk stays within a piece and a record interval and uses the piece's
    powers A^1 ... A^m; any other schedule composes the RK4 map of each
    step of a block of record intervals. A chunk is cut short where its
    prefix stack would pass STACK_BYTES. One matrix-vector product per
    chunk advances the state, one batched product gives the state at
    every step of a block, and each of those is checked for finiteness
    and the box; the first bad step raises NumericalFailureError.
    """
    scale, offset, schedule = coeffs
    n, d, size = system.n, system.d, system.state_size
    nd = n * d
    laps = system.process.laplacians

    def field(piece):
        """The piece's coupling as the linear field [[K(L), 0], [0, 0]] on (state, 1)."""
        return np.pad(system.coupling_matrix(laps[piece].matrix), (0, 1))

    # u = alpha * (scale * y + offset) adds alpha * forcing to the field
    forcing = np.zeros((size + 1, size + 1))
    forcing[:nd, :nd] = np.diag(np.repeat(scale, d))
    forcing[:nd, -1] = offset.ravel()

    # steps per prefix stack, so that one stays within STACK_BYTES
    most_steps = max(1, STACK_BYTES // (8 * (size + 1) ** 2))

    def chunks(step, stop, width):
        """(first step, length, count): runs of `count` chunks of `length`
        steps that tile [step, stop), each ending on a record or before
        `most_steps`, and whose stacks of `width` floats per step fit
        STACK_BYTES."""
        while step < stop:
            length = min(per_record - step % per_record, stop - step, most_steps)
            count = (stop - step) // per_record if length == per_record else 1
            most = max(1, STACK_BYTES // (8 * length * width))
            for first in range(0, count, most):
                yield step + first * length, length, min(most, count - first)
            step += count * length

    def blocks():
        """(first step, prefix stack, chunk count) of consecutive chunks of
        one length, whose prefix stack (length, ...) all share or which
        have one each, (count, length, ...)."""
        if schedule.kind == "constant":
            for piece in range(len(bounds) - 1):
                step, stop = bounds[piece], bounds[piece + 1]
                f = field(piece) + schedule.a0 * forcing
                powers = _prefix_powers(
                    rk4_maps(f, f, f, h), min(per_record, stop - step, most_steps)
                )
                for first, length, count in chunks(step, stop, size):
                    yield first, powers[:length], count
            return
        for first, length, count in chunks(0, bounds[-1], (size + 1) ** 2):
            steps = np.arange(first, first + count * length)
            t = steps * h
            piece = np.searchsorted(bounds, steps, side="right") - 1
            fields = np.stack([field(p) for p in range(piece[0], piece[-1] + 1)])
            fields = fields[piece - piece[0]]
            f1, f2, f3 = (
                fields + evaluate_many(schedule, s)[:, None, None] * forcing
                for s in (t, t + 0.5 * h, t + h)
            )
            maps = rk4_maps(f1, f2, f3, h).reshape(count, length, size + 1, size + 1)
            for j in range(1, length):
                maps[:, j] = maps[:, j] @ maps[:, j - 1]
            yield first, maps, count

    def check(block, first):
        """Raise at the first of the step states from step `first` on that is
        non-finite or whose output leaves the box."""
        finite = np.isfinite(block)
        outside = None if box is None else _outside(block[:, :nd].reshape(-1, n, d), box)
        if finite.all() and (outside is None or not outside.any()):
            return
        bad = ~finite.all(axis=1)
        if outside is not None:
            bad |= outside.any(axis=(1, 2))
        k = int(bad.argmax())
        raise NumericalFailureError(
            _BOX_MESSAGE if finite[k].all() else "state became non-finite", (first + k) * h
        )

    z = states[0]
    check(z[None], 0)
    for first, prefix, count in blocks():
        lin, off = prefix[..., :-1, :-1], prefix[..., :-1, -1]
        length = lin.shape[-3]
        starts = np.empty((count, size))
        if prefix.ndim == 3:
            mat, shift = lin[-1].copy(), off[-1].copy()
            for i in range(count):
                starts[i] = z
                z = mat @ z + shift
        else:
            mats, shifts = lin[:, -1].copy(), off[:, -1].copy()
            for i in range(count):
                starts[i] = z
                z = mats[i] @ z + shifts[i]
        ends = np.concatenate((starts[1:], z[None]))
        # one (length * size, size) product per chunk, not one per step
        flat_lin = lin.reshape(*lin.shape[:-3], length * size, size)
        block = (flat_lin @ starts[:, :, None]).reshape(count, length, size) + off
        block[:, -1] = ends
        check(block.reshape(-1, size), first + 1)
        stops = first + length * np.arange(1, count + 1)
        at = stops % per_record == 0
        states[stops[at] // per_record] = ends[at]


def _generic_path(system, law, vec, bounds, steps_per_record, h, box, states):
    """RK4 with the law at every stage; fills `states` and returns the
    recorded outputs and inputs. The head of every step forms the output,
    checks it against the box and evaluates the law, which is the step's
    first stage and, at a record, the recorded input; finiteness is
    checked at every record and the weight floor after every step."""
    n, d = system.n, system.d
    nd = n * d
    n_steps = bounds[-1]
    y_rec = np.empty((len(states), n, d))
    u_rec = np.empty((len(states), n, d))
    output = system.output_flat
    weights = system.ratio_slice
    # the Laplacian of each piece, by the step it starts at
    starts = dict(zip(bounds[:-1], system.process.laplacians))

    # the stage derivatives live in the rows of one buffer, so the RK4
    # update is a single weighted sum and the input adds into row views
    stages = np.empty((4, system.state_size))
    k1, k2, k3, k4 = stages
    k1x, k2x, k3x, k4x = (k[:nd].reshape(n, d) for k in stages)
    rk4_weights = (h / 6.0) * np.array([1.0, 2.0, 2.0, 1.0])
    h2 = 0.5 * h
    for step in range(n_steps + 1):
        t = step * h
        j, off_record = divmod(step, steps_per_record)
        if not off_record and not np.isfinite(vec).all():
            raise NumericalFailureError("state became non-finite", t)
        y_now = output(vec)
        if box is not None and _outside(y_now, box).any():
            raise NumericalFailureError(_BOX_MESSAGE, t)
        u_now = law(t, y_now)
        if not off_record:
            states[j], y_rec[j], u_rec[j] = vec, y_now, u_now
        if step == n_steps:
            break
        if step in starts:
            big = system.coupling_matrix(starts[step].matrix)
        np.dot(big, vec, out=k1)
        k1x += u_now
        v = vec + h2 * k1
        np.dot(big, v, out=k2)
        k2x += law(t + h2, output(v))
        v = vec + h2 * k2
        np.dot(big, v, out=k3)
        k3x += law(t + h2, output(v))
        v = vec + h * k3
        np.dot(big, v, out=k4)
        k4x += law(t + h, output(v))
        vec = vec + rk4_weights @ stages
        if weights is not None and vec[weights].min() < W_FLOOR:
            raise DegenerateWeightsError(
                "ratio weight fell below the floor "
                f"{W_FLOOR:g}; the mixing flow is not keeping "
                "row sums positive",
                (step + 1) * h,
            )
    return y_rec, u_rec


def integrate(
    system: FlowTrackerSystem,
    law,
    init: SystemState,
    t_end: float,
    h: float,
    record_every: float = DEFAULT_RECORD_EVERY,
    extra_meta: dict | None = None,
) -> Trajectory:
    """Integrate `system` under control `law` from `init` to t_end.

    Parameters
    ----------
    law : callable or None
        Maps (t, y) to the control block u (n x d). None means u = 0.
    h : float
        RK4 step; must divide record_every, t_end, and every dwell time.
    record_every : float
        Sampling interval of the returned trajectory; pass h for
        full-resolution records (needed by derivative-based checks).

    Raises
    ------
    InvalidInputError
        A run that `step_grid` rejects, or an initial state outside the
        system's admissible set.
    DegenerateWeightsError
        A ratio weight fell below the positivity floor.
    NumericalFailureError
        Non-finite state, or output outside a declared validity box, at
        the time of the first step that shows it.
    """
    process = system.process
    n_steps, steps_per_record = step_grid(process, t_end, h, record_every)
    system.check_initial(init)
    vec = system.pack(init)

    box = None
    if isinstance(law, GradientFeedback):
        box = law.family.validity_box

    n, d = system.n, system.d
    m_records = n_steps // steps_per_record + 1
    times = np.arange(m_records) * (steps_per_record * h)
    states = np.empty((m_records, system.state_size))

    law_or_zero = law if law is not None else ZeroControl(n, d)
    affine = None
    if system.supports_affine and hasattr(law_or_zero, "rowwise_affine"):
        affine = law_or_zero.rowwise_affine()

    # step indices of piece boundaries, clipped to the run
    bounds = [b for b in check_switch_alignment(process, h) if b < n_steps] + [n_steps]

    if affine is not None:
        states[0] = vec
        _affine_path(system, affine, bounds, steps_per_record, h, box, states)
        # no ratio block, so the output is x
        y_rec = system.split(states)[0].copy()
        u_rec = np.empty_like(y_rec)
        for j, y_now in enumerate(y_rec):
            u_rec[j] = law_or_zero(j * steps_per_record * h, y_now)
    else:
        y_rec, u_rec = _generic_path(
            system, law_or_zero, vec, bounds, steps_per_record, h, box, states
        )
    x_rec, aux_rec = system.split(states)

    meta = {
        "system": system.name,
        "n": n,
        "d": d,
        "h": h,
        "record_every": steps_per_record * h,
        "t_end": t_end,
        "c1": system.c1,
        "ratio": system.ratio,
        "path": "generic" if affine is None else "affine",
    }
    if extra_meta:
        meta.update(extra_meta)
    return Trajectory(times, x_rec, aux_rec, y_rec, u_rec, x_rec.mean(axis=1), meta)


def closed_form_two_agent(alpha: float, x0, t: float) -> np.ndarray:
    """Exact solution of the two-agent constant-step averaging loop.

    The closed loop dx = -(L + alpha I) x + alpha (1, -1) with
    L = [[1, -1], [-1, 1]] has modes exp(-alpha t) on the consensus line
    and exp(-(2 + alpha) t) on the disagreement line, and settles at
    alpha / (2 + alpha) * (1, -1).
    """
    if alpha <= 0:
        raise InvalidInputError("alpha must be positive")
    x0 = np.asarray(x0, dtype=float).reshape(2)
    if t < 0:
        raise InvalidInputError("t must be nonnegative")
    slow = math.exp(-alpha * t)
    fast = math.exp(-(2.0 + alpha) * t)
    e_at = 0.5 * np.array(
        [[slow + fast, slow - fast], [slow - fast, slow + fast]]
    )
    x_inf = alpha / (2.0 + alpha) * np.array([1.0, -1.0])
    return e_at @ x0 + x_inf - e_at @ x_inf


@dataclass(frozen=True)
class LimitEstimate:
    y_limit: np.ndarray  # (n, d)
    xbar_limit: np.ndarray  # (d,)
    residual: float


def tail_length(n_samples: int, tail_fraction: float = 0.1) -> int:
    """Records in the tail that estimate_limit averages."""
    return int(math.ceil(n_samples * tail_fraction))


def estimate_limit(traj: Trajectory, tail_fraction: float = 0.1) -> LimitEstimate:
    """Tail-mean of the outputs with the in-tail spread as residual."""
    if not (0 < tail_fraction <= 1):
        raise InvalidInputError("tail_fraction must lie in (0, 1]")
    m_tail = tail_length(traj.n_samples, tail_fraction)
    if m_tail < MIN_TAIL:
        raise InvalidInputError(
            f"tail holds {m_tail} samples; need at least {MIN_TAIL} for a stable estimate"
        )
    tail_y = traj.y[-m_tail:]
    tail_xbar = traj.xbar[-m_tail:]
    y_limit = tail_y.mean(axis=0)
    xbar_limit = tail_xbar.mean(axis=0)
    residual = float(
        max(np.abs(tail_y - y_limit).max(), np.abs(tail_xbar - xbar_limit).max())
    )
    return LimitEstimate(y_limit, xbar_limit, residual)
