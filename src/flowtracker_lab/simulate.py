"""Trajectory integration of flow-tracker systems under a control law.

Classical fixed-step RK4 with the control law evaluated at stage times on
stage states: the feedback is part of the vector field rather than a
zero-order hold, which preserves 4th-order accuracy for the
continuous-time model. Switching instants of the Laplacian process must
land on step boundaries so no step straddles a discontinuity.

When the closed loop is affine and time-invariant within each piece
(linear system, quadratic objectives, constant step size), the RK4 step
collapses to a precomputed affine map; this is the same one-step
polynomial, evaluated faster, and is used automatically.
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
from .flowcore import check_switch_alignment, steps_in_span, taylor_polynomial

DEFAULT_RECORD_EVERY = 0.1


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

    def state_at(self, k: int) -> SystemState:
        return SystemState(self.x[k], {name: arr[k] for name, arr in self.aux.items()})

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


def _affine_step_map(system, coupling, coeffs, h):
    """Exact RK4 one-step map (R, r) under u = row_scale * y + row_offset."""
    row_scale, row_offset = coeffs
    nd = system.n * system.d
    m = coupling.copy()
    m[:nd, :nd] += np.diag(np.repeat(row_scale, system.d))
    c = np.zeros(m.shape[0])
    c[:nd] = row_offset.ravel()
    hm = h * m
    return taylor_polynomial(hm), h * (taylor_polynomial(hm, 3, shift=1) @ c)


def integrate(
    system: FlowTrackerSystem,
    law,
    init: SystemState,
    t_end: float,
    h: float,
    record_every: float = DEFAULT_RECORD_EVERY,
    extra_meta: dict | None = None,
    use_affine_path: bool = True,
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
        Misaligned steps or an initial state outside the system's
        admissible set.
    DegenerateWeightsError
        A ratio weight fell below the positivity floor.
    NumericalFailureError
        Non-finite state, or output outside a declared validity box.
    """
    process = system.process
    if h <= 0:
        raise InvalidInputError("step h must be positive")
    if t_end <= 0:
        raise InvalidInputError("t_end must be positive")
    if t_end > process.horizon + 1e-12:
        raise InvalidInputError(
            f"t_end {t_end} exceeds the process horizon {process.horizon}"
        )
    check_switch_alignment(process, h)
    steps_per_record = steps_in_span(record_every, h, "record interval")
    if steps_per_record < 1:
        raise InvalidInputError("record_every must be at least h")
    n_steps = steps_in_span(t_end, h, "t_end")
    if n_steps % steps_per_record:
        raise InvalidInputError("t_end must be a multiple of record_every")

    system.check_initial(init)
    vec = system.pack(init)

    box = None
    if isinstance(law, GradientFeedback):
        box = law.family.validity_box

    n, d = system.n, system.d
    nd = n * d
    m_records = n_steps // steps_per_record + 1
    times = np.arange(m_records) * (steps_per_record * h)
    states = np.empty((m_records, system.state_size))
    y_rec = np.empty((m_records, n, d))
    u_rec = np.empty((m_records, n, d))

    law_or_zero = law if law is not None else ZeroControl(n, d)
    output = system.output_flat
    weights = system.ratio_slice
    affine = None
    if use_affine_path and system.supports_affine and hasattr(law_or_zero, "rowwise_affine"):
        affine = law_or_zero.rowwise_affine()

    def record(j: int, t: float) -> np.ndarray:
        """Store the state at t and return the control law's value there."""
        if not np.isfinite(vec).all():
            raise NumericalFailureError("state became non-finite", t)
        states[j] = vec
        y_now = output(vec)
        y_rec[j] = y_now
        u_now = u_rec[j] = law_or_zero(t, y_now)
        if box is not None and not ((y_now >= box.lo) & (y_now <= box.hi)).all():
            raise NumericalFailureError(
                "output left the declared gradient-validity box", t
            )
        return u_now

    # law(t, output(vec)) at the current step, when a record already has it
    u_now = record(0, 0.0)

    # step indices of piece boundaries, clipped to the run
    bounds = [steps_in_span(t, h, "switch time") for t in process.start_times]
    bounds = [b for b in bounds if b < n_steps] + [n_steps]

    # the stage derivatives live in the rows of one buffer, so the RK4
    # update is a single weighted sum and the input adds into row views
    stages = np.empty((4, system.state_size))
    k1, k2, k3, k4 = stages
    k1x, k2x, k3x, k4x = (k[:nd].reshape(n, d) for k in stages)
    rk4_weights = (h / 6.0) * np.array([1.0, 2.0, 2.0, 1.0])
    h2 = 0.5 * h
    step = 0
    for seg_idx in range(len(bounds) - 1):
        seg_end = bounds[seg_idx + 1]
        if seg_end <= step:
            continue
        lap = process.laplacians[min(seg_idx, len(process.laplacians) - 1)].matrix
        big = system.coupling_matrix(lap)
        if affine is not None:
            step_mat, step_off = _affine_step_map(system, big, affine, h)
            while step < seg_end:
                vec = step_mat @ vec + step_off
                step += 1
                if step % steps_per_record == 0:
                    record(step // steps_per_record, step * h)
            continue
        while step < seg_end:
            t = step * h
            np.dot(big, vec, out=k1)
            k1x += law_or_zero(t, output(vec)) if u_now is None else u_now
            v = vec + h2 * k1
            np.dot(big, v, out=k2)
            k2x += law_or_zero(t + h2, output(v))
            v = vec + h2 * k2
            np.dot(big, v, out=k3)
            k3x += law_or_zero(t + h2, output(v))
            v = vec + h * k3
            np.dot(big, v, out=k4)
            k4x += law_or_zero(t + h, output(v))
            vec = vec + rk4_weights @ stages
            step += 1
            u_now = None
            if weights is not None and vec[weights].min() < W_FLOOR:
                raise DegenerateWeightsError(
                    "ratio weight fell below the floor "
                    f"{W_FLOOR:g}; the mixing flow is not keeping "
                    "row sums positive",
                    step * h,
                )
            if step % steps_per_record == 0:
                u_now = record(step // steps_per_record, step * h)

    x_rec, aux_rec = system.split(states)
    meta = {
        "system": system.name,
        "n": n,
        "d": d,
        "h": h,
        "record_every": steps_per_record * h,
        "t_end": t_end,
        "c1": system.c1,
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

    def to_dict(self) -> dict:
        return {
            "y_limit": self.y_limit.tolist(),
            "xbar_limit": self.xbar_limit.tolist(),
            "residual": self.residual,
        }


def estimate_limit(traj: Trajectory, tail_fraction: float = 0.1) -> LimitEstimate:
    """Tail-mean of the outputs with the in-tail spread as residual."""
    if not (0 < tail_fraction <= 1):
        raise InvalidInputError("tail_fraction must lie in (0, 1]")
    m_tail = int(math.ceil(traj.n_samples * tail_fraction))
    if m_tail < 10:
        raise InvalidInputError(
            f"tail holds {m_tail} samples; need at least 10 for a stable estimate"
        )
    tail_y = traj.y[-m_tail:]
    tail_xbar = traj.xbar[-m_tail:]
    y_limit = tail_y.mean(axis=0)
    xbar_limit = tail_xbar.mean(axis=0)
    residual = float(
        max(np.abs(tail_y - y_limit).max(), np.abs(tail_xbar - xbar_limit).max())
    )
    return LimitEstimate(y_limit, xbar_limit, residual)
