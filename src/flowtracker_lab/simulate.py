"""Trajectory integration of flow-tracker systems under a control law.

Classical fixed-step RK4 with the control law evaluated at stage times on
stage states: the feedback is part of the vector field rather than a
zero-order hold, which preserves 4th-order accuracy for the
continuous-time model. Switching instants of the Laplacian process must
land on step boundaries so no step straddles a discontinuity; a run's one
step grid is the `flowcore.Propagators` of `step_grid`.

When the law is affine in the output on a zone, u = alpha(t) * (scale *
y + offset) while every agent's output lies within its radius of its
center (everywhere for quadratic agents and for no law, the quadratic
part for huberized ones), the closed loop is affine in the state: a
ratio block couples only to itself, so its weights w are known before
the other blocks, and on (state, 1) the field is [[K(L), 0], [0, 0]]
plus alpha(t) * forcing with scale / w on the x rows. Each RK4 step is
then its exact map A = [[R, r], [0, 1]] from `flowcore.rk4_maps`, the
kernel of the mixing flow too. The path is chosen from the system and
the law alone, and a law without `rowwise_affine`, or whose
`rowwise_affine` is None, takes the generic one. Without a ratio block
a constant step size gives every step of a piece the same map, whose
powers A^1 ... A^m each piece caches; otherwise each block of steps
first advances the ratio weights alone, as the mixing flow w' = -L w,
by the prefix powers of the one-step maps that the step grid keeps per
distinct piece, builds each step's map from its four stage fields and
composes the maps of each record interval by prefix products.
Either way one matrix-vector product per record interval advances the
state, and batched products recover the state and the four stages at
every step of a block; with record_every = h and a constant step the
result is bit-identical to one map per step. Only the generic loop
raises a run's numerical errors. The affine path finds the first faulty
step: a stage output leaves the zone or a stage derivative is not
finite, or the end state is not finite, leaves the validity box or has
a weight under the floor; step 0 is faulty when the initial state is.
The generic loop takes over from that step's state, redoes it with the
law and raises what it finds, or goes on if the step is fine after all.
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
    ZeroControl,
)
from .errors import (
    DegenerateWeightsError,
    InvalidInputError,
    NumericalFailureError,
)
from .flowcore import STACK_BYTES, Propagators, rk4_maps, write_table
from .graphnet import LaplacianProcess, steps_in_span
from .schedules import evaluate_many

DEFAULT_RECORD_EVERY = 0.1

# fewest records estimate_limit averages for a stable limit
MIN_TAIL = 10

# Most floats a run records: times, states, y, u and xbar, 1 + state size
# + 2 n d + d a record, 128 MB of float64. The largest recording a test
# makes is 440,022 floats (push-sum, n = 5, 20,001 records, in criterion
# 6), a preset's or the benchmark's 350,014 (averaging-ergodic and
# saddlepoint-mincut), and pushsum-directed's under --full-resolution
# 2,200,022: the cap is 36 times the first and 7 times the last.
MAX_RECORD_FLOATS = 16_000_000


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

    def write_csv(self, path) -> None:
        """17-significant-digit text: re-running a config reproduces bytes."""
        groups = [("x", self.x), *self.aux.items(), ("y", self.y), ("u", self.u), ("xbar", self.xbar)]
        columns = [arr.reshape(self.n_samples, -1) for _, arr in groups]
        header = ["t"] + [
            f"{name}_{i + 1}" for (name, _), col in zip(groups, columns) for i in range(col.shape[1])
        ]
        write_table(path, header, [self.times, *columns], "\n")

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
    """aug^1 ... aug^count stacked on axis -3, by doubling; a stack of
    matrices (k, m, m) gives each its own, (k, count, m, m)."""
    stack = aug[..., None, :, :]
    while stack.shape[-3] < count:
        more = stack[..., -1:, :, :] @ stack[..., : count - stack.shape[-3], :, :]
        stack = np.concatenate((stack, more), axis=-3)
    return stack


def step_grid(
    process: LaplacianProcess, t_end: float, h: float, record_every: float
) -> tuple[int, int, Propagators]:
    """(steps, steps per record, the run's step grid) of a run to t_end;
    InvalidInputError unless record_every, t_end and the switches land on
    the step grid of h. The grid checks the switches, once per run."""
    if t_end <= 0:
        raise InvalidInputError("t_end must be positive")
    if t_end > process.horizon + 1e-12:
        raise InvalidInputError(f"t_end {t_end} exceeds the process horizon {process.horizon}")
    steps_per_record = steps_in_span(record_every, h, "record_every")
    if steps_per_record < 1:
        raise InvalidInputError("record_every must be at least h")
    n_steps = steps_in_span(t_end, h, "t_end")
    if n_steps % steps_per_record:
        raise InvalidInputError("t_end must be a multiple of record_every")
    return n_steps, steps_per_record, Propagators(process, h)


def check_recording(system: FlowTrackerSystem, records: int) -> None:
    """InvalidInputError, naming the count and the cap, unless `records`
    records of `system` stay within MAX_RECORD_FLOATS."""
    per_record = 1 + system.state_size + 2 * system.n * system.d + system.d
    if records * per_record > MAX_RECORD_FLOATS:
        raise InvalidInputError(
            f"{records:.6g} records of {per_record} floats, {records * per_record:.6g} in all, "
            f"pass the {MAX_RECORD_FLOATS:g}-float cap on a recording"
        )


def _affine_path(system, coeffs, grid, per_record, box, states):
    """Fill the rows of `states`, row 0 holding the initial state, with the
    record states under the law u = alpha(t) * (scale * y + offset), which
    holds while every stage output y_i lies within radius_i of center_i.
    Returns (step, state): the run's step count and its final state, or
    the first faulty step (see the module docstring) and its state, from
    which the generic loop goes on; records up to it are filled.

    Chunks of steps advance by prefix products of the step maps, as the
    module docstring says, and are cut short where a stack would pass
    STACK_BYTES. Batched products give every step's state and its four
    stages.
    """
    scale, offset, schedule, center, radius = coeffs
    h = grid.h
    n_steps = per_record * (len(states) - 1)
    n, d, size = system.n, system.d, system.state_size
    nd = n * d
    matrices = system.process.matrices
    rows = system.ratio_slice
    output = system.output_flat
    zone = not np.isinf(radius).all()
    diag = np.arange(nd)
    gains = np.repeat(scale, d)

    def fields_of(pieces):
        """The pieces' couplings as linear fields [[K(L), 0], [0, 0]] on (state, 1)."""
        out = np.zeros((len(matrices[pieces]), size + 1, size + 1))
        out[:, :-1, :-1] = system.coupling_matrix(matrices[pieces])
        return out

    def stage_fields(fields, alpha, r):
        """The steps' fields at one stage, step sizes alpha and ratio weights
        r (None without a ratio block): the law adds alpha * scale / r to
        the x diagonal and alpha * offset to the last column."""
        alpha = alpha[:, None]
        out = fields.copy()
        out[:, :nd, -1] = alpha * offset.ravel()
        gain = alpha * gains
        if r is not None:
            gain /= np.repeat(r, d, axis=1)
        out[:, diag, diag] += gain
        return out

    firsts = np.asarray(grid.firsts)
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

    if rows is not None:
        # the ratio weights obey w' = -L w, the mixing flow: one one-step
        # map for each distinct piece the run touches
        grid.build((piece, 1) for piece, _ in grid.legs(0, n_steps))

    def ratio_run(r, first, stop):
        """The ratio weights at steps first ... stop from r at `first`: each
        leg of the walk applies the prefix powers of its piece's one-step
        map, made for the block's distinct pieces in one stack."""
        legs = list(grid.legs(first, stop))
        pieces = list(dict.fromkeys(piece for piece, _ in legs))
        fit = max(1, STACK_BYTES // (8 * n * n * len(pieces)))
        ones = np.stack([grid.power(piece, 1) for piece in pieces])
        count = min(max(steps for _, steps in legs), fit)
        powers = dict(zip(pieces, _prefix_powers(ones, count)))
        out = [r[None]]
        for piece, steps in legs:
            for lo in range(0, steps, count):
                out.append(powers[piece][: steps - lo] @ out[-1][-1])
        return np.concatenate(out)

    def blocks():
        """(first step, prefix stack, chunk count, stages, ratio weights) of
        consecutive chunks of one length, whose prefix stack (1, length, ...)
        all share or which have one each, (count, length, ...). The stages
        are the coupling, one or one per step, the step sizes alpha of the
        four stages and a bound, at least 1, on the stage fields' row sums
        and on 1 / r; the ratio weights, None without a ratio block, are
        those at the steps' ends."""
        if schedule.kind == "constant" and rows is None:
            alphas = np.full(4, schedule.a0)
            step = 0
            for piece, steps in grid.legs(0, n_steps):
                coupling = fields_of(slice(piece, piece + 1))
                f = stage_fields(coupling, alphas[:1], None)[0]
                powers = _prefix_powers(
                    rk4_maps(f, f, f, f, h), min(per_record, steps, most_steps)
                )
                reach = np.abs(f).sum(axis=1).max() + 1.0
                stages = (coupling[0, :-1, :-1], alphas, reach)
                for first, length, count in chunks(step, step + steps, size):
                    yield first, powers[None, :length], count, stages, None
                step += steps
            return
        r = None if rows is None else states[0, rows]
        ends = None
        for first, length, count in chunks(0, n_steps, (size + 1) ** 2):
            steps = np.arange(first, first + count * length)
            t = steps * h
            piece = np.searchsorted(firsts, steps, side="right") - 1
            piece_fields = fields_of(slice(piece[0], piece[-1] + 1))
            fields = piece_fields[piece - piece[0]]
            a1, a2, a4 = (evaluate_many(schedule, s) for s in (t, t + 0.5 * h, t + h))
            alphas = (a1, a2, a2, a4)
            if rows is None:
                f1, f2, f4 = (stage_fields(fields, a, None) for a in (a1, a2, a4))
                f3 = f2
            else:
                run = ratio_run(r, first, first + len(steps))
                r = run[-1]
                # the ratio block of a stage state is the ratio RK4's stage
                lap = fields[:, rows, rows]
                r1 = run[:-1]
                r2 = r1 + (0.5 * h) * _matvec(lap, r1)
                r3 = r1 + (0.5 * h) * _matvec(lap, r2)
                r4 = r1 + h * _matvec(lap, r3)
                f1, f2, f3, f4 = (
                    stage_fields(fields, a, ri) for a, ri in zip(alphas, (r1, r2, r3, r4))
                )
                ends = run[1:]
            # bounds the stage fields' row sums and 1 / r
            low = 1.0 if rows is None else min(w.min() for w in (r1, r2, r3, r4))
            by_law = max(a.max() for a in alphas) * (np.abs(gains).max() / low + np.abs(offset).max())
            coupled = np.abs(piece_fields).sum(axis=-1).max()
            reach = coupled + by_law + max(1.0, 1.0 / low) if low > 0 else np.inf
            maps = rk4_maps(f1, f2, f3, f4, h).reshape(count, length, size + 1, size + 1)
            for j in range(1, length):
                maps[:, j] = maps[:, j] @ maps[:, j - 1]
            yield first, maps, count, (fields[:, :-1, :-1], alphas, reach), ends

    def stage_faults(heads, coupling, alphas, reach):
        """Per step, whether the generic loop's four stages from its start
        state, batched, with the coupling (one, or one per step), the step
        sizes of each stage and a bound on the stage fields' row sums and
        1 / r, put an output outside the zone (NaN is outside) or give a
        derivative that is not finite; None when no step does."""
        # a stage's derivative and output are at most reach times its
        # state, which is at most (1 + h reach)^3 times the step's start
        safe = 1e300 / (reach * (1.0 + h * reach) ** 3)
        bounded = 1.0 < safe and np.abs(heads).max() < safe
        if bounded and not zone:
            return None
        inside = np.ones((len(heads), n), dtype=bool)
        finite = np.ones(heads.shape, dtype=bool)
        v = heads
        for alpha, coeff in zip(alphas, (0.5 * h, 0.5 * h, h, None)):
            y = output(v)
            if zone:
                delta = y - center
                dist = np.abs(delta[..., 0]) if d == 1 else np.sqrt((delta * delta).sum(axis=2))
                inside &= dist <= radius
            u = np.reshape(alpha, (-1, 1, 1)) * (scale[:, None] * y + offset)
            k = _matvec(coupling, v)
            k[:, :nd] += u.reshape(len(v), nd)
            if not bounded:
                finite &= np.isfinite(k)
            if coeff is not None:
                v = heads + coeff * k
        if inside.all() and finite.all():
            return None
        return ~(inside.all(axis=1) & finite.all(axis=1))

    z = states[0]
    if not np.isfinite(z).all() or (box is not None and box.outside(output(z)).any()):
        return 0, z
    for first, prefix, count, stages, weights in blocks():
        lin, off = prefix[..., :-1, :-1], prefix[..., :-1, -1]
        length = lin.shape[-3]
        starts = np.empty((count, size))
        # one map that every chunk shares, or one per chunk
        mats, shifts = lin[:, -1].copy(), off[:, -1].copy()
        for i in range(count):
            starts[i] = z
            z = mats[i % len(mats)] @ z + shifts[i % len(mats)]
        ends = np.concatenate((starts[1:], z[None]))
        # one (length * size, size) product per chunk, not one per step
        flat_lin = lin.reshape(len(lin), length * size, size)
        block = (flat_lin @ starts[:, :, None]).reshape(count, length, size) + off
        block[:, -1] = ends
        stops = first + length * np.arange(1, count + 1)
        at = stops % per_record == 0
        states[stops[at] // per_record] = ends[at]

        heads = np.concatenate((starts[:, None], block[:, :-1]), axis=1).reshape(-1, size)
        faulty = stage_faults(heads, *stages)
        block = block.reshape(-1, size)
        # each step's end state: not finite, outside the box, under the floor
        bad_ends = [~np.isfinite(block)]
        if box is not None:
            bad_ends.append(box.outside(output(block)).reshape(len(block), -1))
        if weights is not None:
            bad_ends.append(weights < W_FLOOR)
        # whole-block checks first: per-step masks cost a clean block dearly
        if faulty is None and not any(bad.any() for bad in bad_ends):
            continue
        if faulty is not None:
            bad_ends.append(faulty[:, None])
        k = int(np.any([bad.any(axis=1) for bad in bad_ends], axis=0).argmax())
        return first + k, heads[k]
    return n_steps, z


def _matvec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mats[k] @ vecs[k] for each k; one matrix serves every k."""
    if mats.ndim == 2:
        return vecs @ mats.T
    return (mats @ vecs[..., None])[..., 0]


def _generic_path(system, law, vec, start, grid, steps_per_record, box, states, y_rec, u_rec):
    """RK4 with the law at every stage from step `start` and its state
    `vec`; fills the records of `states`, `y_rec` and `u_rec` from there.
    The head of every step checks the state for finiteness, forms the
    output, checks it against the box and evaluates the law, which is the
    step's first stage and, at a record, the recorded input; the weight
    floor is checked after every step."""
    n, d = system.n, system.d
    nd = n * d
    h = grid.h
    n_steps = steps_per_record * (len(states) - 1)
    output = system.output_flat
    weights = system.ratio_slice
    # the legs of the walk from `start`, and the step where the next begins
    legs, next_leg = grid.legs(start, n_steps), start
    matrices = system.process.matrices

    # the stage derivatives live in the rows of one buffer, so the RK4
    # update is a single weighted sum and the input adds into row views
    stages = np.empty((4, system.state_size))
    k1, k2, k3, k4 = stages
    k1x, k2x, k3x, k4x = (k[:nd].reshape(n, d) for k in stages)
    rk4_weights = (h / 6.0) * np.array([1.0, 2.0, 2.0, 1.0])
    h2 = 0.5 * h
    for step in range(start, n_steps + 1):
        t = step * h
        j, off_record = divmod(step, steps_per_record)
        # a sum is finite when the entries are, unless it overflows: confirm
        if not math.isfinite(np.add.reduce(vec)) and not np.isfinite(vec).all():
            raise NumericalFailureError("state became non-finite", t)
        y_now = output(vec)
        if box is not None and box.outside(y_now).any():
            raise NumericalFailureError("output left the declared gradient-validity box", t)
        u_now = law(t, y_now)
        if not off_record:
            states[j], y_rec[j], u_rec[j] = vec, y_now, u_now
        if step == n_steps:
            break
        if step == next_leg:
            piece, steps = next(legs)
            big = system.coupling_matrix(matrices[piece])
            next_leg += steps
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
                f"ratio weight fell below the floor {W_FLOOR:g}; the mixing flow is "
                "not keeping row sums positive",
                (step + 1) * h,
            )


def integrate(
    system: FlowTrackerSystem,
    law,
    init: np.ndarray,
    t_end: float,
    h: float,
    record_every: float = DEFAULT_RECORD_EVERY,
) -> Trajectory:
    """Integrate `system` under control `law` from `init` to t_end.

    Parameters
    ----------
    law : callable or None
        Maps (t, y) to the control block u (n x d). None means u = 0.
    init : ndarray
        The flat initial state, as `system.initial_state` builds it.
    h : float
        RK4 step; must divide record_every, t_end, and every dwell time.
    record_every : float
        Sampling interval of the returned trajectory; pass h for
        full-resolution records (needed by derivative-based checks).

    The run takes the exact affine path while the law is affine on its
    zone (see the module docstring), with the ratio weights advanced
    alone per block of steps, and hands off to the generic RK4 loop at
    the first faulty step. That loop redoes the step and raises what it
    finds, or runs on. Meta "path" names the path the run started on and
    "handoff_step" the handoff step, or None.

    Raises
    ------
    InvalidInputError
        A run that `step_grid` or `check_recording` rejects, or an initial
        state outside the system's admissible set.
    DegenerateWeightsError
        A ratio weight fell below the positivity floor.
    NumericalFailureError
        Non-finite state, or output outside a declared validity box, at
        the time of the first step that shows it.
    """
    n_steps, steps_per_record, grid = step_grid(system.process, t_end, h, record_every)
    m_records = n_steps // steps_per_record + 1
    check_recording(system, m_records)
    vec = system.check_initial(init)

    box = None
    if isinstance(law, GradientFeedback):
        box = law.family.validity_box

    n, d = system.n, system.d
    times = np.arange(m_records) * (steps_per_record * h)
    states = np.empty((m_records, system.state_size))

    law_or_zero = law if law is not None else ZeroControl(n, d)
    affine = None
    if system.supports_affine and hasattr(law_or_zero, "rowwise_affine"):
        affine = law_or_zero.rowwise_affine()

    y_rec = np.empty((m_records, n, d))
    u_rec = np.empty_like(y_rec)
    step = 0
    if affine is not None:
        states[0] = vec
        # values past the first bad step are discarded, and checks find it
        with np.errstate(all="ignore"):
            step, vec = _affine_path(system, affine, grid, steps_per_record, box, states)
    # the records before `step` are the affine path's
    done = m_records if step == n_steps else -(-step // steps_per_record)
    if step < n_steps:
        _generic_path(
            system, law_or_zero, vec, step, grid, steps_per_record, box, states, y_rec, u_rec
        )
    y_rec[:done] = system.output_flat(states[:done])
    for j in range(done):
        u_rec[j] = law_or_zero(j * steps_per_record * h, y_rec[j])
    x_rec, aux_rec = system.split(states)

    meta = {
        "system": system.name,
        "h": h,
        "t_end": t_end,
        "c1": system.c1,
        "ratio": system.ratio,
        "path": "generic" if affine is None else "affine",
        # the first faulty step of an affine run, where the generic loop took over
        "handoff_step": step if affine is not None and step < n_steps else None,
    }
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
    residual: float


def tail_length(n_samples: int) -> int:
    """Records in the tail that estimate_limit averages: the last tenth."""
    return int(math.ceil(n_samples * 0.1))


def estimate_limit(traj: Trajectory) -> LimitEstimate:
    """Tail-mean of the outputs with the in-tail spread as residual."""
    m_tail = tail_length(traj.n_samples)
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
    return LimitEstimate(y_limit, residual)
