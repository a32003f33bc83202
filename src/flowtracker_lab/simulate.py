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
ratio block, the last, couples only to itself, so its weights w are
known before the head, the other blocks, and come only from the step
grid's flow propagators. On (head, 1) the field is [[K(L), 0], [0, 0]]
plus alpha(t) * forcing with scale / w on the x rows, and each RK4 step
of the head is its exact map A = [[R, r], [0, 1]] from
`flowcore.rk4_maps`, the kernel of the mixing flow too. The path is
chosen from the system and the law alone; a law without
`rowwise_affine`, or whose `rowwise_affine` is None, takes the generic
one. Without a ratio block a constant step gives every step of a piece
the same map, whose powers A^1 ... A^m each piece caches; otherwise each
block of steps first advances the weights alone, by the prefix powers of
the one-step maps of w' = -L w that the step grid keeps per distinct
piece, builds each step's map from its four stage fields and composes
the maps of chunks of about sqrt(S) steps by prefix products, S the step
maps a stack holds. Either way one matrix-vector product per chunk
advances the head, batched products recover the head and the four
stages at every step of a block, and the records are read from those
states. A constant step's chunks end on records, and with record_every
= h the result is bit-identical to one map per step; the other chunks
ignore the records, so the states recorded there do not depend on
record_every. Only the generic loop raises a run's numerical errors.
The affine path finds the first faulty step: a stage output leaves the
zone or a stage derivative is not finite, or the end state is not
finite, leaves the validity box or has a weight under the floor; step 0
is faulty when the initial state is. The four-stage pass that looks for
a stage outside the zone is skipped on a block whose heads' outputs all
lie farther inside their radii than a stage output can move in a step.
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
from .flowcore import STACK_BYTES, Propagators, rk4_maps, write_tables
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

# Most steps a run takes: 1000 times the longest run a preset, test or
# benchmark integrates, 100,000 (pushsum-directed and
# counterexample-diminishing), and twice the 5e7 that a test parses.
MAX_STEPS = 100_000_000


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
        write_tables([(path, header, [self.times, *columns])], "\n")

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
    the step grid of h, in 1 to MAX_STEPS steps. It checks the switches once."""
    if t_end <= 0:
        raise InvalidInputError("t_end must be positive")
    if t_end > process.horizon + 1e-12:
        raise InvalidInputError(f"t_end {t_end} exceeds the process horizon {process.horizon}")
    steps_per_record = steps_in_span(record_every, h, "record_every")
    if steps_per_record < 1:
        raise InvalidInputError("record_every must be at least h")
    n_steps = steps_in_span(t_end, h, "t_end")
    if n_steps < 1:
        raise InvalidInputError(f"t_end {t_end} is less than one step of h {h}")
    if n_steps % steps_per_record:
        raise InvalidInputError("t_end must be a multiple of record_every")
    if n_steps > MAX_STEPS:
        raise InvalidInputError(f"{n_steps:.6g} steps pass the {MAX_STEPS:g}-step cap on a run")
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
    module docstring says: with a constant step and no ratio block they
    end on records or where a stack would pass STACK_BYTES, and otherwise
    every chunk but the last holds isqrt(S) steps, S = most_steps, and a
    block about as many chunks. They act on the head, and `ratio_run`
    gives the ratio weights. Batched products give every step's state,
    from which the records are read, and its four stages.
    """
    scale, offset, schedule, center, radius = coeffs
    h = grid.h
    n_steps = per_record * (len(states) - 1)
    n, d, size = system.n, system.d, system.state_size
    nd = n * d
    matrices = system.process.matrices
    ratio = system.ratio_slice is not None
    # the head's size: every block before the ratio block, the last
    inner = system.ratio_slice.start if ratio else size
    zone = not np.isinf(radius).all()
    diag = np.arange(nd)
    gains = np.repeat(scale, d)

    def fields_of(pieces):
        """The pieces' couplings of the head as linear fields [[K(L), 0],
        [0, 0]] on (head, 1), and of the ratio block, (k, n, n) or None."""
        coupling = system.coupling_matrix(matrices[pieces])
        out = np.zeros((len(coupling), inner + 1, inner + 1))
        out[:, :-1, :-1] = coupling[:, :inner, :inner]
        return out, coupling[:, inner:, inner:] if ratio else None

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

    def outputs(heads, r):
        """The outputs (k, n, d) of head states with ratio weights r or None."""
        x = heads[:, :nd].reshape(len(heads), n, d)
        return x if r is None else x / r[:, :, None]

    def distance(y):
        """Each agent's distance (k, n) from its center, outputs y (k, n, d)."""
        delta = y - center
        return np.abs(delta[..., 0]) if d == 1 else np.sqrt((delta * delta).sum(axis=2))

    firsts = np.asarray(grid.firsts)
    # steps per prefix stack, so that one stays within STACK_BYTES
    most_steps = max(1, STACK_BYTES // (8 * (inner + 1) ** 2))

    def chunks(step, stop, width, period):
        """(first step, length, count): runs of `count` chunks of `length`
        steps that tile [step, stop), each ending on a multiple of `period`
        or before `most_steps`, and whose stacks of `width` floats per step
        fit STACK_BYTES."""
        while step < stop:
            length = min(period - step % period, stop - step, most_steps)
            count = (stop - step) // period if length == period else 1
            most = max(1, STACK_BYTES // (8 * length * width))
            for first in range(0, count, most):
                yield step + first * length, length, min(most, count - first)
            step += count * length

    if ratio:
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
        are the head's coupling, one or one per step, the step sizes alpha
        of the four stages, a bound, at least 1, on the stage fields' row
        sums, the ratio block's included, and on 1 / r, and, with a ratio
        block, its couplings and stage weights r1 ... r4, one per step; the
        ratio weights, None without a ratio block, are those at the steps'
        heads and at the last step's end."""
        if schedule.kind == "constant" and not ratio:
            alphas = np.full(4, schedule.a0)
            step = 0
            for piece, steps in grid.legs(0, n_steps):
                coupling = fields_of(slice(piece, piece + 1))[0]
                f = stage_fields(coupling, alphas[:1], None)[0]
                powers = _prefix_powers(
                    rk4_maps(f, f, f, f, h), min(per_record, steps, most_steps)
                )
                reach = np.abs(f).sum(axis=1).max() + 1.0
                stages = (coupling[0, :-1, :-1], alphas, reach)
                for first, length, count in chunks(step, step + steps, size, per_record):
                    yield first, powers[None, :length], count, stages, None
                step += steps
            return
        r = states[0, inner:] if ratio else None
        run = None
        for first, length, count in chunks(0, n_steps, (inner + 1) ** 2, math.isqrt(most_steps)):
            steps = np.arange(first, first + count * length)
            t = steps * h
            piece = np.searchsorted(firsts, steps, side="right") - 1
            piece_fields, piece_laps = fields_of(slice(piece[0], piece[-1] + 1))
            fields = piece_fields[piece - piece[0]]
            a1, a2, a4 = (evaluate_many(schedule, s) for s in (t, t + 0.5 * h, t + h))
            alphas = (a1, a2, a2, a4)
            coupled = np.abs(piece_fields).sum(axis=-1).max()
            if not ratio:
                f1, f2, f4 = (stage_fields(fields, a, None) for a in (a1, a2, a4))
                f3 = f2
            else:
                run = ratio_run(r, first, first + len(steps))
                r = run[-1]
                # the ratio block of a stage state is the ratio RK4's stage
                laps = piece_laps[piece - piece[0]]
                r1 = run[:-1]
                r2 = r1 + (0.5 * h) * _matvec(laps, r1)
                r3 = r1 + (0.5 * h) * _matvec(laps, r2)
                r4 = r1 + h * _matvec(laps, r3)
                weights = np.stack((r1, r2, r3, r4))
                f1, f2, f3, f4 = (stage_fields(fields, a, ri) for a, ri in zip(alphas, weights))
                coupled = max(coupled, np.abs(piece_laps).sum(axis=-1).max())
            # bounds the stage fields' row sums and 1 / r
            low = 1.0 if not ratio else weights.min()
            by_law = max(a.max() for a in alphas) * (np.abs(gains).max() / low + np.abs(offset).max())
            reach = coupled + by_law + max(1.0, 1.0 / low) if low > 0 else np.inf
            maps = rk4_maps(f1, f2, f3, f4, h).reshape(count, length, inner + 1, inner + 1)
            for j in range(1, length):
                maps[:, j] = maps[:, j] @ maps[:, j - 1]
            stages = (fields[:, :-1, :-1], alphas, reach)
            yield first, maps, count, stages + ((laps, weights) if ratio else ()), run

    def stage_faults(heads, coupling, alphas, reach, laps=None, weights=(None,) * 4):
        """Per step, whether the generic loop's four stages from its head
        state, batched, with the head's coupling (one, or one per step),
        the step sizes of each stage, a bound on the stage fields' row sums
        and 1 / r and, with a ratio block, its couplings and stage weights,
        put an output outside the zone (NaN is outside) or give a
        derivative that is not finite; None when no step does. It returns
        None without the pass when every head's output lies farther than
        sqrt(d) * move inside its radius: a stage state lies within delta
        = h reach (1 + h reach)^2 max(|head|, 1) of its head, so a stage
        output within move = delta, or with weights at least `low`, within
        delta / low + max |x| max |r1 - rs| / low^2, of the head's."""
        # a stage's derivative and output are at most reach times its
        # state, which is at most (1 + h reach)^3 times the step's start;
        # max keeps a NaN that comes first
        top = max(np.abs(heads).max(), 1.0)
        safe = 1e300 / (reach * (1.0 + h * reach) ** 3)
        bounded = top < safe
        if laps is not None:
            bounded = bounded and np.abs(weights[0]).max() < safe
        if bounded and not zone:
            return None
        if bounded:
            move = delta = h * reach * (1.0 + h * reach) ** 2 * top
            if laps is not None:
                low = weights.min()
                drift = np.abs(weights[1:] - weights[0]).max()
                move = delta / low + np.abs(heads[:, :nd]).max() * drift / low**2
            bound = math.sqrt(d) * move
            if bound < radius.min():
                y = outputs(heads, weights[0])
                bound += 1e-12 * (np.abs(y).max() + np.abs(center).max() + move)
                if (radius - distance(y)).min() > bound:
                    return None
        inside = np.ones((len(heads), n), dtype=bool)
        finite = np.ones(len(heads), dtype=bool)
        v = heads
        for alpha, coeff, r in zip(alphas, (0.5 * h, 0.5 * h, h, None), weights):
            y = outputs(v, r)
            if zone:
                inside &= distance(y) <= radius
            u = np.reshape(alpha, (-1, 1, 1)) * (scale[:, None] * y + offset)
            k = _matvec(coupling, v)
            k[:, :nd] += u.reshape(len(v), nd)
            if not bounded:
                finite &= np.isfinite(k).all(axis=1)
                if laps is not None:
                    finite &= np.isfinite(_matvec(laps, r)).all(axis=1)
            if coeff is not None:
                v = heads + coeff * k
        if inside.all() and finite.all():
            return None
        return ~(inside.all(axis=1) & finite)

    z = states[0]
    if not np.isfinite(z).all() or (box is not None and box.outside(system.output_flat(z)).any()):
        return 0, z
    z, w = z[:inner], z[inner:]
    for first, prefix, count, stages, run in blocks():
        lin, off = prefix[..., :-1, :-1], prefix[..., :-1, -1]
        length = lin.shape[-3]
        starts = np.empty((count, inner))
        # one map that every chunk shares, or one per chunk
        mats, shifts = lin[:, -1].copy(), off[:, -1].copy()
        for i in range(count):
            starts[i] = z
            z = mats[i % len(mats)] @ z + shifts[i % len(mats)]
        ends = np.concatenate((starts[1:], z[None]))
        # one (length * inner, inner) product per chunk, not one per step
        flat_lin = lin.reshape(len(lin), length * inner, inner)
        block = (flat_lin @ starts[:, :, None]).reshape(count, length, inner) + off
        block[:, -1] = ends
        heads = np.concatenate((starts[:, None], block[:, :-1]), axis=1).reshape(-1, inner)
        block = block.reshape(-1, inner)
        # the records among the ends of steps first + 1 ... first + len(block)
        lo = first // per_record + 1
        picks = slice(lo * per_record - first - 1, None, per_record)
        ends_at = block[picks]
        records = slice(lo, lo + len(ends_at))
        states[records, :inner] = ends_at
        ends_w = None
        if run is not None:
            w, ends_w = run[-1], run[1:]
            states[records, inner:] = ends_w[picks]

        faulty = stage_faults(heads, *stages)
        # each step's end state: not finite, outside the box, under the floor
        bad_ends = [~np.isfinite(block)]
        if box is not None:
            bad_ends.append(box.outside(outputs(block, ends_w)).reshape(len(block), -1))
        if ends_w is not None:
            bad_ends.append(~np.isfinite(ends_w) | (ends_w < W_FLOOR))
        # whole-block checks first: per-step masks cost a clean block dearly
        if faulty is None and not any(bad.any() for bad in bad_ends):
            continue
        if faulty is not None:
            bad_ends.append(faulty[:, None])
        k = int(np.any([bad.any(axis=1) for bad in bad_ends], axis=0).argmax())
        return first + k, np.concatenate((heads[k], run[k])) if run is not None else heads[k]
    return n_steps, np.concatenate((z, w))


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
