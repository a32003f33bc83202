"""Distributed input-output systems whose state average tracks the average input.

Four concrete systems share the pattern: the shared state block x mixes
through -L(t)x plus the control input, auxiliary blocks (ratio weights,
dual variables) mix through L(t) as well, and each agent's output is its
estimate of the network average. Because columns of L(t) sum to zero, the
row average of x obeys d/dt xbar = (1/n) sum_i u_i for every system here;
that constant is exposed as c1.

So one class describes all four: a k x k coupling matrix over the state
blocks, the shape of each aux block, and the ratio block if the output
is a ratio. The SYSTEMS table holds these, and each system's
requirements, as one row per system. States are exchanged with
integrators as flat vectors; `pack`/`unpack` translate to the
structured SystemState view.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import CapabilityError, InvalidInputError, check_known
from .graphnet import LaplacianProcess
from .objectives import ObjectiveFamily, gradient_affine_zone, gradient_map
from .schedules import StepSchedule, constant, evaluate

# Ratio weights below this abort the run instead of being clamped;
# clamping would silently change the dynamics.
W_FLOOR = 1e-9


@dataclass(frozen=True, eq=False)
class SystemState:
    """Structured view of one system's state: shared rows x plus aux blocks."""

    x: np.ndarray
    aux: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        object.__setattr__(self, "x", x)
        object.__setattr__(
            self, "aux", {k: np.asarray(v, dtype=float) for k, v in self.aux.items()}
        )


class FlowTrackerSystem:
    """One flow tracker: k state blocks S_0 = x, S_1, ... mixing through L(t).

    Block j's derivative is sum_i coupling[i][j] * L(t) S_i, plus the
    control input u on the x block. `aux` lists the blocks after x as
    (name, per-agent width 1 or "d") pairs in flat-vector order, and
    `aux_layout` holds them as (name, shape) pairs, shape (n,) or (n, d).
    The output is x, or x_i / r_i row by row when `ratio` names a width-1
    ratio-weight block r, which then starts at 1 for every agent.
    """

    def __init__(
        self,
        process: LaplacianProcess,
        name: str,
        d: int,
        coupling,
        aux: tuple[tuple[str, int | str], ...],
        ratio: str | None,
    ):
        if d < 1:
            raise InvalidInputError("state dimension d must be positive")
        self.process = process
        self.name = name
        self.n = process.n
        self.d = d
        self.c1 = 1.0 / self.n
        self.coupling = np.asarray(coupling, dtype=float)
        self.aux_layout = tuple((block, (self.n,) if w == 1 else (self.n, d)) for block, w in aux)
        self.ratio = ratio
        self._nd = self.n * d
        widths = [d] + [1 if w == 1 else d for _, w in aux]
        offsets = list(accumulate((self.n * w for w in widths), initial=0))
        self._blocks = [
            (slice(lo, hi), w) for lo, hi, w in zip(offsets, offsets[1:], widths)
        ]
        self.state_size = offsets[-1]
        names = [block for block, _ in aux]
        self._ratio_block = None if ratio is None else 1 + names.index(ratio)
        self.ratio_slice = None if ratio is None else self._blocks[self._ratio_block][0]

    @property
    def supports_affine(self) -> bool:
        """Whether the ratio block, if any, couples only to itself. Then the
        ratio trajectory is known before the other blocks, and under a law
        affine in the output the closed loop is affine in those blocks.
        Every SYSTEMS row qualifies."""
        k = self._ratio_block
        if k is None:
            return True
        others = self.coupling.copy()
        others[k, k] = 0.0
        return not (others[k].any() or others[:, k].any())

    def pack(self, state: SystemState) -> np.ndarray:
        if state.x.shape != (self.n, self.d):
            raise InvalidInputError(
                f"x must be {self.n}x{self.d}, got {state.x.shape}"
            )
        parts = [state.x.ravel()]
        for name, shape in self.aux_layout:
            if name not in state.aux:
                raise InvalidInputError(f"state is missing aux block {name!r}")
            block = np.asarray(state.aux[name], dtype=float)
            if block.shape != shape:
                raise InvalidInputError(f"aux block {name!r} must have shape {shape}")
            parts.append(block.ravel())
        return np.concatenate(parts) if len(parts) > 1 else parts[0].copy()

    def split(self, flat: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Views of x and of each aux block in flat states with any leading axes."""
        lead = flat.shape[:-1]
        x = flat[..., : self._nd].reshape(*lead, self.n, self.d)
        aux = {
            name: flat[..., rows].reshape(*lead, *shape)
            for (name, shape), (rows, _) in zip(self.aux_layout, self._blocks[1:])
        }
        return x, aux

    def unpack(self, vec: np.ndarray) -> SystemState:
        x, aux = self.split(vec)
        return SystemState(x.copy(), {name: block.copy() for name, block in aux.items()})

    def initial_state(self, x, **aux) -> SystemState:
        """x plus the aux blocks given; the rest start at 0, a ratio block at 1."""
        names = [name for name, _ in self.aux_layout]
        extra = sorted(set(aux) - set(names))
        if extra:
            raise InvalidInputError(
                f"{self.name} has no aux block {extra[0]!r}; its blocks are {names}"
            )
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.d == 1 and x.size == self.n:
            x = x.reshape(self.n, 1)
        blocks = {}
        for name, shape in self.aux_layout:
            value = aux.get(name)
            if value is None:
                value = np.ones(shape) if name == self.ratio else np.zeros(shape)
            blocks[name] = value
        return SystemState(x, blocks)

    def check_initial(self, state: SystemState) -> None:
        """Validate membership in the system's admissible initial set."""
        self.pack(state)
        if self.ratio is not None and not np.array_equal(
            state.aux[self.ratio], np.ones(self.n)
        ):
            raise InvalidInputError(
                f"{self.name} requires {self.ratio}(0) = 1 for every agent"
            )

    def coupling_matrix(self, lap_matrix: np.ndarray) -> np.ndarray:
        """The matrix of the unforced vector field on flat states for one
        piece, or a stack of them for a stack of Laplacians (..., n, n)."""
        lead = lap_matrix.shape[:-2]
        big = np.zeros((*lead, self.state_size, self.state_size))
        mixing = {}
        for i, (cols, width) in enumerate(self._blocks):
            for j, (rows, _) in enumerate(self._blocks):
                if self.coupling[i, j]:
                    if width not in mixing:
                        # L kron I_width, stacked
                        kron = lap_matrix[..., :, None, :, None] * np.eye(width)[:, None, :]
                        mixing[width] = kron.reshape(*lead, self.n * width, self.n * width)
                    big[..., rows, cols] = self.coupling[i, j] * mixing[width]
        return big

    def output_flat(self, vec: np.ndarray) -> np.ndarray:
        """The outputs (..., n, d) of flat states (..., state_size)."""
        x = vec[..., : self._nd].reshape(vec.shape[:-1] + (self.n, self.d))
        if self.ratio_slice is None:
            return x
        return x / vec[..., self.ratio_slice, None]

    def deriv_state(self, t: float, state: SystemState, u: np.ndarray) -> SystemState:
        """Structured view of the flat vector field (probe-friendly)."""
        out = self.coupling_matrix(self.process.at(t).matrix) @ self.pack(state)
        out[: self._nd] += np.asarray(u, dtype=float).ravel()
        return self.unpack(out)

    def output_state(self, t: float, state: SystemState) -> np.ndarray:
        return self.output_flat(self.pack(state))


# --- the systems -------------------------------------------------------------

# Gains from PROVEN_GAIN up are in the proven sufficient range; the
# default gain is the least of them.
PROVEN_GAIN = 5.0
DEFAULT_GAIN = PROVEN_GAIN


@dataclass(frozen=True)
class SystemRow:
    """What sets one flow tracker apart: its coupling K at gain a, its aux
    blocks as (name, per-agent width 1 or "d"), its ratio block, and its
    requirements: weight balance ("warned" or "required"), a gain a > 0
    that warns below PROVEN_GAIN, and scalar states (d = 1)."""

    coupling: Callable[[float], list]
    aux: tuple[tuple[str, int | str], ...] = ()
    ratio: str | None = None
    balance: str | None = None
    gain: bool = False
    scalar: bool = False


# saddle-point is the proportional-integral coupling of Wang & Elia (2010);
# a ratio block is push-sum (Kempe, Dobra & Gehrke, 2003)
SYSTEMS = {
    "averaging": SystemRow(lambda a: [[-1.0]], balance="warned"),
    "push-sum": SystemRow(lambda a: [[-1.0, 0.0], [0.0, -1.0]], (("w", 1),), ratio="w"),
    "saddle-point": SystemRow(
        lambda a: [[-a, 1.0], [-1.0, 0.0]], (("w", "d"),), balance="required", gain=True
    ),
    "spps": SystemRow(
        lambda a: [[-a, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
        (("z", 1), ("v", 1)), ratio="v", gain=True, scalar=True,
    ),
}

SYSTEM_NAMES = tuple(SYSTEMS)


def make_system(
    name: str, process: LaplacianProcess, d: int = 1, a: float = DEFAULT_GAIN
) -> FlowTrackerSystem:
    """The SYSTEMS row `name` on `process`, once the row's requirements hold."""
    check_known(name, SYSTEM_NAMES, "dynamics")
    row = SYSTEMS[name]
    a = float(a)  # a number on every row, also where the coupling ignores it
    if row.scalar and d != 1:
        raise CapabilityError(f"{name} is defined for scalar agent states (d = 1)")
    if row.gain and a <= 0:
        raise InvalidInputError("gain a must be positive")
    if row.balance is not None and not process.is_weight_balanced():
        if row.balance == "required":
            raise InvalidInputError(f"{name} dynamics needs weight-balanced pieces")
        warnings.warn(
            f"{name} on a non-weight-balanced process: input tracking is not guaranteed",
            stacklevel=2,
        )
    if row.gain and a < PROVEN_GAIN:
        warnings.warn(
            f"gain a < {PROVEN_GAIN:g} is outside the proven sufficient range", stacklevel=2
        )
    return FlowTrackerSystem(process, name, d, row.coupling(a), row.aux, row.ratio)


def averaging_system(process: LaplacianProcess, d: int = 1) -> FlowTrackerSystem:
    """dx = -L(t) x + u with direct output y = x.

    Warns when pieces are not weight-balanced, since then the state
    average no longer integrates the average input.
    """
    return make_system("averaging", process, d)


def push_sum_system(process: LaplacianProcess, d: int = 1) -> FlowTrackerSystem:
    """Ratio consensus: dx = -L x + u, dw = -L w, y_i = x_i / w_i.

    Weight balance is not required; the ratio de-biases the mixing as
    long as the weights stay bounded away from zero.
    """
    return make_system("push-sum", process, d)


def saddle_point_system(process: LaplacianProcess, a: float, d: int = 1) -> FlowTrackerSystem:
    """dx = -a L x - L w + u, dw = L x, y = x, for weight-balanced processes."""
    return make_system("saddle-point", process, d, a)


def spps_system(process: LaplacianProcess, a: float, d: int = 1) -> FlowTrackerSystem:
    """Saddle-point mixing combined with ratio weights, scalar states only.

    dx = -a L x - L z + u, dz = L x, dv = -L v, y_i = x_i / v_i.
    """
    return make_system("spps", process, d, a)


# --- control laws -----------------------------------------------------------


class GradientFeedback:
    """u_i(t) = -alpha(t) * grad f_i(y_i): the distributed gradient feedback."""

    def __init__(self, family: ObjectiveFamily, schedule: StepSchedule):
        self.family = family
        self.schedule = schedule
        self.n = family.n
        self.d = family.d
        self._grad = gradient_map(family)

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        return (-evaluate(self.schedule, t)) * self._grad(y)

    def rowwise_affine(self):
        """(scale, offset, schedule, center, radius) with u(t, y) = alpha(t)
        * (scale[:, None] * y + offset), alpha the schedule, wherever every
        row y_i lies within radius[i] of center[i]: everywhere (radius inf)
        for quadratic agents, within the radius for huber ones; any
        schedule. None for a family without an affine form (logistic)."""
        zone = gradient_affine_zone(self.family)
        if zone is None:
            return None
        slope, intercept, center, radius = zone
        return -slope, -intercept, self.schedule, center, radius


class ZeroControl:
    """u identically zero; free mixing."""

    def __init__(self, n: int, d: int):
        self.n = n
        self.d = d
        self._zeros = np.zeros((n, d))

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        return self._zeros

    def rowwise_affine(self):
        zeros = np.zeros((self.n, self.d))
        return np.zeros(self.n), zeros, constant(1.0), zeros, np.full(self.n, math.inf)


def gradient_feedback(family: ObjectiveFamily, schedule: StepSchedule) -> GradientFeedback:
    return GradientFeedback(family, schedule)


def predicted_spps_rate(a: float, pi_min: float, gamma: float, n: int) -> float:
    """Per-unit-time contraction factor exp(-2 a pi_min gamma / n^2).

    Valid for gain a >= PROVEN_GAIN, a strictly positive common stationary
    distribution with smallest entry pi_min, and per-piece minimum cut at
    least gamma.
    """
    if a < PROVEN_GAIN:
        raise InvalidInputError(f"the rate formula requires gain a >= {PROVEN_GAIN:g}")
    if not (0 < pi_min <= 1):
        raise InvalidInputError("pi_min must lie in (0, 1]")
    if gamma <= 0:
        raise InvalidInputError("minimum cut gamma must be positive")
    if n < 1:
        raise InvalidInputError("agent count must be positive")
    return math.exp(-2.0 * a * pi_min * gamma / (n * n))
