"""Per-agent convex objective families, gradients, bounds, and minimizer oracles.

Each family assigns a convex differentiable f_i to each of n agents; the
network-wide objective is their sum. A family holds its agents as the rows
of one of two forms, HuberForm (a quadratic is a huber objective of
infinite radius) or LogisticForm, and each form evaluates every agent in
one array pass. Huber agents of finite radius and logistic agents have
intrinsically bounded gradients; quadratic agents do not, so a family with
one carries a validity box and the cap is taken over that box. Simulations
are expected to assert that trajectories stay inside the declared box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit

from .errors import CapabilityError, InvalidInputError, NumericalFailureError, check_known

ORACLE_GRAD_TOL = 1e-12
FLOAT_MAX = np.finfo(float).max


@dataclass(frozen=True, eq=False)
class Box:
    """An axis-aligned box in R^d used as a gradient-validity region."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise InvalidInputError("box bounds must be vectors of equal length")
        if np.any(hi <= lo):
            raise InvalidInputError("box must have positive extent")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def d(self) -> int:
        return self.lo.shape[0]

    def outside(self, y: np.ndarray) -> np.ndarray:
        """Which entries of the points y (..., d) lie outside; NaN does not."""
        return (y < self.lo) | (y > self.hi)

    def to_list(self) -> list:
        return [self.lo.tolist(), self.hi.tolist()]


def _point(x, d: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.shape != (d,):
        raise InvalidInputError(f"expected a point in R^{d}, got shape {arr.shape}")
    return arr


class HuberForm:
    """n huber objectives, one per row: agent i's is 0.5 c_i r^2 within
    r = ||x - centers[i]|| <= radius[i] and c_i radius_i r - 0.5 c_i
    radius_i^2 beyond, so its gradient norm caps at c_i radius_i. A
    quadratic agent has radius inf: its gradient is affine everywhere and
    bounded only over a box. The one constructor of quadratic and huber
    families, and the one place their parameters are checked. The minimizer
    oracle starts at the mean of the centers."""

    def __init__(self, centers, curvature, radius):
        self.centers = np.array(centers, dtype=float)
        self.n, self.d = self.centers.shape
        self.curvature = np.full(self.n, curvature, dtype=float)
        self.radius = np.full(self.n, radius, dtype=float)
        self.start = self.centers.sum(axis=0) / self.n  # the mean, as np.mean forms it
        for arr in (self.centers, self.curvature, self.radius):
            arr.setflags(write=False)
        if not self.curvature.min() > 0:
            raise InvalidInputError("curvature must be positive")
        if not self.radius.min() > 0:
            raise InvalidInputError("radius must be positive")
        with np.errstate(over="ignore"):
            self._cap = self.curvature * self.radius
            # the linear branch's offset: inf on a quadratic row, finite on a huber one
            self._offset = 0.5 * self.curvature * self.radius**2
        quadratic = np.isinf(self.radius)
        over = np.isinf(self._offset) & ~quadratic
        if over.any():
            c, r = self.curvature[over][0], self.radius[over][0]
            raise InvalidInputError(
                f"huber curvature {c} and radius {r} overflow: curvature * radius^2 is not finite"
            )
        self._all_quadratic = quadratic.all()
        # (n, 1) columns for the gradient, which runs at every RK4 stage
        self._curv = self.curvature[:, None]
        self._radius = self.radius[:, None]
        self._neg_radius = -self._radius
        self._finite_radius = np.minimum(self._radius, FLOAT_MAX)

    def values(self, pts: np.ndarray) -> np.ndarray:
        """(m, n): each agent's value at each row of the (m, d) points."""
        # agent-major (n, m) arrays: each operation runs along the samples, and
        # a sum over agents adds them in order, as a loop over agents would
        delta = pts - self.centers[:, None, :]
        r = np.sqrt((delta * delta).sum(axis=2))
        # a quadratic row's unused linear branch is inf - inf
        with np.errstate(invalid="ignore"):
            linear = self._cap[:, None] * r - self._offset[:, None]
        return np.where(r <= self._radius, 0.5 * self._curv * r * r, linear).T

    def grad(self, y: np.ndarray) -> np.ndarray:
        """(n, d): row i is agent i's gradient at row i of y, unchecked."""
        delta = y - self.centers
        if self._all_quadratic:
            return self._curv * delta
        if self.d == 1:
            # |delta| <= radius keeps c delta; beyond, c radius sign(delta)
            return self._curv * np.minimum(np.maximum(delta, self._neg_radius), self._radius)
        r = np.sqrt((delta * delta).sum(axis=1, keepdims=True))
        # radius / max(r, radius), a quadratic row's inf radius taken as the largest float
        # in the max: its quotient is then inf, not inf / inf, and fmin takes 1
        return self._curv * np.fmin(self._radius / np.maximum(r, self._finite_radius), 1.0) * delta

    def caps(self, box: Box | None) -> np.ndarray:
        """(n,) gradient norm bounds: c radius, or for a quadratic row c
        times its distance to the farthest corner of the box."""
        quadratic = np.isinf(self.radius)
        if not quadratic.any():
            return self._cap
        if box is None:
            raise CapabilityError("quadratic gradients are unbounded; supply a validity box")
        # the farthest corner takes the farther bound in each coordinate
        far = np.maximum(np.abs(box.lo - self.centers), np.abs(box.hi - self.centers))
        return np.where(quadratic, self.curvature * np.sqrt((far * far).sum(axis=1)), self._cap)

    def affine_zone(self):
        """(slope, intercept, centers, radii): the gradient at the (n, d)
        points Y is slope[:, None] * Y + intercept wherever every row lies
        in its zone, ||y_i - centers[i]|| <= radii[i]."""
        slope = self.curvature
        return slope, -slope[:, None] * self.centers, self.centers, self.radius


class LogisticForm:
    """n scalar softplus ramps, one per row: agent i's is
    softplus(signs[i] * (x - offsets[i])), increasing for sign +1 and
    decreasing for -1. Every gradient norm is at most 1, no gradient is
    affine on a zone, and the minimizer oracle starts at the origin."""

    def __init__(self, signs, offsets):
        self.signs = np.array(signs, dtype=float)
        self.offsets = np.array(offsets, dtype=float)
        self.n, self.d = len(signs), 1
        self.start = np.zeros(1)

    def values(self, pts: np.ndarray) -> np.ndarray:
        z = self.signs[:, None] * (pts[:, 0] - self.offsets[:, None])  # agent-major, as above
        return (np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)).T

    def grad(self, y: np.ndarray) -> np.ndarray:
        return (self.signs * expit(self.signs * (y[:, 0] - self.offsets)))[:, None]

    def caps(self, box: Box | None) -> np.ndarray:
        return np.abs(self.signs)

    def affine_zone(self):
        return None


@dataclass(frozen=True, eq=False)
class ObjectiveFamily:
    """n convex differentiable per-agent objectives on R^d, held as the
    rows of a form; `kind` names the FAMILIES constructor that built it."""

    kind: str
    form: HuberForm | LogisticForm
    validity_box: Box | None = None

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise InvalidInputError("need n >= 1 agents and d >= 1 dimensions")
        if self.validity_box is not None and self.validity_box.d != self.d:
            raise InvalidInputError("validity box dimension mismatch")

    @property
    def n(self) -> int:
        return self.form.n

    @property
    def d(self) -> int:
        return self.form.d

    def objective(self, pts: np.ndarray) -> np.ndarray:
        """F at each row of the (m, d) points, unchecked."""
        return self.form.values(pts).sum(axis=1)


# --- constructors -----------------------------------------------------------


def mirror_pair(
    offset: float = 1.0, curvature: float = 1.0, box: Box | None = None
) -> ObjectiveFamily:
    """Two scalar quadratics mirrored about the origin.

    Agent 0 minimizes 0.5*c*(x - offset)^2 and agent 1 the reflection,
    so the network optimum sits exactly at 0. Quadratics have unbounded
    gradients, so a validity box (default [-2, 2]) bounds them.
    """
    if not offset > 0:
        raise InvalidInputError("offset must be positive")
    offset, curvature = float(offset), float(curvature)
    if box is None:
        box = Box(np.array([-2.0]), np.array([2.0]))
    form = HuberForm([[offset], [-offset]], curvature, math.inf)
    return ObjectiveFamily("mirror-pair", form, box)


def huberized_quadratic(
    centers: Sequence, radius: float, curvature: float = 1.0, box: Box | None = None
) -> ObjectiveFamily:
    """Per-agent huberized quadratics centered at `centers` (n x d)."""
    radius, curvature = float(radius), float(curvature)
    form = HuberForm(np.atleast_2d(np.asarray(centers, dtype=float)), curvature, radius)
    return ObjectiveFamily("huberized-quadratic", form, box)


def logistic_scalar(
    signs: Sequence[float], offsets: Sequence[float], box: Box | None = None
) -> ObjectiveFamily:
    """Scalar softplus ramps; mixed signs make the sum coercive."""
    signs = [float(s) for s in signs]
    offsets = [float(b) for b in offsets]
    if len(signs) != len(offsets) or not signs:
        raise InvalidInputError("need matching nonempty signs and offsets")
    if any(s not in (-1.0, 1.0) for s in signs):
        raise InvalidInputError("signs must be +1 or -1")
    if 1.0 not in signs or -1.0 not in signs:
        raise InvalidInputError("need both signs so the sum has a minimizer")
    return ObjectiveFamily("logistic-scalar", LogisticForm(signs, offsets), box)


TABLE_ENTRY_KEYS = ("form", "center", "curvature", "radius")


def custom_table(entries: Sequence[dict], box: Box | None = None) -> ObjectiveFamily:
    """Per-agent quadratic or huber objectives specified inline.

    Each entry is {"form": "quadratic"|"huber", "center": [...],
    "curvature": c, "radius": r (huber only)}.
    """
    if not entries:
        raise InvalidInputError("custom table needs at least one entry")
    centers, curvature, radius = [], [], []
    for entry in entries:
        for key in entry:
            check_known(key, TABLE_ENTRY_KEYS, "custom-table entry key")
        center = np.atleast_1d(np.asarray(entry["center"], dtype=float))
        if center.ndim != 1:
            raise InvalidInputError(f"a center must be a point, got shape {center.shape}")
        form = entry.get("form", "quadratic")
        check_known(form, ("quadratic", "huber"), "objective form")
        centers.append(center)
        curvature.append(float(entry.get("curvature", 1.0)))
        radius.append(float(entry["radius"]) if form == "huber" else math.inf)
    if len({len(center) for center in centers}) > 1:
        raise InvalidInputError("all centers must share a dimension")
    return ObjectiveFamily("custom-table", HuberForm(centers, curvature, radius), box)


# each kind's constructor, which takes the kind's params and a box
FAMILIES = {
    "mirror-pair": mirror_pair,
    "huberized-quadratic": huberized_quadratic,
    "logistic-scalar": logistic_scalar,
    "custom-table": custom_table,
}


# --- evaluation -------------------------------------------------------------


def global_objective(fam: ObjectiveFamily, x) -> float:
    """F(x): sum of all per-agent objectives at a common point."""
    return float(fam.objective(_point(x, fam.d)[None, :])[0])


def global_gradient(fam: ObjectiveFamily, x) -> np.ndarray:
    rows = np.broadcast_to(_point(x, fam.d), (fam.n, fam.d))
    return fam.form.grad(rows).sum(axis=0)


# --- oracles ---------------------------------------------------------------


def _descend(fam: ObjectiveFamily, x0: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    # Step control watches gradient norms, not objective values: value
    # differences underflow near a minimum with F* = O(1), while gradient
    # norms keep full resolution. For steps inside the stable range the
    # gradient norm of a smooth convex function never increases, so an
    # increase means the step is too long.
    x = x0.copy()
    step = 1.0
    g = global_gradient(fam, x)
    gn = float(np.linalg.norm(g))
    for _ in range(max_iter):
        if gn <= tol:
            return x
        trial = x - step * g
        g_trial = global_gradient(fam, trial)
        gn_trial = float(np.linalg.norm(g_trial))
        if gn_trial > gn:
            step *= 0.5
            if step < 1e-18:
                raise NumericalFailureError("minimizer oracle step collapsed")
            continue
        x, g, gn = trial, g_trial, gn_trial
        step = min(step * 1.2, 1e3)
    raise NumericalFailureError(
        f"minimizer oracle did not reach gradient norm {tol:.1e}"
    )


def optimizer_oracle(fam: ObjectiveFamily) -> tuple[np.ndarray, float]:
    """A global minimizer of the summed objective and its value.

    A centralized backtracking gradient descent from the form's start
    point runs to gradient norm ORACLE_GRAD_TOL, which is far tighter than
    any tolerance used when comparing simulations against the oracle. A
    mirror pair starts at its minimizer 0, where the gradients cancel.
    """
    x_star = _descend(fam, fam.form.start, ORACLE_GRAD_TOL, 200_000)
    return x_star, global_objective(fam, x_star)


def gradient_bound(fam: ObjectiveFamily) -> float:
    """Uniform bound K on all per-agent gradient norms.

    Analytic for huberized and logistic agents; quadratic agents need the
    family's validity box (their gradients grow without one) and the bound
    is attained at a box corner.
    """
    return float(fam.form.caps(fam.validity_box).max())


# --- serialization ----------------------------------------------------------


def family_from_dict(data: dict) -> ObjectiveFamily:
    """The family a dict describes; harness guards against a malformed one."""
    for key in data:
        check_known(key, ("kind", "params", "box"), "family key")
    kind = data["kind"]
    check_known(kind, tuple(FAMILIES), "objective kind")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise InvalidInputError(f"family params must be an object, got {params!r}")
    box = None
    if "box" in data:
        if not isinstance(data["box"], list):
            raise InvalidInputError(f"family box must be an array, got {data['box']!r}")
        box = Box(*data["box"])
    return FAMILIES[kind](**params, box=box)
