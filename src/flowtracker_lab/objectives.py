"""Per-agent convex objective families, gradients, bounds, and minimizer oracles.

Each family assigns a convex differentiable f_i to each of n agents; the
network-wide objective is their sum. Kinds with intrinsically bounded
gradients (huberized quadratics, logistic) carry an analytic gradient cap;
plain quadratics have unbounded gradients, so they carry a validity box
instead and the cap is taken over that box. Simulations are expected to
assert that trajectories stay inside the declared box.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import expit

from .errors import CapabilityError, InvalidInputError, NumericalFailureError, check_known

ORACLE_GRAD_TOL = 1e-12


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

    def corners(self):
        for choice in itertools.product(*zip(self.lo, self.hi)):
            yield np.array(choice)

    def to_list(self) -> list:
        return [self.lo.tolist(), self.hi.tolist()]


def _point(x, d: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.shape != (d,):
        raise InvalidInputError(f"expected a point in R^{d}, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class _Quadratic:
    center: np.ndarray
    curvature: float

    def value(self, x):
        r = x - self.center
        return 0.5 * self.curvature * float(r @ r)

    def values(self, pts):
        r = pts - self.center
        return 0.5 * self.curvature * (r * r).sum(axis=1)

    def grad(self, x):
        return self.curvature * (x - self.center)

    def analytic_cap(self):
        return None

    def box_cap(self, box: Box):
        return self.curvature * max(
            float(np.linalg.norm(c - self.center)) for c in box.corners()
        )


@dataclass(frozen=True, eq=False)
class _Huber:
    """Quadratic near the center, linear beyond `radius`; gradient norm
    caps at curvature * radius everywhere."""

    center: np.ndarray
    curvature: float
    radius: float

    def value(self, x):
        r = float(np.linalg.norm(x - self.center))
        if r <= self.radius:
            return 0.5 * self.curvature * r * r
        return self.curvature * self.radius * r - 0.5 * self.curvature * self.radius**2

    def values(self, pts):
        delta = pts - self.center
        r = np.sqrt((delta * delta).sum(axis=1))
        c, rad = self.curvature, self.radius
        return np.where(r <= rad, 0.5 * c * r * r, c * rad * r - 0.5 * c * rad**2)

    def grad(self, x):
        delta = x - self.center
        r = float(np.linalg.norm(delta))
        if r <= self.radius:
            return self.curvature * delta
        return self.curvature * self.radius * delta / r

    def analytic_cap(self):
        return self.curvature * self.radius


def _check_huber_scale(curvature: float, radius: float) -> None:
    """The linear branch's offset curvature * radius^2 / 2 must be a finite float."""
    if not math.isfinite(curvature * radius * radius):
        raise InvalidInputError(
            f"huber curvature {curvature} and radius {radius} overflow: "
            "curvature * radius^2 is not finite"
        )


@dataclass(frozen=True, eq=False)
class _Logistic:
    """Scalar softplus ramp: sign=+1 increases, sign=-1 decreases."""

    sign: float
    offset: float

    def value(self, x):
        z = self.sign * (float(x[0]) - self.offset)
        return math.log1p(math.exp(-abs(z))) + max(z, 0.0)

    def values(self, pts):
        z = self.sign * (pts[:, 0] - self.offset)
        return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)

    def grad(self, x):
        return np.array([self.sign * expit(self.sign * (float(x[0]) - self.offset))])

    def analytic_cap(self):
        return abs(self.sign)


@dataclass(frozen=True, eq=False)
class ObjectiveFamily:
    """n convex differentiable per-agent objectives on R^d, with the
    parameters its constructor validated, as FAMILIES[kind] takes them."""

    kind: str
    n: int
    d: int
    agents: tuple
    validity_box: Box | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise InvalidInputError("need n >= 1 agents and d >= 1 dimensions")
        if len(self.agents) != self.n:
            raise InvalidInputError("need one objective per agent")
        if self.validity_box is not None and self.validity_box.d != self.d:
            raise InvalidInputError("validity box dimension mismatch")

    def value_i(self, i: int, x) -> float:
        return self.agents[i].value(_point(x, self.d))

    def grad_i(self, i: int, x) -> np.ndarray:
        return self.agents[i].grad(_point(x, self.d))


# --- constructors -----------------------------------------------------------


def mirror_pair(
    offset: float = 1.0, curvature: float = 1.0, box: Box | None = None
) -> ObjectiveFamily:
    """Two scalar quadratics mirrored about the origin.

    Agent 0 minimizes 0.5*c*(x - offset)^2 and agent 1 the reflection,
    so the network optimum sits exactly at 0. Quadratics have unbounded
    gradients, so a validity box (default [-2, 2]) bounds them.
    """
    if offset <= 0 or curvature <= 0:
        raise InvalidInputError("offset and curvature must be positive")
    offset, curvature = float(offset), float(curvature)
    if box is None:
        box = Box(np.array([-2.0]), np.array([2.0]))
    agents = (
        _Quadratic(np.array([offset]), curvature),
        _Quadratic(np.array([-offset]), curvature),
    )
    params = {"offset": offset, "curvature": curvature}
    return ObjectiveFamily("mirror-pair", 2, 1, agents, box, params)


def huberized_quadratic(
    centers: Sequence, radius: float, curvature: float = 1.0, box: Box | None = None
) -> ObjectiveFamily:
    """Per-agent huberized quadratics centered at `centers` (n x d)."""
    c = np.atleast_2d(np.asarray(centers, dtype=float))
    if radius <= 0 or curvature <= 0:
        raise InvalidInputError("radius and curvature must be positive")
    radius, curvature = float(radius), float(curvature)
    _check_huber_scale(curvature, radius)
    n, d = c.shape
    agents = tuple(_Huber(c[i].copy(), curvature, radius) for i in range(n))
    params = {"centers": c.tolist(), "radius": radius, "curvature": curvature}
    return ObjectiveFamily("huberized-quadratic", n, d, agents, box, params)


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
    agents = tuple(_Logistic(s, b) for s, b in zip(signs, offsets))
    params = {"signs": signs, "offsets": offsets}
    return ObjectiveFamily("logistic-scalar", len(signs), 1, agents, box, params)


TABLE_ENTRY_KEYS = ("form", "center", "curvature", "radius")


def custom_table(entries: Sequence[dict], box: Box | None = None) -> ObjectiveFamily:
    """Per-agent quadratic or huber objectives specified inline.

    Each entry is {"form": "quadratic"|"huber", "center": [...],
    "curvature": c, "radius": r (huber only)}.
    """
    if not entries:
        raise InvalidInputError("custom table needs at least one entry")
    agents = []
    normalized = []
    d = None
    for entry in entries:
        for key in entry:
            check_known(key, TABLE_ENTRY_KEYS, "custom-table entry key")
        center = np.atleast_1d(np.asarray(entry["center"], dtype=float))
        if center.ndim != 1:
            raise InvalidInputError(f"a center must be a point, got shape {center.shape}")
        if d is None:
            d = center.shape[0]
        elif center.shape[0] != d:
            raise InvalidInputError("all centers must share a dimension")
        curv = float(entry.get("curvature", 1.0))
        if curv <= 0:
            raise InvalidInputError("curvature must be positive")
        form = entry.get("form", "quadratic")
        spec = {"form": form, "center": center.tolist(), "curvature": curv}
        if form == "quadratic":
            agents.append(_Quadratic(center, curv))
        elif form == "huber":
            radius = float(entry["radius"])
            if radius <= 0:
                raise InvalidInputError("huber radius must be positive")
            _check_huber_scale(curv, radius)
            agents.append(_Huber(center, curv, radius))
            spec["radius"] = radius
        else:
            raise InvalidInputError(f"unknown objective form {form!r}")
        normalized.append(spec)
    params = {"entries": normalized}
    return ObjectiveFamily("custom-table", len(agents), d, tuple(agents), box, params)


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
    x = _point(x, fam.d)
    return float(sum(agent.value(x) for agent in fam.agents))


def global_gradient(fam: ObjectiveFamily, x) -> np.ndarray:
    x = _point(x, fam.d)
    g = np.zeros(fam.d)
    for agent in fam.agents:
        g += agent.grad(x)
    return g


def gradient_map(fam: ObjectiveFamily):
    """The stacked gradient as a function of the (n x d) points, unchecked.

    Trajectory integration evaluates the stacked gradient at every RK4
    stage, so homogeneous families get a closure vectorized across agents.
    """
    agents = fam.agents
    if all(isinstance(a, _Quadratic) for a in agents):
        curv = np.array([a.curvature for a in agents])[:, None]
        centers = np.vstack([a.center for a in agents])
        return lambda y: curv * (y - centers)
    if all(isinstance(a, _Huber) for a in agents):
        curv = np.array([a.curvature for a in agents])[:, None]
        radius = np.array([a.radius for a in agents])[:, None]
        centers = np.vstack([a.center for a in agents])
        if fam.d == 1:
            # |delta| <= radius keeps curv * delta; beyond, curv * radius * sign
            return lambda y: curv * np.minimum(np.maximum(y - centers, -radius), radius)

        def huber_grad(y):
            delta = y - centers
            r = np.sqrt((delta * delta).sum(axis=1, keepdims=True))
            return curv * (radius / np.maximum(r, radius)) * delta

        return huber_grad
    if all(isinstance(a, _Logistic) for a in agents):
        signs = np.array([a.sign for a in agents])
        offsets = np.array([a.offset for a in agents])
        return lambda y: (signs * expit(signs * (y[:, 0] - offsets)))[:, None]
    return lambda y: np.array([agent.grad(row) for agent, row in zip(agents, y)])


def gradient_affine_zone(fam: ObjectiveFamily):
    """(slope, intercept, centers, radii) with stacked_gradient(Y) =
    slope[:, None] * Y + intercept wherever every row lies in its zone,
    ||y_i - centers[i]|| <= radii[i].

    A quadratic agent is affine everywhere (radius inf), a huber agent
    within its radius; a family with an agent of any other kind has no
    affine form and gives None.
    """
    agents = fam.agents
    if not all(isinstance(a, (_Quadratic, _Huber)) for a in agents):
        return None
    slope = np.array([a.curvature for a in agents])
    centers = np.vstack([a.center for a in agents])
    radii = np.array([a.radius if isinstance(a, _Huber) else math.inf for a in agents])
    return slope, -slope[:, None] * centers, centers, radii


def stacked_gradient(fam: ObjectiveFamily, points: np.ndarray) -> np.ndarray:
    """Row i is agent i's gradient at row i of `points` (n x d)."""
    pts = np.asarray(points, dtype=float)
    if pts.shape != (fam.n, fam.d):
        raise InvalidInputError(f"expected shape ({fam.n}, {fam.d}), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("evaluation points must be finite")
    return gradient_map(fam)(pts)


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

    The mirror pair is solved analytically; every other built-in kind
    runs a centralized backtracking gradient descent to gradient norm
    ORACLE_GRAD_TOL, which is far tighter than any tolerance used when
    comparing simulations against the oracle.
    """
    if fam.kind == "mirror-pair":
        x_star = np.zeros(1)
        return x_star, global_objective(fam, x_star)
    if fam.kind not in ("huberized-quadratic", "logistic-scalar", "custom-table"):
        raise CapabilityError(f"no minimizer oracle for kind {fam.kind!r}")
    centers = [
        np.asarray(agent.center)
        for agent in fam.agents
        if hasattr(agent, "center")
    ]
    x0 = np.mean(centers, axis=0) if centers else np.zeros(fam.d)
    x_star = _descend(fam, x0, ORACLE_GRAD_TOL, 200_000)
    return x_star, global_objective(fam, x_star)


def gradient_bound(fam: ObjectiveFamily, box: Box | None = None) -> float:
    """Uniform bound K on all per-agent gradient norms.

    Analytic for huberized and logistic agents; quadratic agents need a
    box (their gradients grow without one) and the bound is attained at
    a box corner.
    """
    if box is None:
        box = fam.validity_box
    caps = []
    for agent in fam.agents:
        cap = agent.analytic_cap()
        if cap is None:
            if box is None:
                raise CapabilityError(
                    "quadratic gradients are unbounded; supply a validity box"
                )
            cap = agent.box_cap(box)
        caps.append(cap)
    return float(max(caps))


# --- serialization ----------------------------------------------------------


def family_to_dict(fam: ObjectiveFamily) -> dict:
    out = {"kind": fam.kind, "n": fam.n, "d": fam.d, "params": fam.params}
    if fam.validity_box is not None:
        out["box"] = fam.validity_box.to_list()
    return out


def family_from_dict(data: dict) -> ObjectiveFamily:
    """The family a dict describes; harness guards against a malformed one."""
    kind = data["kind"]
    check_known(kind, tuple(FAMILIES), "objective kind")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise InvalidInputError(f"family params must be an object, got {params!r}")
    box = data.get("box")
    if box is not None:
        box = Box(*box)
    return FAMILIES[kind](**params, box=box)
