"""Time-varying directed graphs and their generalized Laplacian processes.

Conventions used throughout the package:

* An edge (i, j) means agent i reads agent j's state.
* A generalized Laplacian has non-positive off-diagonal entries and
  columns that sum to zero, so the mixing flow it generates is
  column-stochastic.
* Weight-balanced means the transpose is also a generalized Laplacian
  (rows sum to zero as well).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np
from scipy.optimize import linprog

from .errors import InvalidInputError, check_integer, check_known

# Tolerance for structural predicates (balance, stationarity, null spaces).
# Constructions are exact up to rounding, so this is generous.
TAU_STRUCT = 1e-10

# Default integrator step; piece dwell times must be multiples of it.
DEFAULT_STEP = 1e-3


def steps_in_span(span: float, h: float, what: str) -> int:
    """Steps of size h in span, which must land on the step grid within
    a relative 1e-9; the one grid rule of processes, flows and runs."""
    if not h > 0:
        raise InvalidInputError(f"step h must be positive, got {h}")
    steps = span / h
    if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * max(1.0, abs(steps)):
        raise InvalidInputError(f"{what} ({span}) is not a multiple of the step {h}")
    return int(round(steps))


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """A weighted directed graph on n agents, no self-loops.

    `weights[i, j] > 0` encodes the edge (i, j): agent i reads agent j.
    """

    n: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if self.n < 1:
            raise InvalidInputError("agent count must be positive")
        if w.shape != (self.n, self.n):
            raise InvalidInputError(f"weights must be {self.n}x{self.n}")
        if not np.all(np.isfinite(w)):
            raise InvalidInputError("weights must be finite")
        if np.any(w < 0):
            raise InvalidInputError("weights must be nonnegative")
        if np.any(np.diagonal(w) != 0):
            raise InvalidInputError("self-loops are not allowed (diagonal must be zero)")
        object.__setattr__(self, "weights", _frozen(w))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        ii, jj = np.nonzero(self.weights)
        return tuple(zip(ii.tolist(), jj.tolist()))

    def laplacian(self) -> "Laplacian":
        return make_laplacian(self.weights)


def graph_from_edges(n: int, edge_weights: dict[tuple[int, int], float]) -> DirectedGraph:
    """Build a DirectedGraph from an {(i, j): weight} mapping."""
    w = np.zeros((n, n))
    for (i, j), wt in edge_weights.items():
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidInputError(f"edge ({i},{j}) out of range for n={n}")
        if i == j:
            raise InvalidInputError("self-loops are not allowed")
        if wt <= 0:
            raise InvalidInputError("edge weights must be positive")
        w[i, j] = wt
    return DirectedGraph(n, w)


@dataclass(frozen=True, eq=False)
class Laplacian:
    """A generalized Laplacian: off-diagonal <= 0, columns sum to zero."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInputError("Laplacian must be a square matrix")
        if not np.all(np.isfinite(m)):
            raise InvalidInputError("weights and Laplacian entries must be finite")
        off = m.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off > 0):
            raise InvalidInputError("weights must be nonnegative (off-diagonal entries <= 0)")
        col = np.abs(m.sum(axis=0))
        if np.any(col > TAU_STRUCT):
            raise InvalidInputError(
                f"columns must sum to zero (max |sum| = {col.max():.3e})"
            )
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def weight_matrix(self) -> np.ndarray:
        """Recover the nonnegative weight matrix (off-diagonal, negated)."""
        a = -self.matrix
        a = a.copy()
        np.fill_diagonal(a, 0.0)
        return a


def make_laplacian(weights: np.ndarray) -> Laplacian:
    """Build the generalized Laplacian of a nonnegative weight matrix.

    Off-diagonal entries are the negated weights; each diagonal entry is
    the sum of its column's weights, so columns sum to zero by
    construction.

    Parameters
    ----------
    weights : (n, n) array_like
        Nonnegative edge weights with zero diagonal; ``weights[i, j]`` is
        the weight agent i places on agent j's state.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise InvalidInputError("weights must be a square matrix")
    if np.any(np.diagonal(w) != 0):
        raise InvalidInputError("weights must have a zero diagonal")
    lap = -w
    np.fill_diagonal(lap, w.sum(axis=0))
    # the Laplacian's own checks reject non-finite and negative weights
    return Laplacian(lap)


def is_weight_balanced(lap: Laplacian, tol: float = TAU_STRUCT) -> bool:
    """True iff rows also sum to zero, i.e. the transpose is a Laplacian too."""
    return bool(np.all(np.abs(lap.matrix.sum(axis=1)) <= tol))


def cut_value(lap: Laplacian, s1: Iterable[int], s2: Iterable[int]) -> float:
    """Sum of Laplacian entries over the index block s1 x s2.

    Indices are 0-based. For a Laplacian this is <= 0 whenever s2 is
    disjoint from s1 (off-diagonal block); use `min_cut` for the
    nonnegative weighted-cut convention.
    """
    s1 = sorted(set(s1))
    s2 = sorted(set(s2))
    n = lap.n
    if not s1:
        raise InvalidInputError("s1 must be nonempty")
    for idx in (*s1, *s2):
        if not (0 <= idx < n):
            raise InvalidInputError(f"index {idx} out of range for n={n}")
    if not s2:
        return 0.0
    return float(lap.matrix[np.ix_(s1, s2)].sum())


def _capped_source_side(
    residual: list[dict[int, float]], s: int, t: int, cap: float
) -> list[int] | None:
    """Edmonds-Karp s-t max flow on a residual graph, stopped once it reaches cap.

    `residual` (consumed) maps each node to {neighbour: capacity}. Returns
    the nodes reachable from s in the final residual graph, the source
    side of a minimum s-t cut, or None when the flow value reaches cap.
    """
    total = 0.0
    while True:
        parent = {s: s}
        queue = [s]
        for u in queue:
            for v, r in residual[u].items():
                if r > 0.0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
            if t in parent:
                break
        if t not in parent:
            return queue
        path = []
        v = t
        while v != s:
            path.append((parent[v], v))
            v = parent[v]
        push = min(residual[u][v] for u, v in path)
        if total + push >= cap:
            return None
        # the bottleneck drops to exactly 0.0, so every augmentation
        # removes an edge as it would in exact arithmetic
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push
        total += push


def min_cut(lap: Laplacian) -> float:
    """Minimum directed cut of the nonnegative weight matrix.

    Minimizes, over nonempty proper subsets S, the total weight of edges
    leaving S (entries A[i, j] with i in S, j outside, where
    A = -L off-diagonal). Every such S separates node 0 from some v, so
    the minimum is the least of maxflow(0 -> v) and maxflow(v -> 0) over
    v != 0. Those 2(n - 1) flows run Edmonds-Karp on the float weights,
    each stopped as soon as it reaches the best cut found so far, which
    starts at the least singleton cut (row or column sum of A). A flow
    that stops short yields its source side S, scored by the exact sum
    A[S, ~S], so the result is always the weight of a real cut. The
    search returns 0 as soon as a zero cut turns up, which is the case
    for every graph that is not strongly connected. The cost is
    polynomial, O(n^2 E^2) at worst; there is no size cap.
    """
    n = lap.n
    if n == 1:
        return 0.0
    a = lap.weight_matrix()
    best = float(min(a.sum(axis=1).min(), a.sum(axis=0).min()))
    if best <= 0.0:
        return 0.0
    ii, jj = np.nonzero(a)
    edges: list[dict[int, float]] = [{} for _ in range(n)]
    for i, j, w in zip(ii.tolist(), jj.tolist(), a[ii, jj].tolist()):
        edges[i][j] = w
        edges[j].setdefault(i, 0.0)
    for v in range(1, n):
        for s, t in ((0, v), (v, 0)):
            side = _capped_source_side([dict(row) for row in edges], s, t, best)
            if side is None:
                continue
            inside = np.zeros(n, dtype=bool)
            inside[side] = True
            best = min(best, float(a[inside][:, ~inside].sum()))
            if best <= 0.0:
                return 0.0
    return best


@dataclass(frozen=True, eq=False)
class LaplacianProcess:
    """A piecewise-constant Laplacian-valued signal on [0, horizon].

    Piece k is active on [start_times[k], start_times[k+1]) and the last
    piece runs to the horizon. Start times must begin at 0 and increase
    strictly.
    """

    start_times: tuple[float, ...]
    laplacians: tuple[Laplacian, ...]
    horizon: float
    max_entry: float = field(init=False)

    def __post_init__(self):
        ts = tuple(float(t) for t in self.start_times)
        laps = tuple(self.laplacians)
        if len(ts) == 0 or len(ts) != len(laps):
            raise InvalidInputError("need one start time per Laplacian piece")
        if ts[0] != 0.0:
            raise InvalidInputError("first piece must start at time 0")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise InvalidInputError("start times must increase strictly")
        if not self.horizon > ts[-1]:
            raise InvalidInputError("horizon must exceed the last start time")
        sizes = {lap.n for lap in laps}
        if len(sizes) != 1:
            raise InvalidInputError("all pieces must have the same agent count")
        object.__setattr__(self, "start_times", ts)
        object.__setattr__(self, "laplacians", laps)
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(
            self, "max_entry", float(max(np.abs(lap.matrix).max() for lap in laps))
        )

    @property
    def n(self) -> int:
        return self.laplacians[0].n

    def at(self, t: float) -> Laplacian:
        """Piece active at time t (right-continuous; horizon maps to the last piece)."""
        if t < 0 or t > self.horizon:
            raise InvalidInputError(f"time {t} outside [0, {self.horizon}]")
        k = int(np.searchsorted(self.start_times, t, side="right")) - 1
        return self.laplacians[k]

    def segments(self, t0: float, t1: float) -> Iterator[tuple[float, float, Laplacian]]:
        """Yield (start, end, Laplacian) covering [t0, t1] piece by piece."""
        if not (0 <= t0 <= t1 <= self.horizon):
            raise InvalidInputError(f"window [{t0}, {t1}] outside [0, {self.horizon}]")
        starts = self.start_times
        last = len(starts) - 1
        # from the piece holding t0 to the last one that starts before t1
        for k in range(bisect_right(starts, t0) - 1, last + 1):
            a = starts[k]
            if a >= t1:
                break
            b = starts[k + 1] if k < last else self.horizon
            lo, hi = max(a, t0), min(b, t1)
            if hi > lo:
                yield lo, hi, self.laplacians[k]

    def is_weight_balanced(self, tol: float = TAU_STRUCT) -> bool:
        return all(is_weight_balanced(lap, tol) for lap in self.laplacians)


def check_switch_alignment(process: LaplacianProcess, h: float) -> list[int]:
    """Step index of each piece's start; InvalidInputError unless every
    switch lands on the step grid of h."""
    return [0] + [steps_in_span(t, h, f"switching time {t}") for t in process.start_times[1:]]


def constant_process(lap: Laplacian, horizon: float) -> LaplacianProcess:
    """Wrap a single Laplacian as a process on [0, horizon]."""
    return LaplacianProcess((0.0,), (lap,), horizon)


def integrated_min_cut(
    process: LaplacianProcess, t: float, window: float, cuts: dict[int, float] | None = None
) -> float:
    """Integral of the per-piece min-cut over [t, t + window].

    Exact for piecewise-constant processes: each overlapping piece
    contributes overlap length times its cut value. `cuts` maps id(piece)
    to its min cut; pass one dict to a sweep of windows over the same
    process so that each piece is cut once. It must not outlive the
    process, whose pieces' ids it holds.
    """
    if window < 0:
        raise InvalidInputError("window must be nonnegative")
    if t < 0 or t + window > process.horizon + 1e-12:
        raise InvalidInputError(
            f"window [{t}, {t + window}] exceeds the process horizon {process.horizon}"
        )
    if window == 0:
        return 0.0
    if cuts is None:
        cuts = {}
    total = 0.0
    for lo, hi, lap in process.segments(t, min(t + window, process.horizon)):
        key = id(lap)
        if key not in cuts:
            cuts[key] = min_cut(lap)
        total += (hi - lo) * cuts[key]
    return total


def _common_null_basis(process: LaplacianProcess) -> np.ndarray:
    """Orthonormal basis (n x m) of the intersection of the pieces' null spaces."""
    stacked = np.vstack([lap.matrix for lap in process.laplacians])
    _, sing, vt = np.linalg.svd(stacked)
    scale = max(sing[0], 1.0) if sing.size else 1.0
    null_mask = np.zeros(vt.shape[0], dtype=bool)
    null_mask[sing.size :] = True
    null_mask[: sing.size] = sing <= TAU_STRUCT * scale
    return vt[null_mask].T


def common_stationary_distribution(process: LaplacianProcess) -> np.ndarray | None:
    """Strictly positive stochastic vector annihilated by every piece, if any.

    Returns pi with sum(pi) = 1, min(pi) > 0 and L_k pi = 0 for every
    piece (within TAU_STRUCT), or None when no such vector exists.
    """
    n = process.n
    basis = _common_null_basis(process)
    if basis.shape[1] == 0:
        return None
    if basis.shape[1] == 1:
        v = basis[:, 0]
        s = v.sum()
        if abs(s) <= TAU_STRUCT:
            return None
        pi = v / s
    else:
        # Maximize the smallest entry of a normalized vector in the null
        # space: variables (c, t), maximize t s.t. B c >= t, sum(B c) = 1.
        m = basis.shape[1]
        c_obj = np.zeros(m + 1)
        c_obj[-1] = -1.0
        a_ub = np.hstack([-basis, np.ones((n, 1))])
        b_ub = np.zeros(n)
        a_eq = np.concatenate([basis.sum(axis=0), [0.0]])[None, :]
        b_eq = np.array([1.0])
        res = linprog(
            c_obj,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=[(None, None)] * (m + 1),
            method="highs",
        )
        if not res.success or res.x[-1] <= 0:
            return None
        pi = basis @ res.x[:-1]
        pi = pi / pi.sum()
    if np.any(pi <= 0):
        return None
    residual = max(np.abs(lap.matrix @ pi).max() for lap in process.laplacians)
    if residual > TAU_STRUCT * max(1.0, process.max_entry):
        return None
    return pi


# --- random process generators -------------------------------------------

RANDOM_MODELS = ("switching-complete", "directed-ring-rotate", "B-window-strongly-connected")

# the most floats a random process may hold, about 128 MB, 32 times the
# largest a preset or benchmark builds; a piece holds its n x n Laplacian
# and some 250 bytes of objects, PIECE_OVERHEAD floats
MAX_PROCESS_FLOATS = 16_000_000
PIECE_OVERHEAD = 32
# the most pieces, which bounds the build time (some 0.3-0.4 ms a piece at
# n <= 5, so about 20 s), 25 times the largest a preset, test or benchmark
# builds (2,000 pieces on pushsum-directed)
MAX_PROCESS_PIECES = 50_000


def _complete_symmetric_weights(n: int, rng: np.random.Generator) -> np.ndarray:
    s = rng.uniform(0.5, 1.5, size=(n, n))
    w = 0.5 * (s + s.T)
    np.fill_diagonal(w, 0.0)
    return w


def _ring_weights(n: int, skip: int, rng: np.random.Generator) -> np.ndarray:
    w = np.zeros((n, n))
    for i in range(n):
        w[i, (i + skip) % n] = rng.uniform(0.5, 1.5)
    return w


def _window_piece_weights(n: int, k: int, b: int, rng: np.random.Generator) -> np.ndarray:
    w = np.zeros((n, n))
    group = k % b
    for i in range(n):
        if i % b == group:
            w[i, (i + 1) % n] = rng.uniform(0.5, 1.5)
    # one extra random edge keeps pieces from being bare ring fragments
    i = int(rng.integers(0, n))
    j = int(rng.integers(0, n - 1))
    j = j if j < i else j + 1
    w[i, j] = max(w[i, j], rng.uniform(0.5, 1.5))
    return w


def random_process(
    n: int,
    model: str,
    dwell: float,
    horizon: float,
    seed: int = 0,
    h: float = DEFAULT_STEP,
    B: int | None = None,
) -> LaplacianProcess:
    """Generate a seeded piecewise-constant Laplacian process.

    Models
    ------
    switching-complete
        Symmetric (hence weight-balanced) complete graph with fresh
        random weights each dwell interval.
    directed-ring-rotate
        Directed circulant ring whose skip rotates each piece; random
        per-edge weights make the pieces non-weight-balanced.
    B-window-strongly-connected
        Ring edges dealt into B groups, one group per piece, so the
        union over any B consecutive pieces is strongly connected.

    The dwell must be a positive multiple of the integrator step h so
    switching instants land on step boundaries.
    """
    if n < 2:
        raise InvalidInputError("random processes need at least 2 agents")
    check_known(model, RANDOM_MODELS, "model")
    check_integer(seed, "seed")
    if dwell <= 0:
        raise InvalidInputError("dwell must be positive")
    steps_in_span(dwell, h, "dwell")
    if horizon <= 0:
        raise InvalidInputError("horizon must be positive")
    if model == "B-window-strongly-connected":
        if B is None or B < 1:
            raise InvalidInputError("the B-window model needs a window size B >= 1")
        if B > n:
            raise InvalidInputError("window size B cannot exceed the agent count")
    n_pieces = horizon / dwell
    if n_pieces > MAX_PROCESS_PIECES:
        raise InvalidInputError(
            f"{n_pieces:.3g} pieces pass the {MAX_PROCESS_PIECES}-piece cap"
        )
    if n_pieces * (float(n) * n + PIECE_OVERHEAD) > MAX_PROCESS_FLOATS:
        raise InvalidInputError(
            f"{n_pieces:.3g} pieces of {n:.3g} agents pass the {MAX_PROCESS_FLOATS:g}-float cap"
        )
    rng = np.random.default_rng(seed)
    n_pieces = max(1, math.ceil(n_pieces - 1e-12))
    times = []
    laps = []
    for k in range(n_pieces):
        if model == "switching-complete":
            w = _complete_symmetric_weights(n, rng)
        elif model == "directed-ring-rotate":
            skip = 1 + (k % (n - 1)) if n > 2 else 1
            w = _ring_weights(n, skip, rng)
        else:
            w = _window_piece_weights(n, k, B, rng)
        times.append(k * dwell)
        laps.append(make_laplacian(w))
    return LaplacianProcess(tuple(times), tuple(laps), horizon)


# --- serialization ---------------------------------------------------------


def process_to_dict(process: LaplacianProcess) -> dict:
    """JSON-ready form; weights (not Laplacians) are the on-disk representation."""
    return {
        "n": process.n,
        "pieces": [
            {"t": t, "weights": lap.weight_matrix().tolist()}
            for t, lap in zip(process.start_times, process.laplacians)
        ],
        "horizon": process.horizon,
    }


def process_from_dict(data: dict) -> LaplacianProcess:
    try:
        n = int(data["n"])
        horizon = float(data["horizon"])
        pieces = [
            (float(piece["t"]), np.asarray(piece["weights"], dtype=float))
            for piece in data["pieces"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed process spec: {exc}") from exc
    if not pieces:
        raise InvalidInputError("process spec needs at least one piece")
    if any(w.shape != (n, n) for _, w in pieces):
        raise InvalidInputError(f"piece weights must be {n}x{n}")
    times = tuple(t for t, _ in pieces)
    return LaplacianProcess(times, tuple(make_laplacian(w) for _, w in pieces), horizon)
