"""Time-varying directed graphs and their generalized Laplacian processes.

Conventions used throughout the package:

* An edge (i, j) means agent i reads agent j's state.
* A generalized Laplacian has non-positive off-diagonal entries, a
  nonnegative diagonal and columns that sum to zero, so the mixing flow
  it generates is column-stochastic.
* Weight-balanced means the transpose is also a generalized Laplacian
  (rows sum to zero as well).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import InvalidInputError, check_integer, check_known

# Tolerance on a Laplacian's column sums and, for weight balance, its row sums.
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


# the rules of a generalized Laplacian, in the order a piece is judged by
LAPLACIAN_RULES = (
    "weights and Laplacian entries must be finite",
    "weights must be nonnegative (off-diagonal entries <= 0)",
    "columns must sum to zero (max |sum| = {:.3e})",
    "diagonal entries must be nonnegative (min {:.3e})",
)


def _check_laplacians(stack: np.ndarray) -> None:
    """InvalidInputError naming the first piece of a stack (m, n, n) that is
    not a generalized Laplacian and the first of LAPLACIAN_RULES it breaks;
    the one validator of Laplacians, by reductions without a stack-sized temporary."""
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise InvalidInputError("Laplacian must be a square matrix")
    m, n = stack.shape[:2]
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, or past the floats
        sums = np.abs(stack.sum(axis=1)).max(axis=1, initial=0.0)
    flat = stack.reshape(m, -1)
    # the off-diagonal entries: a flat matrix from entry 1 on, rows of n + 1
    off = flat[:, 1:].reshape(m, max(n - 1, 0), n + 1)[:, :, :-1]
    positive = off.max(axis=(1, 2), initial=0.0) > 0
    # a non-finite entry makes its column's sum non-finite, which fails here
    bad = ~(sums <= TAU_STRUCT) | positive
    # no weight matrix gives a negative diagonal; one min spares a clean stack the per-piece pass
    diagonal = flat[:, :: n + 1]
    if diagonal.min(initial=0.0) < 0:
        bad |= diagonal.min(axis=1) < 0
    if bad.any():
        k = int(bad.argmax())
        rule = 0 if not np.isfinite(stack[k]).all() else 1 if positive[k] else 2
        rule += rule == 2 and sums[k] <= TAU_STRUCT
        value = diagonal[k].min() if rule == 3 else sums[k]
        raise InvalidInputError(f"piece {k}: " + LAPLACIAN_RULES[rule].format(value))


def _laplacians_in_place(w: np.ndarray) -> np.ndarray:
    """The generalized Laplacians (see make_laplacian) of a C-contiguous
    float stack (m, n, n) of weight matrices, formed in the stack itself."""
    if w.ndim != 3 or w.shape[1] != w.shape[2]:
        raise InvalidInputError("weights must be a square matrix")
    m, n = w.shape[:2]
    diagonal = w.reshape(m, -1)[:, :: n + 1]
    if (diagonal != 0).any():
        k = int((diagonal != 0).any(axis=1).argmax())
        raise InvalidInputError(f"piece {k}: weights must have a zero diagonal")
    degrees = w.sum(axis=1)
    np.negative(w, out=w)
    diagonal[...] = degrees
    return w


@dataclass(frozen=True, eq=False, slots=True)
class Laplacian:
    """A generalized Laplacian, off-diagonal <= 0 <= diagonal and zero
    column sums: one piece's type, which a process views in its stack (`_view`)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        _check_laplacians(m[None])
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _view(cls, matrix: np.ndarray) -> "Laplacian":
        """A piece of a validated, read-only stack, as a Laplacian."""
        lap = object.__new__(cls)
        object.__setattr__(lap, "matrix", matrix)
        return lap

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def weight_matrix(self) -> np.ndarray:
        """Recover the nonnegative weight matrix (off-diagonal, negated)."""
        a = -self.matrix
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
    w = np.array(weights, dtype=float)
    # the Laplacian's own checks reject non-finite and negative weights
    return Laplacian(_laplacians_in_place(w[None])[0])


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


def _first_copies(stack: np.ndarray) -> tuple[int, ...]:
    """The index of each piece's first bitwise-identical piece in a stack; a
    piece whose bytes hash as an earlier, different piece's counts as new."""
    seen: dict[int, int] = {}  # hash of a piece's bytes -> the first piece with it
    firsts = []
    for k, piece in enumerate(stack):
        raw = piece.tobytes()
        j = seen.setdefault(hash(raw), k)
        firsts.append(j if j == k or stack[j].tobytes() == raw else k)
    return tuple(firsts)


@dataclass(frozen=True, eq=False)
class LaplacianProcess:
    """A piecewise-constant Laplacian-valued signal on [0, horizon].

    Piece k is active on [start_times[k], start_times[k+1]) and the last
    piece runs to the horizon. Start times must begin at 0 and increase
    strictly. The pieces come as a sequence of Laplacians or as a stack
    (m, n, n) of their matrices, taken over without a copy, and are held
    as `matrices`, that stack, read-only and validated in one pass;
    `distinct`, the index of each piece's first bitwise-identical piece,
    which keys every cache of per-piece work; and `laplacians`, a view of
    each piece, one object per distinct piece.
    """

    start_times: tuple[float, ...]
    laplacians: tuple[Laplacian, ...]
    horizon: float
    matrices: np.ndarray = field(init=False, repr=False)
    distinct: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        laps = self.laplacians
        if not isinstance(laps, np.ndarray):
            if len({lap.n for lap in laps}) > 1:
                raise InvalidInputError("all pieces must have the same agent count")
            laps = [lap.matrix for lap in laps] or np.empty((0, 0, 0))
        stack = np.ascontiguousarray(laps, dtype=float)
        _check_laplacians(stack)
        ts = tuple(float(t) for t in self.start_times)
        if len(ts) == 0 or len(ts) != len(stack):
            raise InvalidInputError("need one start time per Laplacian piece")
        if ts[0] != 0.0:
            raise InvalidInputError("first piece must start at time 0")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise InvalidInputError("start times must increase strictly")
        if not self.horizon > ts[-1]:
            raise InvalidInputError("horizon must exceed the last start time")
        stack.setflags(write=False)
        distinct = _first_copies(stack)
        views = {k: Laplacian._view(stack[k]) for k in dict.fromkeys(distinct)}
        object.__setattr__(self, "start_times", ts)
        object.__setattr__(self, "laplacians", tuple(map(views.__getitem__, distinct)))
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "matrices", stack)
        object.__setattr__(self, "distinct", distinct)

    @property
    def n(self) -> int:
        return self.matrices.shape[1]

    def pieces(self, t0: float, t1: float) -> Iterator[tuple[float, float, int]]:
        """Yield (start, end, piece index) covering [t0, t1] piece by piece."""
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
                yield lo, hi, k

    def segments(self, t0: float, t1: float) -> Iterator[tuple[float, float, Laplacian]]:
        """Yield (start, end, Laplacian) covering [t0, t1] piece by piece."""
        return ((lo, hi, self.laplacians[k]) for lo, hi, k in self.pieces(t0, t1))

    def is_weight_balanced(self) -> bool:
        return bool((np.abs(self.matrices.sum(axis=2)) <= TAU_STRUCT).all())


def check_switch_alignment(process: LaplacianProcess, h: float) -> list[int]:
    """Step index of each piece's start; InvalidInputError unless every
    switch lands on the step grid of h, by the rule of `steps_in_span`."""
    if len(process.start_times) == 1:
        return [0]
    if not h > 0:
        raise InvalidInputError(f"step h must be positive, got {h}")
    steps = np.array(process.start_times) / h
    rounded = np.round(steps)
    off = ~(np.abs(steps - rounded) <= 1e-9 * np.maximum(1.0, np.abs(steps)))
    if off.any():
        t = process.start_times[int(off.argmax())]
        steps_in_span(t, h, f"switching time {t}")
    return [int(k) for k in rounded.tolist()]


def constant_process(lap: Laplacian, horizon: float) -> LaplacianProcess:
    """Wrap a single Laplacian as a process on [0, horizon]."""
    return LaplacianProcess((0.0,), (lap,), horizon)


def integrated_min_cut(
    process: LaplacianProcess, t: float, window: float, cuts: dict[int, float] | None = None
) -> float:
    """Integral of the per-piece min-cut over [t, t + window].

    Exact for piecewise-constant processes: each overlapping piece
    contributes overlap length times its cut value. `cuts` maps a
    distinct piece's index (`process.distinct`) to its min cut; pass one
    dict to a sweep of windows over the same process so that each distinct
    piece is cut once. It holds only for that process.
    """
    if window < 0:
        raise InvalidInputError("window must be nonnegative")
    # the relative slack of the grid rule, so that long runs' windows fit
    if t < 0 or t + window > process.horizon + 1e-9 * max(1.0, process.horizon):
        raise InvalidInputError(
            f"window [{t}, {t + window}] exceeds the process horizon {process.horizon}"
        )
    if window == 0:
        return 0.0
    cuts = {} if cuts is None else cuts
    total = 0.0
    for lo, hi, k in process.pieces(t, min(t + window, process.horizon)):
        key = process.distinct[k]
        if key not in cuts:
            cuts[key] = min_cut(process.laplacians[k])
        total += (hi - lo) * cuts[key]
    return total


# --- random process generators -------------------------------------------

RANDOM_MODELS = ("switching-complete", "directed-ring-rotate", "B-window-strongly-connected")

# the most floats a random process may hold, about 128 MB, 32 times the
# largest a preset or benchmark builds; a piece holds its n x n slice of
# the stack and some 240 bytes of objects (its start time, its entry in
# `distinct` and its Laplacian view), within PIECE_OVERHEAD floats
MAX_PROCESS_FLOATS = 16_000_000
PIECE_OVERHEAD = 32
# the most pieces, 25 times the largest a preset, test or benchmark builds
# (2,000 pieces on pushsum-directed); a build takes some 3-4 us a piece at
# n = 5, 17 us on the B-window model, so at most about 1 s
MAX_PROCESS_PIECES = 50_000


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
        raise InvalidInputError(f"{n_pieces:.3g} pieces pass the {MAX_PROCESS_PIECES}-piece cap")
    if n_pieces * (float(n) * n + PIECE_OVERHEAD) > MAX_PROCESS_FLOATS:
        raise InvalidInputError(
            f"{n_pieces:.3g} pieces of {n:.3g} agents pass the {MAX_PROCESS_FLOATS:g}-float cap"
        )
    rng = np.random.default_rng(seed)
    m = max(1, math.ceil(n_pieces - 1e-12))
    # each model draws what a piece-by-piece loop would, in the same order
    if model == "switching-complete":
        w = rng.uniform(0.5, 1.5, size=(m, n, n))
        for i in range(n):  # w = 0.5 (w + w^T) in place, one row at a time
            upper = w[:, i, i + 1 :]
            upper += w[:, i + 1 :, i]
            upper *= 0.5
            w[:, i + 1 :, i] = upper
            w[:, i, i] = 0.0
    else:
        w = np.zeros((m, n, n))
        agents = np.arange(n)
        if model == "directed-ring-rotate":
            skips = 1 + np.arange(m)[:, None] % (n - 1)
            draws = rng.uniform(0.5, 1.5, size=(m, n))
            w[np.arange(m)[:, None], agents, (agents + skips) % n] = draws
        else:
            groups = agents % B
            for k, piece in enumerate(w):
                ring = agents[groups == k % B]
                piece[ring, (ring + 1) % n] = rng.uniform(0.5, 1.5, size=ring.size)
                # one extra random edge keeps pieces from being bare ring fragments
                i = int(rng.integers(0, n))
                j = int(rng.integers(0, n - 1))
                j = j if j < i else j + 1
                piece[i, j] = max(piece[i, j], rng.uniform(0.5, 1.5))
    times = tuple((np.arange(m) * dwell).tolist())
    return LaplacianProcess(times, _laplacians_in_place(w), horizon)


# --- serialization ---------------------------------------------------------


def process_from_dict(data: dict) -> LaplacianProcess:
    try:
        for key in data:
            check_known(key, ("n", "pieces", "horizon"), "process key")
        n = int(data["n"])
        horizon = float(data["horizon"])
        pieces = []
        for piece in data["pieces"]:
            for key in piece:
                check_known(key, ("t", "weights"), "piece key")
            pieces.append((float(piece["t"]), np.asarray(piece["weights"], dtype=float)))
    except InvalidInputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed process spec: {exc}") from exc
    if not pieces:
        raise InvalidInputError("process spec needs at least one piece")
    if any(w.shape != (n, n) for _, w in pieces):
        raise InvalidInputError(f"piece weights must be {n}x{n}")
    times = tuple(t for t, _ in pieces)
    return LaplacianProcess(times, _laplacians_in_place(np.array([w for _, w in pieces])), horizon)
