"""The four workloads: seeded inputs, one timed pass, and the correctness gate.

Each workload has
- `setup(seed)`: builds the inputs of one pass (configs, processes);
- `units(inputs)`: the timed calls of one pass, as (label, call) pairs.
  A call makes the calls a user makes, writing under the directory it
  is given, and returns one Output per unit of work (an ensemble member,
  a preset, a sweep value, a process);
- `gate(output)`: the workload's own correctness rule for one unit,
  applied after its call, outside the timing.

A unit that raises is caught at the unit boundary and recorded as failed
with its traceback, so one bad input never hides the rest. `digest`
values are compared with a reference recorded from the same code; see
NOTES.md for why each workload exists.
"""

from __future__ import annotations

import copy
import csv
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from flowtracker_lab import diagnostics, dynamics, flowcore, graphnet, harness, objectives, simulate

# Largest absolute difference allowed against the recorded reference
# for values computed from integrated trajectories.
REF_TOL = 1e-12


@dataclass
class Output:
    """Result of one unit of work in a pass."""

    name: str
    digest: dict = field(default_factory=dict)
    failure: str | None = None
    info: dict = field(default_factory=dict)


def _guarded(name: str, work) -> Output:
    try:
        return work()
    except Exception:  # one unit's failure is recorded, never dropped
        return Output(name, failure="raised:\n" + traceback.format_exc())


def _floats(values) -> list:
    return [float(v) for v in np.asarray(values, dtype=float).ravel()]


def _unit(name: str, work) -> tuple:
    """(label, call) of a unit whose call returns one guarded Output."""
    return name, lambda workdir: [_guarded(name, lambda: work(workdir))]


def run_pass(workload, inputs, workdir) -> list[Output]:
    """One untimed pass: every unit's outputs, in order."""
    return [out for _, call in workload.units(inputs) for out in call(workdir)]


# --- ensemble ------------------------------------------------------------------

KINDS = ("averaging", "push-sum", "saddle-point", "spps")
MEMBERS_PER_PASS = 4


def _shared_stationary_process(horizon: float, dwell: float) -> dict:
    """Alternating three-agent cycles reweighted to share pi = (0.5, 0.3, 0.2)."""
    pi = np.array([0.5, 0.3, 0.2])
    cycles = ([(0, 1), (1, 2), (2, 0)], [(0, 2), (2, 1), (1, 0)])
    pieces = []
    k = 0
    while k * dwell < horizon - 1e-12:
        w = np.zeros((3, 3))
        for i, j in cycles[k % 2]:
            w[i, j] = 1.0 / pi[j]
        pieces.append({"t": k * dwell, "weights": w.tolist()})
        k += 1
    return {"n": 3, "pieces": pieces, "horizon": horizon}


def ensemble_member(member: int) -> dict:
    """Raw config of inequality-suite member `member`.

    The draws follow the acceptance suite's random scenario in order, so
    member m here is that suite's scenario m: kind m mod 4, n in 3..5,
    huberized objectives, power-law steps, t_end 200, h 0.01.
    """
    rng = np.random.default_rng(member)
    kind = KINDS[member % 4]
    n = 3 if kind in ("saddle-point", "spps") else int(rng.integers(3, 6))
    t_end = 200.0
    if kind == "spps":
        process = _shared_stationary_process(t_end, 0.5)
    else:
        model = "directed-ring-rotate" if kind == "push-sum" else "switching-complete"
        process = {
            "random": {
                "n": n,
                "model": model,
                "dwell": 0.5,
                "horizon": t_end,
                "seed": 1000 + member,
            }
        }
    centers = rng.uniform(-0.5, 0.5, (n, 1))
    p = (0.6, 0.75, 1.0)[member % 3]
    a0 = float(rng.uniform(0.6, 1.0))
    x0 = rng.uniform(-0.5, 0.5, (n, 1))
    return {
        "name": f"member-{member}-{kind}",
        "process": process,
        "dynamics": {"name": kind, "a": 5.0},
        "family": {
            "kind": "huberized-quadratic",
            "params": {"centers": centers.tolist(), "radius": 2.0, "curvature": 2.0},
        },
        "schedule": {"kind": "power-law", "a0": a0, "p": p},
        "init": {"x": x0.tolist()},
        "t_end": t_end,
        "h": 0.01,
        "record_every": 0.01,
    }


def ensemble_raws(seed: int) -> list[dict]:
    return [ensemble_member(MEMBERS_PER_PASS * seed + i) for i in range(MEMBERS_PER_PASS)]


def _ensemble_unit(cfg) -> Output:
    law = dynamics.gradient_feedback(cfg.family, cfg.schedule)
    traj = simulate.integrate(
        cfg.system, law, cfg.init_state, t_end=cfg.t_end, h=cfg.h, record_every=cfg.h
    )
    x_star, f_star = objectives.optimizer_oracle(cfg.family)
    cap = objectives.gradient_bound(cfg.family)
    c1 = cfg.system.c1
    conservation = diagnostics.weight_conservation_check(traj)
    checks = {
        "v-dominated-by-h": diagnostics.v_dominated_by_h_check(
            traj, x_star, cap, cfg.schedule
        ).passed,
        "vdot-bound": diagnostics.vdot_bound_check(
            traj, cfg.family, cfg.schedule, x_star, f_star, c1=c1
        ).passed,
        "gap-integral": diagnostics.gap_integral_check(
            traj, cfg.family, cfg.schedule, f_star
        ).passed,
        "input-tracking": diagnostics.input_tracking_check(traj, c1=c1).passed,
        "weight-conservation": all(e["passed"] for e in conservation.values()),
    }
    digest = {"x_end": _floats(traj.x[-1]), "y_end": _floats(traj.y[-1])}
    for name in sorted(traj.aux):
        digest[f"{name}_end"] = _floats(traj.aux[name][-1])
    return Output(cfg.name, digest=digest, info={"checks": checks})


class Ensemble:
    name = "ensemble"
    # a round is 12-20 s, longer than a run may be
    min_rounds = 1

    def setup(self, seed: int) -> list:
        return [harness.parse_config(raw) for raw in ensemble_raws(seed)]

    def units(self, cfgs) -> list:
        return [_unit(cfg.name, lambda work, cfg=cfg: _ensemble_unit(cfg)) for cfg in cfgs]

    def gate(self, out: Output) -> str | None:
        failed = [name for name, ok in out.info["checks"].items() if not ok]
        return f"checks failed: {failed}" if failed else None


# --- scenarios -----------------------------------------------------------------

# The presets at the time the benchmark was defined, pinned by name so
# that a preset added later does not change the workload.
PRESETS = (
    "averaging-ergodic",
    "counterexample",
    "counterexample-diminishing",
    "pushsum-directed",
    "saddlepoint-mincut",
    "spps-stationary",
)


def _last_csv_row(path: Path) -> list[float]:
    with open(path, newline="") as fh:
        last = None
        for last in csv.reader(fh):
            pass
    return [float(v) for v in last]


def _scenario_unit(cfg, workdir) -> Output:
    out_dir = Path(workdir) / cfg.name
    summary = harness.run(cfg, out_dir=out_dir)
    return Output(cfg.name, info={"summary": summary, "out_dir": out_dir})


class Scenarios:
    name = "scenarios"
    # a round is 27-40 s, longer than a run may be
    min_rounds = 1

    def setup(self, seed: int) -> list:
        # pinned: the seed does not enter (see NOTES.md, "Seeds")
        return [harness.parse_config(harness.scenario_raw(name)) for name in PRESETS]

    def units(self, cfgs) -> list:
        return [_unit(cfg.name, lambda work, cfg=cfg: _scenario_unit(cfg, work)) for cfg in cfgs]

    def gate(self, out: Output) -> str | None:
        summary = out.info["summary"]
        # the digest is built here, after the timed pass, from what the
        # run returned and wrote
        gap = summary.optimality_gap_end
        out.digest = {
            "y_limit": _floats(summary.y_limit),
            "limit_residual": [summary.limit_residual],
            "consensus_error_end": [summary.consensus_error_end],
            "optimality_gap_end": [gap],
            "trajectory_last_row": _last_csv_row(out.info["out_dir"] / "trajectory.csv"),
        }
        failed = [name for name, ok in summary.checks.items() if not ok]
        return f"preset checks failed: {failed}" if failed else None


# --- sweep ---------------------------------------------------------------------

SWEEP_PRESET = "counterexample"
SWEEP_PATH = "schedule.a0"
SWEEP_VALUES = 10
SWEEP_TOL = 1e-4


def sweep_values(seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
    return [float(1.0 - rng.random()) for _ in range(SWEEP_VALUES)]  # in (0, 1]


class Sweep:
    name = "sweep"
    # rounds are short; time, not this floor, sets their number
    min_rounds = 3

    def setup(self, seed: int):
        base = harness.scenario_raw(SWEEP_PRESET)
        values = sweep_values(seed)
        # building each swept config once validates the pass's inputs
        for value in values:
            raw = copy.deepcopy(base)
            raw["schedule"]["a0"] = value
            harness.parse_config(raw)
        return base, values

    def units(self, inputs) -> list:
        # one call: harness.sweep is what a user runs, and it writes
        # sweep.csv only after the last value
        return [("sweep", lambda work: self._sweep(inputs, work))]

    def _sweep(self, inputs, workdir) -> list[Output]:
        base, values = inputs
        try:
            results = harness.sweep(base, SWEEP_PATH, values, out_dir=workdir)
        except Exception:
            failure = "raised:\n" + traceback.format_exc()
            return [Output(f"a0={v!r}", failure=failure) for v in values]
        table = Path(workdir) / "sweep.csv"
        return [
            Output(
                f"a0={value!r}",
                digest={"y_limit": _floats(summary.y_limit)},
                info={"value": value, "table": table},
            )
            for value, summary in results
        ]

    def gate(self, out: Output) -> str | None:
        a = out.info["value"]
        expected = a / (2.0 + a) * np.array([1.0, -1.0])
        got = np.asarray(out.digest["y_limit"])
        err = float(np.abs(got - expected).max())
        if err > SWEEP_TOL:
            return f"y_limit {got.tolist()} is {err:.3g} from a/(2+a)*(1,-1)"
        if not out.info["table"].is_file():
            return "sweep.csv was not written"
        return None


# --- graph-flow ----------------------------------------------------------------

FLOW_MODELS = ("directed-ring-rotate", "B-window-strongly-connected")
FLOW_SIZES = (12, 16, 18, 20)
FLOW_LARGE = 64
FLOW_DWELL = 0.5
FLOW_HORIZON = 60.0
FLOW_STEP = 1e-3  # check_flow's default step
CUT_SPAN = 2.0  # the min-cut-window sweep covers [0, CUT_SPAN]
CUT_WINDOW = 1.0
# Largest difference allowed between a flow distance or p* of the report
# and the same value from exact matrix exponentials; RK4 at FLOW_STEP
# stayed within 6e-14 of them.
FLOW_TOL = 1e-10
# check_flow's default r-squared floor of the ergodic verdict
FLOW_R2_MIN = 0.99


@dataclass(frozen=True)
class FlowInput:
    name: str
    process: object
    sweep_cuts: bool


def flow_specs(seed: int) -> list[dict]:
    """random_process arguments of one pass, drawn from the workload seed."""
    rng = np.random.default_rng(seed)
    specs = []
    for n in (*FLOW_SIZES, FLOW_LARGE):
        for model in FLOW_MODELS:
            spec = {
                "n": n,
                "model": model,
                "dwell": FLOW_DWELL,
                "horizon": FLOW_HORIZON,
                "seed": int(rng.integers(0, 2**31)),
            }
            if model == "B-window-strongly-connected":
                spec["B"] = int(rng.integers(2, 4))
            specs.append(spec)
    return specs


def exact_flows(process, samples) -> dict:
    """Phi(t, s) of each sample (s, t) of dPhi/dt = -L(t) Phi, as products
    of the exact matrix exponentials of the process's constant pieces."""
    props: dict = {}
    flows = {}
    for s in sorted({s for s, _ in samples}):
        phi = np.eye(process.n)
        now = s
        for t in sorted(t for s2, t in samples if s2 == s):
            for lo, hi, lap in process.segments(now, t):
                key = (id(lap), hi - lo)
                if key not in props:
                    props[key] = scipy.linalg.expm(-(hi - lo) * lap.matrix)
                phi = props[key] @ phi
            now = t
            flows[(s, t)] = phi
    return flows


def _fit_log_rate(spans: np.ndarray, dists: np.ndarray):
    """(rate, r-squared, log-decay span) of the least-squares line through
    (span, log distance) over the distances above flowcore's fit floor."""
    usable = dists > flowcore.FIT_FLOOR
    if usable.sum() < 3:
        return None, None, None
    x = spans[usable]
    y = np.log(dists[usable])
    dx = x - x.mean()
    slope = float(dx @ (y - y.mean()) / (dx @ dx))
    resid = y - y.mean() - slope * dx
    ss_tot = float(((y - y.mean()) ** 2).sum())
    ss_res = float(resid @ resid)
    if ss_tot <= 1e-30:
        r2 = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return math.exp(slope), r2, float(y.max() - y.min())


def oracle_flow_problem(process, report, digest: dict) -> str | None:
    """First disagreement of a flow report with exact flows, if any.

    Each sampled distance to rank one and p* (the least row sum) are
    recomputed from exact_flows; the rate and the ergodic verdict are
    refitted from the report's samples. None of this depends on the seed.
    """
    flows = exact_flows(process, report.samples)
    p_star = math.inf
    for (s, t), got in zip(report.samples, report.distances):
        phi = flows[(s, t)]
        want = float(np.linalg.norm(phi - phi.mean(axis=1)[:, None], 2))
        if not abs(got - want) <= FLOW_TOL:
            return f"flow distance at (s, t) = ({s}, {t}) is {got!r}; exact flow gives {want!r}"
        p_star = min(p_star, float(phi.sum(axis=1).min()))
    if abs(p_star - 1.0) <= flowcore.TAU_FLOW:
        p_star = 1.0
    if not abs(digest["p_star"][0] - p_star) <= FLOW_TOL:
        return f"p_star {digest['p_star'][0]!r}; exact flows give {p_star!r}"
    spans = np.array([t - s for s, t in report.samples])
    rate, r2, decay = _fit_log_rate(spans, np.array(report.distances))
    got = digest["rate"][0]
    if rate is None or got is None:
        if rate is not got:
            return f"rate {got!r}; refit gives {rate!r}"
    elif not abs(got - rate) <= 1e-9 * rate:
        return f"rate {got!r}; refit gives {rate!r}"
    ergodic = rate is not None and 0.0 < rate < 1.0 and r2 >= FLOW_R2_MIN and decay >= 1.0
    if digest["ergodic"][0] != float(ergodic):
        return f"ergodic verdict {digest['ergodic'][0]!r}; refit gives {ergodic}"
    return None


def cut_window_starts() -> np.ndarray:
    # as harness.run's min-cut-window check: window T, stride T/2
    return np.arange(0.0, CUT_SPAN - CUT_WINDOW + 1e-9, CUT_WINDOW / 2)


def _flow_unit(item: FlowInput) -> Output:
    report, ergodic = harness.check_flow(item.process, h=FLOW_STEP)
    digest = {"rate": [report.rate], "p_star": [report.p_star], "ergodic": [float(ergodic)]}
    if item.sweep_cuts:
        digest["cut_windows"] = [
            harness.integrated_min_cut(item.process, float(t0), CUT_WINDOW)
            for t0 in cut_window_starts()
        ]
    return Output(item.name, digest=digest, info={"item": item, "report": report})


def max_flow(cap: np.ndarray, s: int, t: int) -> float:
    """Edmonds-Karp maximum s-t flow on a dense float capacity matrix."""
    n = cap.shape[0]
    res = cap.astype(float)
    tiny = 1e-12 * max(1.0, float(cap.max()))
    total = 0.0
    while True:
        parent = [-1] * n
        parent[s] = s
        queue = [s]
        for u in queue:
            for v in np.flatnonzero(res[u] > tiny):
                if parent[v] < 0:
                    parent[v] = u
                    queue.append(int(v))
            if parent[t] >= 0:
                break
        if parent[t] < 0:
            return total
        path = []
        v = t
        while v != s:
            path.append((parent[v], v))
            v = parent[v]
        push = min(res[u, v] for u, v in path)
        for u, v in path:
            res[u, v] -= push
            res[v, u] += push
        total += push


def oracle_min_cut(lap) -> float:
    """Global directed min cut as the least s-t max flow to or from node 0.

    Every proper cut separates node 0 from some v, so its weight bounds
    maxflow(0 -> v) or maxflow(v -> 0), and a minimum s-t cut attains it.
    """
    a = lap.weight_matrix()
    n = a.shape[0]
    if n == 1:
        return 0.0
    return min(min(max_flow(a, 0, v), max_flow(a, v, 0)) for v in range(1, n))


def oracle_cut_windows(process) -> list[float]:
    cuts: dict[int, float] = {}
    values = []
    for t0 in cut_window_starts():
        total = 0.0
        for lo, hi, lap in process.segments(float(t0), float(t0) + CUT_WINDOW):
            if id(lap) not in cuts:
                cuts[id(lap)] = oracle_min_cut(lap)
            total += (hi - lo) * cuts[id(lap)]
        values.append(total)
    return values


class GraphFlow:
    name = "graph-flow"
    # a round is about 6 s
    min_rounds = 3

    def setup(self, seed: int) -> list[FlowInput]:
        items = []
        for spec in flow_specs(seed):
            process = graphnet.random_process(h=FLOW_STEP, **spec)
            label = spec["model"] + (f"-B{spec['B']}" if "B" in spec else "")
            items.append(
                FlowInput(f"{label}-n{spec['n']}", process, spec["n"] <= max(FLOW_SIZES))
            )
        return items

    def units(self, items) -> list:
        return [_unit(item.name, lambda work, item=item: _flow_unit(item)) for item in items]

    def gate(self, out: Output) -> str | None:
        item = out.info["item"]
        problem = oracle_flow_problem(item.process, out.info["report"], out.digest)
        if problem is not None or not item.sweep_cuts:
            return problem
        expected = oracle_cut_windows(item.process)
        got = out.digest["cut_windows"]
        for g, e in zip(got, expected):
            if abs(g - e) > 1e-9 * max(1.0, abs(e)):
                return f"min-cut windows {got} differ from the max-flow oracle {expected}"
        return None


WORKLOADS = {w.name: w for w in (Ensemble(), Scenarios(), Sweep(), GraphFlow())}


# --- reference -----------------------------------------------------------------

# The flow-rate fit regresses the logarithm of distances down to 1e-14,
# so it moves more than trajectories do when BLAS kernels round
# differently: 1.5e-9 relative between two OpenBLAS kernels on one
# machine, where trajectories moved 1.3e-14.
DIGEST_TOL = {"rate": 1e-6}


def compare_digest(got: dict, want: dict) -> str | None:
    """First difference between two digests beyond the numerics rule, if any."""
    if sorted(got) != sorted(want):
        return f"digest keys {sorted(got)} != reference {sorted(want)}"
    for key, expected in want.items():
        values = got[key]
        tol = DIGEST_TOL.get(key, REF_TOL)
        if len(values) != len(expected):
            return f"{key}: {len(values)} values, reference has {len(expected)}"
        for g, e in zip(values, expected):
            if g is None or e is None:
                same = g is None and e is None
            elif math.isnan(e):
                same = math.isnan(g)
            else:
                same = abs(g - e) <= tol * max(1.0, abs(e))
            if not same:
                return f"{key}: got {values}, reference {expected}"
    return None
