"""Experiment orchestration: configs, scenario presets, runs, sweeps, gates.

A config is a single JSON object naming the graph process, dynamics,
objective family, step schedule, initial condition, integration grid, and
the list of checks whose pass/fail verdict defines the run's exit code.
Scenario presets embed their expected outcome so a run validates itself.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .dynamics import FlowTrackerSystem, gradient_feedback, make_system
from .errors import ConfigError, FlowtrackerError, InvalidInputError
from .flowcore import ErgodicityReport, ergodicity_report
from .graphnet import (
    LaplacianProcess,
    integrated_min_cut,
    process_from_dict,
    random_process,
)
from .objectives import (
    ObjectiveFamily,
    family_from_dict,
    global_objective,
    gradient_bound,
    optimizer_oracle,
)
from .schedules import StepSchedule, check_validity, schedule_from_dict
from .simulate import Trajectory, estimate_limit, integrate

KNOWN_CHECKS = (
    "expectations",
    "consensus",
    "input-tracking",
    "v-dominated-by-h",
    "vdot-bound",
    "gap-integral",
    "weight-conservation",
    "observer-bound",
    "min-cut-window",
)

OUT_ENV_VAR = "FLOWTRACKER_OUT"


@dataclass(eq=False)
class ExperimentConfig:
    """A validated experiment: resolved objects plus the raw dict they came from."""

    raw: dict
    process: LaplacianProcess
    system: FlowTrackerSystem
    family: ObjectiveFamily | None
    schedule: StepSchedule | None
    init_state: object
    t_end: float
    h: float
    record_every: float
    seed: int
    checks: tuple[str, ...]
    check_params: dict
    expectations: tuple[dict, ...]
    name: str = "run"

    def digest(self) -> str:
        canon = {k: v for k, v in self.raw.items() if k != "out"}
        blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _resolve_process(spec: dict, h: float) -> LaplacianProcess:
    if "file" in spec:
        with open(spec["file"]) as fh:
            return process_from_dict(json.load(fh))
    if "random" in spec:
        params = dict(spec["random"])
        return random_process(
            n=int(params["n"]),
            model=params["model"],
            dwell=float(params["dwell"]),
            horizon=float(params["horizon"]),
            seed=int(params.get("seed", 0)),
            h=h,
            B=params.get("B"),
        )
    return process_from_dict(spec)


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict and resolve every referenced object."""
    try:
        h = float(raw["h"])
        t_end = float(raw["t_end"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config needs numeric 'h' and 't_end': {exc}") from exc
    record_every = float(raw.get("record_every", 0.1))
    seed = int(raw.get("seed", 0))

    try:
        process = _resolve_process(raw["process"], h)
    except KeyError as exc:
        raise ConfigError("config needs a 'process' block") from exc
    except FlowtrackerError as exc:
        raise ConfigError(f"process spec invalid: {exc}") from exc

    dyn = raw.get("dynamics", {})
    if "name" not in dyn:
        raise ConfigError("config needs dynamics.name")

    family = None
    schedule = None
    if raw.get("family") is not None:
        try:
            family = family_from_dict(raw["family"])
        except FlowtrackerError as exc:
            raise ConfigError(f"family spec invalid: {exc}") from exc
        if raw.get("schedule") is None:
            raise ConfigError("a family needs a schedule for the gradient feedback")
        try:
            schedule = schedule_from_dict(raw["schedule"])
        except FlowtrackerError as exc:
            raise ConfigError(f"schedule spec invalid: {exc}") from exc

    d = family.d if family is not None else int(raw.get("d", 1))
    try:
        system = make_system(dyn["name"], process, d=d, a=float(dyn.get("a", 5.0)))
    except FlowtrackerError as exc:
        raise ConfigError(f"dynamics invalid: {exc}") from exc

    if family is not None and family.n != system.n:
        raise ConfigError(
            f"family has {family.n} agents but the process has {system.n}"
        )

    init_spec = raw.get("init", {})
    if "x" in init_spec:
        x0 = np.asarray(init_spec["x"], dtype=float)
    else:
        rand = init_spec.get("random", {})
        rng = np.random.default_rng(int(rand.get("seed", seed)))
        scale = float(rand.get("scale", 1.0))
        x0 = rng.uniform(-scale, scale, (system.n, system.d))
    aux = {}
    for key in ("w", "z", "v"):
        if key in init_spec:
            aux[key] = np.asarray(init_spec[key], dtype=float)
    try:
        init_state = system.initial_state(x0, **aux)
        system.check_initial(init_state)
    except FlowtrackerError as exc:
        raise ConfigError(f"initial condition invalid: {exc}") from exc

    checks = tuple(raw.get("checks", ()))
    for name in checks:
        if name not in KNOWN_CHECKS:
            raise ConfigError(f"unknown check {name!r}; options: {KNOWN_CHECKS}")
    if "input-tracking" in checks and abs(record_every - h) > 1e-12:
        raise ConfigError("the input-tracking check needs record_every == h")

    expectations = tuple(raw.get("expectations", ()))
    if expectations and "expectations" not in checks:
        checks = checks + ("expectations",)

    # alignment is validated again inside integrate(); failing early here
    # turns misaligned dwell times into a config error with context
    ratio = record_every / h
    if abs(ratio - round(ratio)) > 1e-9:
        raise ConfigError(f"record_every {record_every} is not a multiple of h {h}")
    for t in process.start_times[1:]:
        ratio = t / h
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ConfigError(f"process switch at t={t} does not land on the h grid")

    return ExperimentConfig(
        raw=raw,
        process=process,
        system=system,
        family=family,
        schedule=schedule,
        init_state=init_state,
        t_end=t_end,
        h=h,
        record_every=record_every,
        seed=seed,
        checks=checks,
        check_params=dict(raw.get("check_params", {})),
        expectations=expectations,
        name=str(raw.get("name", "run")),
    )


@dataclass(eq=False)
class RunSummary:
    name: str
    digest: str
    y_limit: list
    limit_residual: float
    consensus_error_end: float
    optimality_gap_end: float | None
    checks: dict[str, bool]
    wall_time: float
    files: list = field(default_factory=list)

    @property
    def all_checks_passed(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "digest": self.digest,
            "y_limit": self.y_limit,
            "limit_residual": self.limit_residual,
            "consensus_error_end": self.consensus_error_end,
            "optimality_gap_end": self.optimality_gap_end,
            "checks": self.checks,
            "all_checks_passed": self.all_checks_passed,
            "wall_time": self.wall_time,
            "files": [str(f) for f in self.files],
        }


def _check_expectations(
    cfg: ExperimentConfig, traj: Trajectory, oracle: tuple | None
) -> tuple[bool, dict]:
    details = {}
    ok = True
    est = None
    for spec in cfg.expectations:
        kind = spec["kind"]
        if kind == "y-limit":
            if est is None:
                est = estimate_limit(traj)
            target = np.asarray(spec["value"], dtype=float)
            tol = float(spec["tol"])
            err = float(np.abs(est.y_limit - target).max())
            good = err <= tol and est.residual <= tol
            details[kind] = {"error": err, "residual": est.residual, "tol": tol, "passed": good}
        elif kind == "y-abs-max":
            bound = float(spec["max"])
            worst = float(np.abs(traj.y[-1]).max())
            good = worst <= bound
            details[kind] = {"worst": worst, "max": bound, "passed": good}
        elif kind == "y-final-near-oracle":
            x_star = oracle[0]
            tol = float(spec["tol"])
            err = float(
                np.linalg.norm(traj.y[-1] - x_star[None, :], axis=1).max()
            )
            good = err <= tol
            details[kind] = {"error": err, "tol": tol, "passed": good}
        elif kind == "nonconvergence":
            x_star = oracle[0]
            if est is None:
                est = estimate_limit(traj)
            dist = float(
                np.linalg.norm(est.y_limit - x_star[None, :], axis=1).min()
            )
            floor = float(spec["min_distance"])
            good = dist >= floor
            details[kind] = {"distance": dist, "min_distance": floor, "passed": good}
        elif kind == "gap-settled":
            gaps = diag.objective_series(traj, cfg.family) - oracle[1]
            window = traj.times >= float(traj.times[-1]) / 10.0
            change = float(gaps[window].max() - gaps[window].min())
            tol = float(spec.get("tol", 1e-3))
            good = change <= tol
            details[kind] = {"change": change, "tol": tol, "passed": good}
        else:
            raise ConfigError(f"unknown expectation kind {kind!r}")
        ok = ok and good
    return ok, details


def run(cfg: ExperimentConfig, out_dir=None, full_resolution: bool = False) -> RunSummary:
    """Integrate, run the requested checks, and emit artifacts.

    Writes trajectory.csv, report.json, and summary.json into out_dir
    when one is given. The summary's check map defines the CLI exit code.
    """
    started = time.perf_counter()
    record_every = cfg.h if full_resolution else cfg.record_every
    law = None
    if cfg.family is not None:
        law = gradient_feedback(cfg.family, cfg.schedule)
    traj = integrate(
        cfg.system,
        law,
        cfg.init_state,
        t_end=cfg.t_end,
        h=cfg.h,
        record_every=record_every,
        extra_meta={"config_digest": cfg.digest(), "seed": cfg.seed},
    )

    oracle = None
    if cfg.family is not None:
        oracle = optimizer_oracle(cfg.family)

    err_series = diag.consensus_error(traj)
    series: dict[str, np.ndarray] = {"consensus_error": err_series}
    checks: dict[str, diag.CheckResult] = {}
    params = cfg.check_params

    for name in cfg.checks:
        if name == "expectations":
            ok, details = _check_expectations(cfg, traj, oracle)
            checks[name] = diag.CheckResult(name, ok, details)
        elif name == "consensus":
            tol = float(params.get("consensus", {}).get("tol", 1e-2))
            final = float(err_series[-1])
            checks[name] = diag.CheckResult(
                name, final <= tol, {"final": final, "tol": tol}
            )
        elif name == "input-tracking":
            report = diag.input_tracking_check(traj, c1=cfg.system.c1)
            series["input_tracking_residual"] = np.concatenate(
                ([0.0], report.residuals, [0.0])
            )
            checks[name] = diag.CheckResult(name, report.passed, report.to_dict())
        elif name == "weight-conservation":
            results = diag.weight_conservation_check(traj)
            ok = all(entry["passed"] for entry in results.values()) if results else True
            checks[name] = diag.CheckResult(name, ok, results)
        elif name == "observer-bound":
            flow_h = float(params.get("observer-bound", {}).get("flow_h", cfg.h))
            flow_report = ergodicity_report(cfg.process, h=flow_h)
            declared = params.get("observer-bound", {}).get("declared")
            if declared == "3/p_star":
                declared_c2 = (
                    3.0 / flow_report.p_star if flow_report.p_star > 0 else None
                )
            else:
                declared_c2 = float(declared) if declared is not None else None
            if flow_report.rate is None or not (0 < flow_report.rate < 1):
                checks[name] = diag.CheckResult(
                    name, False, {"reason": "flow rate fit unavailable or >= 1"}
                )
            else:
                report = diag.observer_bound_fit(
                    traj, flow_report.rate, declared_c2=declared_c2
                )
                ok = not report.infeasible and (
                    declared_c2 is None or report.violations == 0
                )
                details = report.to_dict()
                details["p_star"] = flow_report.p_star
                checks[name] = diag.CheckResult(name, ok, details)
        elif name in ("v-dominated-by-h", "vdot-bound", "gap-integral"):
            if cfg.family is None:
                raise ConfigError(f"check {name!r} needs an objective family")
            x_star, f_star = oracle
            cap = gradient_bound(cfg.family)
            if name == "v-dominated-by-h":
                report = diag.v_dominated_by_h_check(traj, x_star, cap, cfg.schedule)
            elif name == "vdot-bound":
                report = diag.vdot_bound_check(
                    traj, cfg.family, cfg.schedule, x_star, f_star, c1=cfg.system.c1
                )
            else:
                report = diag.gap_integral_check(traj, cfg.family, cfg.schedule, f_star)
            checks[name] = diag.CheckResult(name, report.passed, report.to_dict())
        elif name == "min-cut-window":
            p = params.get("min-cut-window", {})
            window = float(p.get("T", 1.0))
            beta = float(p.get("beta", 0.0))
            starts = np.arange(0.0, cfg.t_end - window + 1e-9, window / 2)
            cuts: dict[int, float] = {}
            worst = min(
                integrated_min_cut(cfg.process, float(t0), window, cuts=cuts)
                for t0 in starts
            )
            checks[name] = diag.CheckResult(
                name, worst >= beta, {"worst_window": worst, "beta": beta, "T": window}
            )

    if cfg.family is not None:
        series["lyapunov"] = diag.lyapunov_series(traj, oracle[0])
        series["optimality_gap"] = diag.objective_series(traj, cfg.family) - oracle[1]
        if traj.is_full_resolution:
            series["h_function"] = diag.h_function(
                traj, gradient_bound(cfg.family), cfg.schedule
            )

    report = diag.DiagnosticsReport(traj.times, series, checks)
    est = estimate_limit(traj) if math.ceil(traj.n_samples * 0.1) >= 10 else None
    gap_end = (
        float(global_objective(cfg.family, traj.xbar[-1]) - oracle[1])
        if cfg.family is not None
        else None
    )
    summary = RunSummary(
        name=cfg.name,
        digest=cfg.digest(),
        y_limit=est.y_limit.tolist() if est else traj.y[-1].tolist(),
        limit_residual=est.residual if est else float("nan"),
        consensus_error_end=float(err_series[-1]),
        optimality_gap_end=gap_end,
        checks={name: c.passed for name, c in checks.items()},
        wall_time=time.perf_counter() - started,
    )

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        traj_path = out / "trajectory.csv"
        traj.write_csv(traj_path)
        summary.files.append(traj_path)
        if cfg.raw.get("jsonl"):
            jsonl_path = out / "trajectory.jsonl"
            traj.write_jsonl(jsonl_path)
            summary.files.append(jsonl_path)
        report_path = out / "report.json"
        report.write_json(report_path)
        summary.files.append(report_path)
        summary.files.extend(report.write_series_csv(out))
        summary_path = out / "summary.json"
        with open(summary_path, "w") as fh:
            json.dump(summary.to_dict(), fh, indent=2, sort_keys=True)
        summary.files.append(summary_path)
    return summary


# --- scenario presets --------------------------------------------------------


def _two_node_complete_pieces(horizon: float) -> dict:
    return {
        "n": 2,
        "pieces": [{"t": 0.0, "weights": [[0.0, 1.0], [1.0, 0.0]]}],
        "horizon": horizon,
    }


def _shared_stationary_pieces(horizon: float, dwell: float) -> dict:
    """Alternating three-agent cycles reweighted to share pi = (0.5, 0.3, 0.2)."""
    pi = np.array([0.5, 0.3, 0.2])
    cycles = ([(0, 1), (1, 2), (2, 0)], [(0, 2), (2, 1), (1, 0)])
    pieces = []
    t = 0.0
    k = 0
    while t < horizon - 1e-12:
        w = np.zeros((3, 3))
        for i, j in cycles[k % 2]:
            w[i, j] = 1.0 / pi[j]
        pieces.append({"t": t, "weights": w.tolist()})
        t += dwell
        k += 1
    return {"n": 3, "pieces": pieces, "horizon": horizon}


def _seeded_centers(n: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, (n, 1)).tolist()


SCENARIO_BUILDERS = {}


def _scenario(fn):
    SCENARIO_BUILDERS[fn.__name__.replace("_scenario_", "").replace("_", "-")] = fn
    return fn


@_scenario
def _scenario_counterexample() -> dict:
    return {
        "name": "counterexample",
        "process": _two_node_complete_pieces(50.0),
        "dynamics": {"name": "averaging"},
        "family": {"kind": "mirror-pair", "params": {}, "box": [[-2.0], [2.0]]},
        "schedule": {"kind": "constant", "a0": 0.5},
        "init": {"x": [[0.0], [0.0]]},
        "t_end": 50.0,
        "h": 1e-3,
        "record_every": 0.1,
        "seed": 0,
        "checks": ["expectations"],
        "expectations": [
            {"kind": "y-limit", "value": [[0.2], [-0.2]], "tol": 1e-4},
            {"kind": "nonconvergence", "min_distance": 0.1},
        ],
    }


@_scenario
def _scenario_counterexample_diminishing() -> dict:
    return {
        "name": "counterexample-diminishing",
        "process": _two_node_complete_pieces(2000.0),
        "dynamics": {"name": "averaging"},
        "family": {"kind": "mirror-pair", "params": {}, "box": [[-2.0], [2.0]]},
        "schedule": {"kind": "power-law", "a0": 1.0, "p": 1.0},
        "init": {"x": [[0.0], [0.0]]},
        "t_end": 2000.0,
        "h": 0.02,
        "record_every": 0.1,
        "seed": 0,
        "checks": ["expectations", "gap-integral"],
        "expectations": [
            {"kind": "y-abs-max", "max": 0.05},
            {"kind": "gap-settled", "tol": 1e-3},
        ],
    }


@_scenario
def _scenario_averaging_ergodic() -> dict:
    return {
        "name": "averaging-ergodic",
        "process": {
            "random": {
                "n": 4,
                "model": "switching-complete",
                "dwell": 0.5,
                "horizon": 250.0,
                "seed": 42,
            }
        },
        "dynamics": {"name": "averaging"},
        "family": {
            "kind": "huberized-quadratic",
            "params": {"centers": _seeded_centers(4, 421), "radius": 2.0, "curvature": 1.0},
        },
        "schedule": {"kind": "power-law", "a0": 0.5, "p": 1.0},
        "init": {"random": {"seed": 4210, "scale": 1.0}},
        "t_end": 250.0,
        "h": 0.01,
        "record_every": 0.01,
        "seed": 0,
        "checks": [
            "consensus",
            "input-tracking",
            "v-dominated-by-h",
            "vdot-bound",
            "gap-integral",
        ],
        "expectations": [{"kind": "y-final-near-oracle", "tol": 0.05}],
    }


@_scenario
def _scenario_pushsum_directed() -> dict:
    return {
        "name": "pushsum-directed",
        "process": {
            "random": {
                "n": 5,
                "model": "directed-ring-rotate",
                "dwell": 0.5,
                "horizon": 1000.0,
                "seed": 7,
            }
        },
        "dynamics": {"name": "push-sum"},
        "family": {
            "kind": "huberized-quadratic",
            "params": {"centers": _seeded_centers(5, 75), "radius": 2.0, "curvature": 1.0},
        },
        "schedule": {"kind": "power-law", "a0": 1.0, "p": 1.0},
        "init": {"random": {"seed": 750, "scale": 1.0}},
        "t_end": 1000.0,
        "h": 0.01,
        "record_every": 0.1,
        "seed": 0,
        "checks": [
            "consensus",
            "weight-conservation",
            "observer-bound",
        ],
        "check_params": {
            "observer-bound": {"declared": "3/p_star", "flow_h": 0.01},
            "consensus": {"tol": 1e-2},
        },
        "expectations": [{"kind": "y-final-near-oracle", "tol": 1e-2}],
    }


@_scenario
def _scenario_saddlepoint_mincut() -> dict:
    return {
        "name": "saddlepoint-mincut",
        "process": {
            "random": {
                "n": 3,
                "model": "switching-complete",
                "dwell": 0.5,
                "horizon": 250.0,
                "seed": 11,
            }
        },
        "dynamics": {"name": "saddle-point", "a": 5.0},
        "family": {
            "kind": "huberized-quadratic",
            "params": {"centers": _seeded_centers(3, 113), "radius": 2.0, "curvature": 1.0},
        },
        "schedule": {"kind": "power-law", "a0": 0.5, "p": 1.0},
        "init": {"random": {"seed": 1130, "scale": 1.0}},
        "t_end": 250.0,
        "h": 0.01,
        "record_every": 0.01,
        "seed": 0,
        "checks": [
            "consensus",
            "input-tracking",
            "v-dominated-by-h",
            "vdot-bound",
            "min-cut-window",
        ],
        "check_params": {"min-cut-window": {"T": 0.5, "beta": 0.25}},
        "expectations": [{"kind": "y-final-near-oracle", "tol": 0.05}],
    }


@_scenario
def _scenario_spps_stationary() -> dict:
    return {
        "name": "spps-stationary",
        "process": _shared_stationary_pieces(300.0, 0.5),
        "dynamics": {"name": "spps", "a": 5.0},
        "family": {
            "kind": "huberized-quadratic",
            "params": {"centers": _seeded_centers(3, 31), "radius": 2.0, "curvature": 1.0},
        },
        "schedule": {"kind": "power-law", "a0": 1.0, "p": 1.0},
        "init": {"random": {"seed": 310, "scale": 1.0}},
        "t_end": 300.0,
        "h": 0.01,
        "record_every": 0.1,
        "seed": 0,
        "checks": ["consensus", "weight-conservation"],
        "check_params": {"consensus": {"tol": 1e-2}},
        "expectations": [{"kind": "y-final-near-oracle", "tol": 0.05}],
    }


def scenario_names() -> list[str]:
    return sorted(SCENARIO_BUILDERS)


def scenario(name: str) -> ExperimentConfig:
    """A fully pinned, self-validating preset configuration."""
    if name not in SCENARIO_BUILDERS:
        raise InvalidInputError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        )
    return parse_config(SCENARIO_BUILDERS[name]())


def scenario_raw(name: str) -> dict:
    if name not in SCENARIO_BUILDERS:
        raise InvalidInputError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        )
    return SCENARIO_BUILDERS[name]()


# --- sweeps ------------------------------------------------------------------


def _set_by_path(data: dict, path: str, value) -> None:
    keys = path.split(".")
    node = data
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"sweep path {path!r} does not address the config")
        node = node[key]
    last = keys[-1]
    if not isinstance(node, dict) or last not in node:
        raise ConfigError(f"sweep path {path!r} does not address the config")
    if not isinstance(node[last], (int, float)):
        raise ConfigError(f"sweep path {path!r} must address a numeric field")
    node[last] = value


def sweep(base_raw: dict, path: str, values, out_dir=None) -> list[tuple[float, RunSummary]]:
    """Independent runs of the base config with one numeric field swept."""
    results = []
    for value in values:
        raw = copy.deepcopy(base_raw)
        _set_by_path(raw, path, value)
        raw["name"] = f"{raw.get('name', 'run')}[{path}={value}]"
        cfg = parse_config(raw)
        sub_out = None
        if out_dir is not None:
            sub_out = Path(out_dir) / f"sweep_{value:g}"
        results.append((float(value), run(cfg, out_dir=sub_out)))
    if out_dir is not None and results:
        _write_sweep_csv(Path(out_dir) / "sweep.csv", path, results)
    return results


def _write_sweep_csv(path, param: str, results) -> None:
    with open(path, "w") as fh:
        fh.write(f"{param},y_limit,consensus_error_end,optimality_gap_end,all_checks_passed\n")
        for value, summary in results:
            y_flat = ";".join(f"{v:.17g}" for v in np.asarray(summary.y_limit).ravel())
            gap = "" if summary.optimality_gap_end is None else f"{summary.optimality_gap_end:.17g}"
            fh.write(
                f"{value:.17g},{y_flat},{summary.consensus_error_end:.17g},"
                f"{gap},{summary.all_checks_passed}\n"
            )


# --- flow and schedule gates --------------------------------------------------


def check_flow(
    process: LaplacianProcess,
    h: float = 1e-3,
    grid=None,
    r2_min: float = 0.99,
    out_dir=None,
) -> tuple[ErgodicityReport, bool]:
    """Classify a process's flow; passes iff weakly exponentially ergodic."""
    report = ergodicity_report(process, h=h, grid=grid)
    passed = report.weakly_exponentially_ergodic(r2_min=r2_min)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "flow_report.json", "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        report.write_csv(out / "flow_distances.csv")
    return report, passed


def check_schedule(raw: dict) -> tuple[dict, bool]:
    schedule = schedule_from_dict(raw)
    report = check_validity(schedule)
    return report.to_dict(), report.valid


# --- selftest ----------------------------------------------------------------


def selftest(verbose: bool = True) -> bool:
    """Small curated battery of end-to-end invariants; True iff all pass."""
    from .schedules import lemma_aux_check
    from .simulate import closed_form_two_agent

    results: list[tuple[str, bool, str]] = []

    cfg = scenario("counterexample")
    summary = run(cfg)
    limit = np.asarray(summary.y_limit)[:, 0]
    ok = bool(np.abs(limit - np.array([0.2, -0.2])).max() < 1e-4)
    results.append(("counterexample limit = a/(2+a) * (1,-1)", ok and summary.all_checks_passed, f"limit={limit}"))

    proc = process_from_dict(_two_node_complete_pieces(10.0))
    report, passed = check_flow(proc, h=1e-3)
    ok = passed and abs(report.rate - math.exp(-2.0)) < 1e-3 and report.p_star == 1.0
    results.append(("two-node flow rate exp(-2), p* = 1", ok, f"rate={report.rate}"))

    res = lemma_aux_check(
        lambda t: np.exp(-np.asarray(t)), lambda t: np.exp(-np.asarray(t)), 0.5, 40.0
    )
    results.append(
        ("integral inequality worked example", res.holds, f"lhs={res.lhs:.4f} rhs={res.rhs:.4f}")
    )

    x_num = closed_form_two_agent(0.5, np.zeros(2), 1.0)
    ok = abs(x_num[0] - (1 - math.exp(-2.5)) * 0.2) < 1e-12
    results.append(("closed-form two-agent solution", ok, f"x={x_num}"))

    _, valid = check_schedule({"kind": "constant", "a0": 0.5})
    results.append(("constant schedule rejected", not valid, "valid flag should be False"))

    all_ok = all(ok for _, ok, _ in results)
    if verbose:
        for name, ok, detail in results:
            print(f"[{'PASS' if ok else 'FAIL'}] {name} ({detail})")
    return all_ok
