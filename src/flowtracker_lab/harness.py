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
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .dynamics import DEFAULT_GAIN, SYSTEMS, FlowTrackerSystem, gradient_feedback, make_system
from .errors import ConfigError, FlowtrackerError, InvalidInputError
from .flowcore import ErgodicityReport, ergodicity_report
from .graphnet import (
    DEFAULT_STEP,
    LaplacianProcess,
    check_switch_alignment,
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
from .simulate import (
    DEFAULT_RECORD_EVERY,
    MIN_TAIL,
    LimitEstimate,
    Trajectory,
    estimate_limit,
    integrate,
    step_grid,
    tail_length,
)

# checks and expectation kinds that compare the run with the optimizer oracle
FAMILY_CHECKS = ("v-dominated-by-h", "vdot-bound", "gap-integral")
ORACLE_EXPECTATIONS = ("y-final-near-oracle", "nonconvergence", "gap-settled")

# the numeric fields of each expectation kind; None marks a required one
EXPECTATION_FIELDS = {
    "y-limit": {"value": None, "tol": None},
    "y-abs-max": {"max": None},
    "y-final-near-oracle": {"tol": None},
    "nonconvergence": {"min_distance": None},
    "gap-settled": {"tol": 1e-3},
}

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

# the options of each check that takes any, the keys check_params may hold
CHECK_OPTIONS = {
    "consensus": ("tol",),
    "observer-bound": ("flow_h", "declared"),
    "min-cut-window": ("T", "beta"),
}

# the aux blocks an init block may set: those of every system
INIT_AUX_KEYS = tuple(dict.fromkeys(block for row in SYSTEMS.values() for block, _ in row.aux))

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


def _resolve_check_params(raw: dict, h: float) -> dict:
    """Every check's parameters as numbers, with the defaults filled in."""
    params = {name: dict(value) for name, value in raw.items()}
    for name, options in params.items():
        if name not in CHECK_OPTIONS:
            raise ConfigError(
                f"unknown check_params entry {name!r}; options: {tuple(CHECK_OPTIONS)}"
            )
        unknown = sorted(set(options) - set(CHECK_OPTIONS[name]))
        if unknown:
            raise ConfigError(
                f"unknown {name} option {unknown[0]!r}; options: {CHECK_OPTIONS[name]}"
            )
    observer = params.get("observer-bound", {})
    cut = params.get("min-cut-window", {})
    declared = observer.get("declared")
    if declared not in (None, "3/p_star"):
        declared = float(declared)
    return {
        "consensus": {"tol": float(params.get("consensus", {}).get("tol", 1e-2))},
        "observer-bound": {"flow_h": float(observer.get("flow_h", h)), "declared": declared},
        "min-cut-window": {"T": float(cut.get("T", 1.0)), "beta": float(cut.get("beta", 0.0))},
    }


def _resolve_expectation(spec: dict, has_family: bool) -> dict:
    """An expectation with its kind checked and its numbers converted."""
    kind = spec["kind"]
    if kind not in EXPECTATION_FIELDS:
        raise ConfigError(
            f"unknown expectation kind {kind!r}; options: {tuple(EXPECTATION_FIELDS)}"
        )
    if kind in ORACLE_EXPECTATIONS and not has_family:
        raise ConfigError(f"expectation {kind!r} needs an objective family")
    out = {"kind": kind}
    for key, default in EXPECTATION_FIELDS[kind].items():
        value = spec[key] if default is None else spec.get(key, default)
        out[key] = np.asarray(value, dtype=float) if key == "value" else float(value)
    return out


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict and resolve every referenced object.

    All raw input is converted here, so a malformed config raises
    ConfigError before anything is integrated.
    """
    try:
        h = float(raw["h"])
        t_end = float(raw["t_end"])
        if h <= 0:
            raise ConfigError("h must be positive")
        record_every = float(raw.get("record_every", DEFAULT_RECORD_EVERY))
        seed = int(raw.get("seed", 0))
        d = int(raw.get("d", 1))
        dyn = dict(raw.get("dynamics", {}))
        if "name" not in dyn:
            raise ConfigError("config needs dynamics.name")
        gain = float(dyn.get("a", DEFAULT_GAIN))
        checks = tuple(raw.get("checks", ()))
        check_params = _resolve_check_params(dict(raw.get("check_params", {})), h)
        has_family = raw.get("family") is not None
        expectations = tuple(
            _resolve_expectation(dict(spec), has_family)
            for spec in raw.get("expectations", ())
        )
        name = str(raw.get("name", "run"))
    except FlowtrackerError:
        raise
    except KeyError as exc:
        raise ConfigError(f"config is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field malformed: {exc}") from exc

    if raw.get("process") is None:
        raise ConfigError("config needs a 'process' block")
    try:
        process = _resolve_process(raw["process"], h)
    except KeyError as exc:
        raise ConfigError(f"process spec is missing field {exc}") from exc
    except (FlowtrackerError, TypeError, ValueError) as exc:
        raise ConfigError(f"process spec invalid: {exc}") from exc
    try:
        n_steps, steps_per_record = step_grid(process, t_end, h, record_every)
    except InvalidInputError as exc:
        raise ConfigError(f"the run does not fit the step grid: {exc}") from exc

    family = None
    schedule = None
    if has_family:
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
        try:
            # alpha is nonincreasing, so t_end holds its least value on the run
            alpha_end = schedule(t_end)
        except OverflowError:
            alpha_end = 0.0
        if not 0 < alpha_end <= 1:
            raise ConfigError(
                f"schedule alpha(t_end) = {alpha_end} is not a finite step in (0, 1]"
            )

    if family is not None:
        d = family.d
    try:
        system = make_system(dyn["name"], process, d=d, a=gain)
    except FlowtrackerError as exc:
        raise ConfigError(f"dynamics invalid: {exc}") from exc

    if family is not None and family.n != system.n:
        raise ConfigError(
            f"family has {family.n} agents but the process has {system.n}"
        )
    tail = tail_length(n_steps // steps_per_record + 1)
    for spec in expectations:
        if spec["kind"] in ("y-limit", "nonconvergence") and tail < MIN_TAIL:
            raise ConfigError(
                f"expectation {spec['kind']!r} averages the last tenth of the records, "
                f"{tail} here; it needs {MIN_TAIL} (t_end / record_every >= 90)"
            )
        if spec["kind"] == "y-limit":
            try:
                np.broadcast_to(spec["value"], (system.n, system.d))
            except ValueError as exc:
                raise ConfigError(
                    f"y-limit value of shape {spec['value'].shape} does not broadcast "
                    f"to the output shape {(system.n, system.d)}"
                ) from exc

    init_spec = raw.get("init", {})
    if not isinstance(init_spec, dict):
        raise ConfigError("init must be an object")
    unknown = sorted(set(init_spec) - {"x", "random", *INIT_AUX_KEYS})
    if unknown:
        raise ConfigError(
            f"unknown init key {unknown[0]!r}; options: {('x', 'random') + INIT_AUX_KEYS}"
        )
    try:
        if "x" in init_spec:
            x0 = np.asarray(init_spec["x"], dtype=float)
        else:
            rand = init_spec.get("random", {})
            rng = np.random.default_rng(int(rand.get("seed", seed)))
            scale = float(rand.get("scale", 1.0))
            x0 = rng.uniform(-scale, scale, (system.n, system.d))
        aux = {
            key: np.asarray(init_spec[key], dtype=float)
            for key in INIT_AUX_KEYS
            if key in init_spec
        }
        init_state = system.initial_state(x0, **aux)
        system.check_initial(init_state)
    except (FlowtrackerError, AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"initial condition invalid: {exc}") from exc

    for check in checks:
        if check not in KNOWN_CHECKS:
            raise ConfigError(f"unknown check {check!r}; options: {KNOWN_CHECKS}")
        if check in FAMILY_CHECKS and family is None:
            raise ConfigError(f"check {check!r} needs an objective family")
    if "input-tracking" in checks and abs(record_every - h) > 1e-12:
        raise ConfigError("the input-tracking check needs record_every == h")
    if "observer-bound" in checks:
        flow_h = check_params["observer-bound"]["flow_h"]
        if not 0 < flow_h < process.horizon:
            raise ConfigError("observer-bound flow_h must lie in (0, process horizon)")
        try:
            check_switch_alignment(process, flow_h)
        except InvalidInputError as exc:
            raise ConfigError(f"observer-bound flow_h does not fit the process: {exc}") from exc
    if "min-cut-window" in checks and not 0 < check_params["min-cut-window"]["T"] <= t_end:
        raise ConfigError("min-cut-window T must lie in (0, t_end]")
    if expectations and "expectations" not in checks:
        checks = checks + ("expectations",)

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
        check_params=check_params,
        expectations=expectations,
        name=name,
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
            **asdict(self),
            "all_checks_passed": self.all_checks_passed,
            "files": [str(f) for f in self.files],
        }


def _check_expectations(
    cfg: ExperimentConfig,
    traj: Trajectory,
    oracle: tuple | None,
    gaps: np.ndarray | None,
    est: LimitEstimate | None,
) -> tuple[bool, dict]:
    """Compare the run with each expectation, reusing the run's gap series
    and limit estimate (None on a tail too short, whose error then shows)."""
    details = {}
    ok = True
    for spec in cfg.expectations:
        kind = spec["kind"]
        if kind == "y-limit":
            est = est or estimate_limit(traj)
            tol = spec["tol"]
            err = float(np.abs(est.y_limit - spec["value"]).max())
            good = err <= tol and est.residual <= tol
            details[kind] = {"error": err, "residual": est.residual, "tol": tol, "passed": good}
        elif kind == "y-abs-max":
            bound = spec["max"]
            worst = float(np.abs(traj.y[-1]).max())
            good = worst <= bound
            details[kind] = {"worst": worst, "max": bound, "passed": good}
        elif kind == "y-final-near-oracle":
            x_star = oracle[0]
            tol = spec["tol"]
            err = float(
                np.linalg.norm(traj.y[-1] - x_star[None, :], axis=1).max()
            )
            good = err <= tol
            details[kind] = {"error": err, "tol": tol, "passed": good}
        elif kind == "nonconvergence":
            x_star = oracle[0]
            est = est or estimate_limit(traj)
            dist = float(
                np.linalg.norm(est.y_limit - x_star[None, :], axis=1).min()
            )
            floor = spec["min_distance"]
            good = dist >= floor
            details[kind] = {"distance": dist, "min_distance": floor, "passed": good}
        else:  # gap-settled
            window = traj.times >= float(traj.times[-1]) / 10.0
            change = float(gaps[window].max() - gaps[window].min())
            tol = spec["tol"]
            good = change <= tol
            details[kind] = {"change": change, "tol": tol, "passed": good}
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

    oracle = gaps = None
    if cfg.family is not None:
        oracle = optimizer_oracle(cfg.family)
        gaps = diag.objective_series(traj, cfg.family) - oracle[1]
    est = estimate_limit(traj) if tail_length(traj.n_samples) >= MIN_TAIL else None

    err_series = diag.consensus_error(traj)
    series: dict[str, np.ndarray] = {"consensus_error": err_series}
    checks: dict[str, diag.CheckResult] = {}
    params = cfg.check_params

    for name in cfg.checks:
        if name == "expectations":
            ok, details = _check_expectations(cfg, traj, oracle, gaps, est)
            checks[name] = diag.CheckResult(name, ok, details)
        elif name == "consensus":
            tol = params["consensus"]["tol"]
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
            ok = all(entry["passed"] for entry in results.values())
            checks[name] = diag.CheckResult(name, ok, results)
        elif name == "observer-bound":
            observer = params["observer-bound"]
            flow_report = ergodicity_report(cfg.process, h=observer["flow_h"])
            declared_c2 = observer["declared"]
            if declared_c2 == "3/p_star":
                declared_c2 = (
                    3.0 / flow_report.p_star if flow_report.p_star > 0 else None
                )
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
        elif name in FAMILY_CHECKS:
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
            window = params["min-cut-window"]["T"]
            beta = params["min-cut-window"]["beta"]
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
        series["optimality_gap"] = gaps
        if traj.is_full_resolution:
            series["h_function"] = diag.h_function(
                traj, gradient_bound(cfg.family), cfg.schedule
            )

    report = diag.DiagnosticsReport(traj.times, series, checks)
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
        "dynamics": {"name": "saddle-point", "a": DEFAULT_GAIN},
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
        "dynamics": {"name": "spps", "a": DEFAULT_GAIN},
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
    return parse_config(scenario_raw(name))


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
            sub_out = Path(out_dir) / f"sweep_{float(value)!r}"
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
    h: float = DEFAULT_STEP,
    out_dir=None,
) -> tuple[ErgodicityReport, bool]:
    """Classify a process's flow; passes iff weakly exponentially ergodic."""
    report = ergodicity_report(process, h=h)
    passed = report.weakly_exponentially_ergodic()
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


def selftest() -> bool:
    """Print a small curated battery of end-to-end invariants; True iff all pass."""
    from .schedules import lemma_aux_check
    from .simulate import closed_form_two_agent

    results: list[tuple[str, bool, str]] = []

    cfg = scenario("counterexample")
    summary = run(cfg)
    limit = np.asarray(summary.y_limit)[:, 0]
    ok = bool(np.abs(limit - np.array([0.2, -0.2])).max() < 1e-4)
    results.append(("counterexample limit = a/(2+a) * (1,-1)", ok and summary.all_checks_passed, f"limit={limit}"))

    proc = process_from_dict(_two_node_complete_pieces(10.0))
    report, passed = check_flow(proc)
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

    for name, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name} ({detail})")
    return all(ok for _, ok, _ in results)
