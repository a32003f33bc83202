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
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import diagnostics as diag
from .dynamics import DEFAULT_GAIN, SYSTEMS, FlowTrackerSystem, gradient_feedback, make_system
from .errors import ConfigError, FlowtrackerError, InvalidInputError, check_integer, check_known
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

# the top-level keys of a config
CONFIG_KEYS = (
    "name", "process", "dynamics", "family", "schedule", "init", "d", "t_end", "h",
    "record_every", "seed", "checks", "check_params", "expectations", "jsonl",
)

# the aux blocks an init block may set: those of every system
INIT_AUX_KEYS = tuple(dict.fromkeys(block for row in SYSTEMS.values() for block, _ in row.aux))

OUT_ENV_VAR = "FLOWTRACKER_OUT"

FLOAT_MAX = sys.float_info.max


@dataclass(eq=False)
class ExperimentConfig:
    """A validated experiment: resolved objects plus the raw dict they came from."""

    raw: dict
    process: LaplacianProcess
    system: FlowTrackerSystem
    family: ObjectiveFamily | None
    schedule: StepSchedule | None
    init_state: np.ndarray  # the flat state, as system.initial_state builds it
    t_end: float
    h: float
    record_every: float  # the grid the run records: h under full resolution
    seed: int
    checks: dict  # check name -> its resolved options, in the order run
    expectations: dict  # expectation kind -> its resolved fields
    name: str = "run"

    def digest(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def random_init(n: int, d: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Initial outputs drawn uniformly from [-scale, scale]; init.random's
    keys are this function's keyword arguments, seed the config's by default."""
    check_integer(seed, "seed")
    if not scale > 0:
        raise InvalidInputError(f"scale must be positive, got {scale!r}")
    if not math.isfinite(2 * scale):
        raise InvalidInputError(f"scale must leave 2 * scale finite, got {scale!r}")
    return np.random.default_rng(seed).uniform(-scale, scale, (n, d))


def _resolve_process(spec: dict, h: float) -> LaplacianProcess:
    if "file" in spec:
        for key in spec:
            check_known(key, ("file",), "process key")
        # a path, never a number, which open() would take for a descriptor
        with open(Path(spec["file"])) as fh:
            return load_process(json.load(fh))
    if "random" in spec:
        for key in spec:
            check_known(key, ("random",), "process key")
        return random_process(**spec["random"], h=h)
    return process_from_dict(spec)


# the fields the schema types as strings: a key's value, or a list's entries
STRING_FIELDS = ("name", "kind", "model", "form", "file", "declared", "checks")


def _bad_leaves(node, strings: bool = False):
    """Yield (steps, value) of each leaf of a raw config that no number
    field may hold, in document order: a number that is not a finite float,
    a boolean, null in an array, or a string outside STRING_FIELDS, where
    `strings` says whether the entries of a list node are in them. Tests
    exact JSON types. `steps` spells the leaf's path below node, last step
    first; only a leaf that is reported has its path spelt."""
    in_list = type(node) is list
    for key, value in enumerate(node) if in_list else node.items():
        kind = type(value)
        if kind is float or kind is int:
            if -FLOAT_MAX <= value <= FLOAT_MAX:
                continue
        elif kind is dict or kind is list:
            for steps, leaf in _bad_leaves(value, key in STRING_FIELDS):
                steps.append(f"[{key}]" if in_list else f".{key}")
                yield steps, leaf
            continue
        elif kind is str:
            if (strings if in_list else key in STRING_FIELDS):
                continue
        elif kind is not bool and (value is not None or not in_list):
            continue
        yield [f"[{key}]" if in_list else f".{key}"], value


def _reject_bad_number(raw, root: str = "", deferred: list | None = None) -> None:
    """ConfigError naming the first leaf under `root` of a raw dict or list
    that `_bad_leaves` finds; a boolean's or a string's (path, value) goes
    to the list `deferred` instead, where one is given, so that the reader
    of its part can name it first."""
    for steps, value in _bad_leaves(raw):
        path = root + "".join(reversed(steps))
        if deferred is not None and type(value) in (bool, str):
            deferred.append((path, value))
        else:
            _raise_first([(path, value)])


def _raise_first(leaves: list) -> None:
    """ConfigError naming the first of the (path, value) leaves, if any."""
    if leaves:
        path, value = leaves[0]
        raise ConfigError(f"{path.lstrip('.')} is {json.dumps(value)}, not a finite number")


class _part:
    """Read one part of a config: a missing key and the errors of a malformed
    value become ConfigErrors that name the part; anything else, a bug, shows."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is None or issubclass(kind, ConfigError):
            return
        if issubclass(kind, KeyError):
            raise ConfigError(f"{self.name} is missing field {exc}") from exc
        if issubclass(kind, (FlowtrackerError, AttributeError, TypeError, ValueError)):
            raise ConfigError(f"{self.name} invalid: {exc}") from exc


# --- checks and expectations -------------------------------------------------


def _number(value, name: str, read: Callable = float):
    """read(value) for a number field; a string, which float() would read, is a ConfigError."""
    if np.asarray(value).dtype.kind == "U":
        raise ConfigError(f"{name} is {json.dumps(value)}, not a finite number")
    return read(value)


def _container(value, name: str, kind: type):
    """A copy of an object (kind dict) or array (kind list) field; a value of
    another JSON type is a ConfigError."""
    if type(value) is not kind:
        what = "an object" if kind is dict else "an array"
        raise ConfigError(f"{name} must be {what}, got {json.dumps(value)}")
    return kind(value)


# marks a field that the config must give
REQUIRED = object()

# how a field that is not a plain number is read
_READ = {
    "value": lambda value, name: _number(
        _container(value, name, list), name, lambda v: np.asarray(v, dtype=float)
    ),
    "declared": lambda value, name: value if value in (None, "3/p_star") else _number(value, name),
}


@dataclass(frozen=True)
class Row:
    """One check or one expectation kind: its verdict, each field's default
    (REQUIRED for one the config must give), its needs (an objective family
    and the oracle, records at every step, a record tail of MIN_TAIL, a
    ratio block), and a hook that checks the resolved fields against the
    parsed config."""

    verdict: Callable
    fields: dict = field(default_factory=dict)
    family: bool = False
    every_step: bool = False
    tail: bool = False
    ratio: bool = False
    hook: Callable = lambda opts, cfg: None

    def resolve(self, name: str, spec: dict) -> dict:
        """The fields read from spec, a missing one as its default; a key
        that is not a field of the row named `name` is rejected."""
        for key in spec:
            check_known(key, tuple(self.fields), f"{name} option")
        out = dict(self.fields)
        for key, default in self.fields.items():
            if key in spec or default is REQUIRED:
                out[key] = _READ.get(key, _number)(spec[key], f"{name} {key}")
        return out


def _flow_step_fits(opts: dict, cfg: ExperimentConfig) -> None:
    if opts["flow_h"] is None:
        opts["flow_h"] = cfg.h
    if not 0 < opts["flow_h"] < cfg.process.horizon:
        raise ConfigError("observer-bound flow_h must lie in (0, process horizon)")
    with _part("observer-bound flow_h"):
        check_switch_alignment(cfg.process, opts["flow_h"])


def _window_fits(opts: dict, cfg: ExperimentConfig) -> None:
    if not 0 < opts["T"] <= cfg.t_end:
        raise ConfigError("min-cut-window T must lie in (0, t_end]")


def _value_fits(opts: dict, cfg: ExperimentConfig) -> None:
    with _part(f"y-limit value of shape {opts['value'].shape}"):
        np.broadcast_to(opts["value"], (cfg.system.n, cfg.system.d))


@dataclass(frozen=True, eq=False)
class RunContext:
    """What the verdicts read. The oracle (x*, f*), the gaps F(xbar) - f*
    and the limit estimate are None where the run has none; `series` takes
    the series a verdict adds to the report. Each method is one row's
    verdict. It looks the layer functions up when called, so a wrapper put
    on a module attribute (as perfbench's tracer does) sees every call."""

    cfg: ExperimentConfig
    traj: Trajectory
    oracle: tuple | None
    gaps: np.ndarray | None
    est: LimitEstimate | None
    series: dict

    def expectations(self, opts: dict) -> tuple[bool, dict]:
        details = {}
        for kind, spec in self.cfg.expectations.items():
            passed, detail = EXPECTATIONS[kind].verdict(self, spec)
            details[kind] = {**detail, "passed": passed}
        return all(entry["passed"] for entry in details.values()), details

    def consensus(self, opts: dict) -> tuple[bool, dict]:
        final = float(self.series["consensus_error"][-1])
        return final <= opts["tol"], {"final": final, "tol": opts["tol"]}

    def input_tracking(self, opts: dict) -> tuple[bool, dict]:
        report = diag.input_tracking_check(self.traj, c1=self.cfg.system.c1)
        self.series["input_tracking_residual"] = np.concatenate(([0.0], report.residuals, [0.0]))
        return report.passed, report.to_dict()

    def v_dominated_by_h(self, opts: dict) -> tuple[bool, dict]:
        cap = gradient_bound(self.cfg.family)
        report = diag.v_dominated_by_h_check(self.traj, self.oracle[0], cap, self.cfg.schedule)
        return report.passed, report.to_dict()

    def vdot_bound(self, opts: dict) -> tuple[bool, dict]:
        report = diag.vdot_bound_check(
            self.traj, self.cfg.family, self.cfg.schedule, *self.oracle, c1=self.cfg.system.c1
        )
        return report.passed, report.to_dict()

    def gap_integral(self, opts: dict) -> tuple[bool, dict]:
        cfg = self.cfg
        report = diag.gap_integral_check(self.traj, cfg.family, cfg.schedule, self.oracle[1])
        return report.passed, report.to_dict()

    def weight_conservation(self, opts: dict) -> tuple[bool, dict]:
        results = diag.weight_conservation_check(self.traj)
        return all(entry["passed"] for entry in results.values()), results

    def observer_bound(self, opts: dict) -> tuple[bool, dict]:
        flow = ergodicity_report(self.cfg.process, h=opts["flow_h"])
        declared = opts["declared"]
        if declared == "3/p_star":
            declared = 3.0 / flow.p_star if flow.p_star > 0 else None
        if flow.rate is None or not (0 < flow.rate < 1):
            return False, {"reason": "flow rate fit unavailable or >= 1"}
        report = diag.observer_bound_fit(self.traj, flow.rate, declared_c2=declared)
        ok = not report.infeasible and (declared is None or report.violations == 0)
        return ok, {**report.to_dict(), "p_star": flow.p_star}

    def min_cut_window(self, opts: dict) -> tuple[bool, dict]:
        window, beta = opts["T"], opts["beta"]
        starts = np.arange(0.0, self.cfg.t_end - window + 1e-9, window / 2)
        cuts: dict[int, float] = {}
        worst = min(
            integrated_min_cut(self.cfg.process, float(t0), window, cuts=cuts) for t0 in starts
        )
        return worst >= beta, {"worst_window": worst, "beta": beta, "T": window}

    def y_limit(self, spec: dict) -> tuple[bool, dict]:
        tol, est = spec["tol"], self.est
        err = float(np.abs(est.y_limit - spec["value"]).max())
        good = err <= tol and est.residual <= tol
        return good, {"error": err, "residual": est.residual, "tol": tol}

    def y_abs_max(self, spec: dict) -> tuple[bool, dict]:
        worst = float(np.abs(self.traj.y[-1]).max())
        return worst <= spec["max"], {"worst": worst, "max": spec["max"]}

    def y_final_near_oracle(self, spec: dict) -> tuple[bool, dict]:
        err = float(np.linalg.norm(self.traj.y[-1] - self.oracle[0][None, :], axis=1).max())
        return err <= spec["tol"], {"error": err, "tol": spec["tol"]}

    def nonconvergence(self, spec: dict) -> tuple[bool, dict]:
        floor = spec["min_distance"]
        dist = float(np.linalg.norm(self.est.y_limit - self.oracle[0][None, :], axis=1).min())
        return dist >= floor, {"distance": dist, "min_distance": floor}

    def gap_settled(self, spec: dict) -> tuple[bool, dict]:
        window = self.traj.times >= float(self.traj.times[-1]) / 10.0
        change = float(self.gaps[window].max() - self.gaps[window].min())
        return change <= spec["tol"], {"change": change, "tol": spec["tol"]}


EXPECTATIONS_CHECK = "expectations"  # runs the expectations, listed in checks or not

CHECKS = {
    EXPECTATIONS_CHECK: Row(RunContext.expectations),
    "consensus": Row(RunContext.consensus, {"tol": 1e-2}),
    "input-tracking": Row(RunContext.input_tracking, every_step=True),
    "v-dominated-by-h": Row(RunContext.v_dominated_by_h, family=True, every_step=True),
    "vdot-bound": Row(RunContext.vdot_bound, family=True),
    "gap-integral": Row(RunContext.gap_integral, family=True),
    "weight-conservation": Row(RunContext.weight_conservation, ratio=True),
    # flow_h None is the run's step h
    "observer-bound": Row(
        RunContext.observer_bound, {"flow_h": None, "declared": None}, hook=_flow_step_fits
    ),
    "min-cut-window": Row(RunContext.min_cut_window, {"T": 1.0, "beta": 0.0}, hook=_window_fits),
}

EXPECTATIONS = {
    "y-limit": Row(
        RunContext.y_limit, {"value": REQUIRED, "tol": REQUIRED}, tail=True, hook=_value_fits
    ),
    "y-abs-max": Row(RunContext.y_abs_max, {"max": REQUIRED}),
    "y-final-near-oracle": Row(RunContext.y_final_near_oracle, {"tol": REQUIRED}, family=True),
    "nonconvergence": Row(
        RunContext.nonconvergence, {"min_distance": REQUIRED}, family=True, tail=True
    ),
    "gap-settled": Row(RunContext.gap_settled, {"tol": 1e-3}, family=True),
}


def parse_config(raw: dict, full_resolution: bool = False) -> ExperimentConfig:
    """Validate a raw config dict and resolve every referenced object.

    All raw input is converted here, so a malformed config raises
    ConfigError before anything is integrated. With full_resolution the
    run records every step, and the checks' needs are judged on that grid.
    """
    # a boolean or a string is rejected once every part is read, so that a
    # part's check names it first
    deferred: list = []
    with _part("config"):
        for key, kind, what in (("name", str, "a string"), ("jsonl", bool, "true or false")):
            if key in raw and type(raw[key]) is not kind:
                raise ConfigError(f"{key} must be {what}, got {json.dumps(raw[key])}")
        _reject_bad_number({k: v for k, v in raw.items() if k != "jsonl"}, deferred=deferred)
        for key in raw:
            check_known(key, CONFIG_KEYS, "config key")
        h = _number(raw["h"], "h")
        t_end = _number(raw["t_end"], "t_end")
        record_every = _number(raw.get("record_every", DEFAULT_RECORD_EVERY), "record_every")
        seed, d = raw.get("seed", 0), raw.get("d", 1)
        check_integer(seed, "seed")
        check_integer(d, "d")
        if d < 1:
            raise ConfigError(f"d must be at least 1, got {d}")
        dyn = _container(raw.get("dynamics", {}), "dynamics", dict)
        checks = tuple(_container(raw.get("checks", []), "checks", list))
        params = _container(raw.get("check_params", {}), "check_params", dict)
        for key, value in params.items():
            params[key] = _container(value, f"check_params.{key}", dict)
        expectations = _container(raw.get("expectations", []), "expectations", list)
        for i, spec in enumerate(expectations):
            spec = _container(spec, f"expectations[{i}]", dict)
            expectations[i] = (spec.pop("kind"), spec)
        name = raw.get("name", "run")
        optioned = tuple(check for check, row in CHECKS.items() if row.fields)
        for key in params:
            check_known(key, optioned, "check_params entry")
            if key not in checks:
                raise ConfigError(
                    f"check_params sets options of {key!r}, which checks does not list"
                )
        if raw.get("process") is None:
            raise ConfigError("config needs a 'process' block")
    with _part("process"):
        process = _resolve_process(raw["process"], h)
    with _part("step grid"):
        n_steps, per_record, _ = step_grid(process, t_end, h, record_every)
    if full_resolution:
        record_every, per_record = h, 1

    family = None
    schedule = None
    if raw.get("schedule") is not None:
        # read beside a null family too, though no law then uses it
        with _part("schedule"):
            schedule = schedule_from_dict(_container(raw["schedule"], "schedule", dict))
    if raw.get("family") is not None:
        with _part("family"):
            family = family_from_dict(raw["family"])
        if schedule is None:
            raise ConfigError("a family needs a schedule for the gradient feedback")
        try:
            # alpha is nonincreasing, so t_end holds its least value on the run
            alpha_end = schedule(t_end)
        except OverflowError:
            alpha_end = 0.0
        if not 0 < alpha_end <= 1:
            raise ConfigError(f"schedule alpha(t_end) = {alpha_end} is not a finite step in (0, 1]")
        if "d" in raw and d != family.d:
            raise ConfigError(f"d is {d}, but the family's agents have dimension {family.d}")
        d = family.d
    with _part("dynamics"):
        system = make_system(dyn.pop("name"), process, d=d, **dyn)

    if family is not None and family.n != system.n:
        raise ConfigError(f"family has {family.n} agents but the process has {system.n}")
    with _part("initial condition"):
        init_spec = _container(raw.get("init", {}), "init", dict)
        for key in init_spec:
            check_known(key, ("x", "random") + INIT_AUX_KEYS, "init key")
        if "x" in init_spec:
            x0 = init_spec["x"]
        else:
            x0 = random_init(system.n, system.d, **{"seed": seed, **init_spec.get("random", {})})
        aux = {key: init_spec[key] for key in INIT_AUX_KEYS if key in init_spec}
        init_state = system.check_initial(system.initial_state(x0, **aux))
        # a ratio block starts at 1, so the initial output is x
        y0 = system.split(init_state)[0]
        box = family.validity_box if family is not None else None
        if box is not None and box.outside(y0).any():
            raise ConfigError(
                f"initial outputs {y0.tolist()} leave the validity box {box.to_list()}"
            )

    cfg = ExperimentConfig(
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
        checks={},
        expectations={},
        name=name,
    )
    if expectations and EXPECTATIONS_CHECK not in checks:
        checks += (EXPECTATIONS_CHECK,)
    elif not expectations and EXPECTATIONS_CHECK in checks:
        raise ConfigError(f"the {EXPECTATIONS_CHECK} check has no expectations to check")
    with _part("checks"):
        rows = [(CHECKS, "check", key, params.get(key, {}), cfg.checks) for key in checks]
    rows += [(EXPECTATIONS, "expectation", *pair, cfg.expectations) for pair in expectations]
    tail = tail_length(n_steps // per_record + 1)
    for table, label, key, spec, resolved in rows:
        # a tuple, since a kind read from JSON may be a list, which no dict can hash
        if key not in tuple(table):
            raise ConfigError(f"unknown {label} {key!r}; options: {tuple(table)}")
        if key in resolved:
            raise ConfigError(f"{label} {key!r} is listed twice")
        row = table[key]
        if row.family and family is None:
            raise ConfigError(f"the {key} {label} needs an objective family")
        if row.every_step and abs(record_every - h) > 1e-12:
            raise ConfigError(f"the {key} {label} needs record_every == h")
        if row.ratio and system.ratio is None:
            raise ConfigError(f"the {key} {label} needs dynamics with a ratio block")
        if row.tail and tail < MIN_TAIL:
            raise ConfigError(
                f"the {key} {label} averages the last tenth of the records, "
                f"{tail} here; it needs {MIN_TAIL} (t_end / record_every >= 90)"
            )
        with _part(f"the {key} {label}"):
            resolved[key] = row.resolve(key, spec)
            row.hook(resolved[key], cfg)
    _raise_first(deferred)
    return cfg


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


def run(cfg: ExperimentConfig, out_dir=None) -> RunSummary:
    """Integrate, run the requested checks, and emit artifacts.

    Writes trajectory.csv, report.json, and summary.json into out_dir
    when one is given. The summary's check map defines the CLI exit code.
    """
    started = time.perf_counter()
    law = None
    if cfg.family is not None:
        law = gradient_feedback(cfg.family, cfg.schedule)
    traj = integrate(
        cfg.system,
        law,
        cfg.init_state,
        t_end=cfg.t_end,
        h=cfg.h,
        record_every=cfg.record_every,
    )

    oracle = gaps = None
    if cfg.family is not None:
        oracle = optimizer_oracle(cfg.family)
        gaps = diag.objective_series(traj, cfg.family) - oracle[1]
    est = estimate_limit(traj) if tail_length(traj.n_samples) >= MIN_TAIL else None

    err_series = diag.consensus_error(traj)
    series: dict[str, np.ndarray] = {"consensus_error": err_series}
    ctx = RunContext(cfg, traj, oracle, gaps, est, series)
    checks = {
        name: diag.CheckResult(name, *CHECKS[name].verdict(ctx, opts))
        for name, opts in cfg.checks.items()
    }

    if cfg.family is not None:
        series["lyapunov"] = diag.lyapunov_series(traj, oracle[0])
        series["optimality_gap"] = gaps
        if traj.is_full_resolution:
            series["h_function"] = diag.h_function(
                traj, gradient_bound(cfg.family), cfg.schedule
            )

    report = diag.DiagnosticsReport(traj.times, series, checks)
    # the gap series' last entry, so that the summary and the CSV agree
    gap_end = float(gaps[-1]) if gaps is not None else None
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


def _mirror_pair_preset(
    t_end: float, h: float, schedule: dict, checks: list, expectations: list
) -> dict:
    """Averaging of the mirror pair on the two-node complete graph from 0."""
    return {
        "process": _two_node_complete_pieces(t_end),
        "dynamics": {"name": "averaging"},
        "family": {"kind": "mirror-pair", "params": {}, "box": [[-2.0], [2.0]]},
        "schedule": schedule,
        "init": {"x": [[0.0], [0.0]]},
        "t_end": t_end,
        "h": h,
        "record_every": 0.1,
        "checks": checks,
        "expectations": expectations,
    }


def _huberized_preset(
    graph, dynamics: dict, n: int, seed: int, a0: float, t_end: float, record_every: float,
    checks: list, tol: float, check_params: dict | None = None,
) -> dict:
    """n huberized agents whose centers and initial outputs are seeded draws,
    expected to end within tol of the optimum. `graph` is an inline process
    or the (model, seed) of a random process over the run."""
    if isinstance(graph, tuple):
        model, graph_seed = graph
        random = {"n": n, "model": model, "dwell": 0.5, "horizon": t_end, "seed": graph_seed}
        graph = {"random": random}
    centers = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 1)).tolist()
    raw = {
        "process": graph,
        "dynamics": dynamics,
        "family": {
            "kind": "huberized-quadratic",
            "params": {"centers": centers, "radius": 2.0, "curvature": 1.0},
        },
        "schedule": {"kind": "power-law", "a0": a0, "p": 1.0},
        "init": {"random": {"seed": 10 * seed, "scale": 1.0}},
        "t_end": t_end,
        "h": 0.01,
        "record_every": record_every,
        "checks": checks,
        "expectations": [{"kind": "y-final-near-oracle", "tol": tol}],
    }
    if check_params is not None:
        raw["check_params"] = check_params
    return raw


# each name's builder call: every call builds afresh, since callers mutate what they get
PRESETS = {
    # a constant step settles at a/(2+a) * (1, -1), not at the optimum 0
    "counterexample": lambda: _mirror_pair_preset(
        t_end=50.0, h=1e-3, schedule={"kind": "constant", "a0": 0.5}, checks=["expectations"],
        expectations=[
            {"kind": "y-limit", "value": [[0.2], [-0.2]], "tol": 1e-4},
            {"kind": "nonconvergence", "min_distance": 0.1},
        ],
    ),
    # a diminishing step reaches it
    "counterexample-diminishing": lambda: _mirror_pair_preset(
        t_end=2000.0, h=0.02, schedule={"kind": "power-law", "a0": 1.0, "p": 1.0},
        checks=["expectations", "gap-integral"],
        expectations=[{"kind": "y-abs-max", "max": 0.05}, {"kind": "gap-settled", "tol": 1e-3}],
    ),
    "averaging-ergodic": lambda: _huberized_preset(
        ("switching-complete", 42), {"name": "averaging"}, n=4, seed=421, a0=0.5, t_end=250.0,
        record_every=0.01, tol=0.05,
        checks=["consensus", "input-tracking", "v-dominated-by-h", "vdot-bound", "gap-integral"],
    ),
    "pushsum-directed": lambda: _huberized_preset(
        ("directed-ring-rotate", 7), {"name": "push-sum"}, n=5, seed=75, a0=1.0, t_end=1000.0,
        record_every=0.1, tol=1e-2, checks=["consensus", "weight-conservation", "observer-bound"],
        check_params={
            "observer-bound": {"declared": "3/p_star", "flow_h": 0.01},
            "consensus": {"tol": 1e-2},
        },
    ),
    "saddlepoint-mincut": lambda: _huberized_preset(
        ("switching-complete", 11), {"name": "saddle-point", "a": DEFAULT_GAIN}, n=3, seed=113,
        a0=0.5, t_end=250.0, record_every=0.01, tol=0.05,
        checks=["consensus", "input-tracking", "v-dominated-by-h", "vdot-bound", "min-cut-window"],
        check_params={"min-cut-window": {"T": 0.5, "beta": 0.25}},
    ),
    "spps-stationary": lambda: _huberized_preset(
        _shared_stationary_pieces(300.0, 0.5), {"name": "spps", "a": DEFAULT_GAIN}, n=3, seed=31,
        a0=1.0, t_end=300.0, record_every=0.1, tol=0.05,
        checks=["consensus", "weight-conservation"], check_params={"consensus": {"tol": 1e-2}},
    ),
}


def scenario_names() -> list[str]:
    return sorted(PRESETS)


def scenario(name: str) -> ExperimentConfig:
    """A fully pinned, self-validating preset configuration."""
    return parse_config(scenario_raw(name))


def scenario_raw(name: str) -> dict:
    if name not in PRESETS:
        raise InvalidInputError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        )
    return {"name": name, **PRESETS[name](), "seed": 0}


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
    if type(node[last]) is bool or not isinstance(node[last], (int, float)):
        raise ConfigError(f"sweep path {path!r} must address a numeric field")
    node[last] = value


def sweep(base_raw: dict, path: str, values, out_dir=None) -> list[tuple[float, RunSummary]]:
    """Independent runs of the base config with one numeric field swept."""
    results = []
    for value in values:
        raw = copy.deepcopy(base_raw)
        _set_by_path(raw, path, value)
        name = raw.get("name", "run")
        if isinstance(name, str):  # parse_config rejects any other name
            raw["name"] = f"{name}[{path}={value}]"
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


def load_process(raw) -> LaplacianProcess:
    """The process a raw process file holds, its numbers walked first."""
    with _part("process"):
        _reject_bad_number(raw, "process")
        return process_from_dict(raw)


def check_schedule(raw: dict) -> tuple[dict, bool]:
    """The validity report of the schedule a raw dict describes, and its
    verdict; a boolean or a string is rejected once the schedule is read."""
    deferred: list = []
    with _part("schedule"):
        _reject_bad_number(raw, "schedule", deferred)
        schedule = schedule_from_dict(raw)
    _raise_first(deferred)
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
