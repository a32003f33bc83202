"""Command-line entry point.

Verbs: run, scenario list, sweep, check-flow, check-schedule, selftest.
Exit codes: 0 all requested checks passed, 1 a check failed, 2 the input
was invalid. Validation failures print machine-readable JSON on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import harness
from .errors import ConfigError, FlowtrackerError
from .graphnet import DEFAULT_STEP


def _fail(kind: str, message: str) -> int:
    print(json.dumps({"error": message, "kind": kind}))
    return 2


def _default_out(explicit, name: str):
    if explicit:
        return Path(explicit)
    env = os.environ.get(harness.OUT_ENV_VAR)
    if env:
        return Path(env) / name
    return None


def _load_raw_config(args) -> dict:
    if args.scenario:
        return harness.scenario_raw(args.scenario)
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError("a config file must hold a JSON object")
        return raw
    raise FlowtrackerError("pass --config PATH or --scenario NAME")


def _cmd_run(args) -> int:
    raw = _load_raw_config(args)
    if args.seed is not None:
        raw["seed"] = args.seed
    cfg = harness.parse_config(raw, full_resolution=args.full_resolution)
    out = _default_out(args.out, cfg.name)
    try:
        summary = harness.run(cfg, out_dir=out)
    except (FlowtrackerError, OSError) as exc:
        return _fail("runtime", str(exc))
    print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    return 0 if summary.all_checks_passed else 1


def _cmd_scenario(args) -> int:
    for name in harness.scenario_names():
        print(name)
    return 0


def _cmd_sweep(args) -> int:
    raw = _load_raw_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        return _fail("config", f"--values {args.values!r}: {exc}")
    if not values:
        return _fail("config", f"--values {args.values!r} holds no number")
    out = _default_out(args.out, f"{raw.get('name', 'run')}-sweep")
    results = harness.sweep(raw, args.param, values, out_dir=out)
    for value, summary in results:
        flag = "ok" if summary.all_checks_passed else "FAILED"
        print(f"{args.param}={value:g}: y_limit={summary.y_limit} [{flag}]")
    return 0 if all(s.all_checks_passed for _, s in results) else 1


def _cmd_check_flow(args) -> int:
    with open(args.process) as fh:
        process = harness.load_process(json.load(fh))
    report, passed = harness.check_flow(process, h=args.h, out_dir=_default_out(args.out, "flow"))
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    if not passed:
        print("flow is NOT weakly exponentially ergodic", file=sys.stderr)
    return 0 if passed else 1


def _cmd_check_schedule(args) -> int:
    if args.schedule.strip().startswith("{"):
        raw = json.loads(args.schedule)
    else:
        with open(args.schedule) as fh:
            raw = json.load(fh)
    report, valid = harness.check_schedule(raw)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if valid else 1


def _cmd_selftest(args) -> int:
    return 0 if harness.selftest() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowtracker-lab",
        description="continuous-time distributed optimization simulations and checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one experiment and run its checks")
    p_run.add_argument("--config", help="path to a config JSON file")
    p_run.add_argument("--scenario", help="name of a built-in scenario")
    p_run.add_argument("--out", help="output directory (default: $FLOWTRACKER_OUT/<name>)")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.add_argument(
        "--full-resolution",
        action="store_true",
        help="record every integrator step, as the checks "
        f"{', '.join(n for n, row in harness.CHECKS.items() if row.every_step)} need",
    )
    p_run.set_defaults(func=_cmd_run)

    p_scen = sub.add_parser("scenario", help="scenario utilities")
    p_scen.add_argument("action", choices=["list"])
    p_scen.set_defaults(func=_cmd_scenario)

    p_sweep = sub.add_parser("sweep", help="run a config across parameter values")
    p_sweep.add_argument("--config", help="path to a config JSON file")
    p_sweep.add_argument("--scenario", help="name of a built-in scenario")
    p_sweep.add_argument("--param", required=True, help="dotted path, e.g. schedule.a0")
    p_sweep.add_argument("--values", required=True, help="comma-separated numbers")
    p_sweep.add_argument("--out", help="output directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_flow = sub.add_parser("check-flow", help="classify a process's mixing flow")
    p_flow.add_argument("--process", required=True, help="process JSON file")
    p_flow.add_argument("--h", type=float, default=DEFAULT_STEP, help="integration step")
    p_flow.add_argument("--out", help="output directory")
    p_flow.set_defaults(func=_cmd_check_flow)

    p_sched = sub.add_parser("check-schedule", help="validate a step-size schedule")
    p_sched.add_argument("--schedule", required=True, help="JSON file or inline JSON")
    p_sched.set_defaults(func=_cmd_check_schedule)

    p_self = sub.add_parser("selftest", help="run the built-in invariant battery")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    """Run one verb; its invalid input, an unreadable file or malformed JSON
    exits 2 with kind config."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FlowtrackerError, OSError, json.JSONDecodeError) as exc:
        return _fail("config", str(exc))


if __name__ == "__main__":
    sys.exit(main())
