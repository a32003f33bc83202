"""The CLI's input contract: malformed configs exit 2 with a JSON error
before anything is integrated, and the JSON artifacts keep their keys."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowtracker_lab
from flowtracker_lab import harness
from flowtracker_lab.cli import main
from flowtracker_lab.dynamics import SYSTEM_NAMES
from flowtracker_lab.graphnet import RANDOM_MODELS


def base_config(**overrides):
    raw = {
        "name": "contract",
        "process": {
            "n": 2,
            "pieces": [{"t": 0.0, "weights": [[0.0, 1.0], [1.0, 0.0]]}],
            "horizon": 5.0,
        },
        "dynamics": {"name": "averaging"},
        "family": {"kind": "mirror-pair", "params": {}, "box": [[-2.0], [2.0]]},
        "schedule": {"kind": "constant", "a0": 0.5},
        "init": {"x": [[0.0], [0.0]]},
        "t_end": 5.0,
        "h": 1e-2,
        "record_every": 0.05,
        "seed": 0,
        "checks": [],
    }
    raw.update(overrides)
    return raw


RANDOM_PROCESS = {"n": 2, "model": "switching-complete", "dwell": 0.5, "horizon": 5.0}

MALFORMED = {
    "zero-h": {"h": 0},
    "record-every-text": {"record_every": "x"},
    "seed-text": {"seed": "x"},
    "dynamics-number": {"dynamics": 5},
    "checks-number": {"checks": 5},
    "random-n-text": {"process": {"random": {**RANDOM_PROCESS, "n": "x"}}},
    "random-no-model": {
        "process": {"random": {k: v for k, v in RANDOM_PROCESS.items() if k != "model"}}
    },
    "piecewise-no-times": {"schedule": {"kind": "custom-piecewise"}},
    "constant-a0-text": {"schedule": {"kind": "constant", "a0": "x"}},
    "huber-no-params": {"family": {"kind": "huberized-quadratic", "params": {}}},
    "mirror-short-box": {"family": {"kind": "mirror-pair", "params": {}, "box": [1]}},
    "mirror-params-number": {"family": {"kind": "mirror-pair", "params": 5}},
    "unknown-expectation": {"expectations": [{"kind": "nope"}]},
    "expectation-no-kind": {"expectations": [{"tol": 0.1}]},
    "oracle-without-family": {
        "family": None,
        "expectations": [{"kind": "y-final-near-oracle", "tol": 0.1}],
    },
    "consensus-tol-text": {
        "checks": ["consensus"],
        "check_params": {"consensus": {"tol": "x"}},
    },
    "declared-text": {
        "checks": ["observer-bound"],
        "check_params": {"observer-bound": {"declared": "x"}},
    },
    "check-params-unknown-check": {
        "checks": ["observer-bound"],
        "check_params": {"observer-bnd": {"flow_h": 0.01}},
    },
    "consensus-unknown-option": {
        "checks": ["consensus"],
        "check_params": {"consensus": {"tolerance": 1e9}},
    },
    "window-text": {
        "checks": ["min-cut-window"],
        "check_params": {"min-cut-window": {"T": "x", "beta": 0.1}},
    },
    "window-beyond-run": {
        "checks": ["min-cut-window"],
        "check_params": {"min-cut-window": {"T": 6.0}},
    },
    "zero-flow-step": {
        "checks": ["observer-bound"],
        "check_params": {"observer-bound": {"flow_h": 0}},
    },
    "flow-step-of-horizon": {
        "checks": ["observer-bound"],
        "check_params": {"observer-bound": {"flow_h": 5.0}},
    },
    "flow-step-overflow": {
        "checks": ["observer-bound"],
        "check_params": {"observer-bound": {"flow_h": 1e300}},
    },
    "flow-step-off-switches": {
        "process": {"random": RANDOM_PROCESS},
        "checks": ["observer-bound"],
        "check_params": {"observer-bound": {"flow_h": 0.3}},
    },
    "y-limit-empty-value": {"expectations": [{"kind": "y-limit", "value": [], "tol": 0.1}]},
    "y-limit-extra-agent": {
        "expectations": [{"kind": "y-limit", "value": [[0.0], [0.0], [0.0]], "tol": 0.1}]
    },
    "y-limit-short-tail": {
        "t_end": 2.0,
        "record_every": 0.1,
        "expectations": [{"kind": "y-limit", "value": [[0.0], [0.0]], "tol": 0.1}],
    },
    "nonconvergence-short-tail": {
        "t_end": 2.0,
        "record_every": 0.1,
        "expectations": [{"kind": "nonconvergence", "min_distance": 0.1}],
    },
    "schedule-p-overflow": {"schedule": {"kind": "power-law", "a0": 0.5, "p": 1e300}},
    "init-z-on-push-sum": {
        "dynamics": {"name": "push-sum"},
        "init": {"x": [[0.0], [0.0]], "z": [0.0, 0.0]},
    },
    "init-misspelt-w-on-push-sum": {
        "dynamics": {"name": "push-sum"},
        "init": {"x": [[0.0], [0.0]], "W": [2.0, 2.0]},
    },
    "huber-radius-overflow": {
        "family": {
            "kind": "huberized-quadratic",
            "params": {"centers": [[0.5], [-0.3]], "radius": 1e300},
        }
    },
}


# what the error message must name, where the case has one culprit
NAMED = {
    "zero-h": "h must be positive",
    "random-no-model": "'model'",
    "piecewise-no-times": "'times'",
    "huber-no-params": "'centers'",
    "unknown-expectation": "'nope'",
    "expectation-no-kind": "'kind'",
    "oracle-without-family": "family",
    "check-params-unknown-check": "unknown check_params entry 'observer-bnd'",
    "consensus-unknown-option": "unknown consensus option 'tolerance'",
    "flow-step-of-horizon": "flow_h",
    "flow-step-overflow": "flow_h",
    "flow-step-off-switches": "switching time 0.5",
    "y-limit-empty-value": "shape (0,)",
    "y-limit-extra-agent": "shape (3, 1)",
    "y-limit-short-tail": "3 here",
    "nonconvergence-short-tail": "3 here",
    "schedule-p-overflow": "alpha(t_end)",
    "huber-radius-overflow": "radius^2",
    "mirror-params-number": "params must be an object",
    "init-z-on-push-sum": "no aux block 'z'",
    "init-misspelt-w-on-push-sum": "unknown init key 'W'",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_exits_2_before_integration(tmp_path, capsys, case):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(base_config(**MALFORMED[case])))
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    error = json.loads(captured.out)
    assert error["kind"] == "config"
    assert NAMED.get(case, "") in error["error"]
    assert "Traceback" not in captured.err
    # rejected while parsing, so no artifact was written
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("h", ["0", "-0.01", "nan", "inf"])
def test_flow_step_that_is_not_finite_and_positive_exits_2(tmp_path, capsys, h):
    path = tmp_path / "proc.json"
    path.write_text(json.dumps(base_config()["process"]))
    code = main(["check-flow", "--process", str(path), f"--h={h}", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    error = json.loads(captured.out)
    assert error["kind"] == "config"
    assert "flow step h" in error["error"]
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("values", [",", " ", ", ,"])
def test_sweep_without_values_exits_2(tmp_path, capsys, values):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    code = main(
        ["sweep", "--config", str(cfg_path), "--param", "schedule.a0", "--values", values,
         "--out", str(tmp_path / "out")]
    )
    captured = capsys.readouterr()
    assert code == 2
    error = json.loads(captured.out)
    assert error["kind"] == "config"
    assert "--values" in error["error"]
    assert not (tmp_path / "out").exists()


def _run_keys(tmp_path, raw):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) in (0, 1)
    report = json.loads((out / "report.json").read_text())
    summary = json.loads((out / "summary.json").read_text())
    return report, summary


def test_artifact_json_keys(tmp_path, capsys):
    # push-sum over a 2-node graph with huber agents runs every check
    raw = base_config(
        dynamics={"name": "push-sum"},
        family={
            "kind": "huberized-quadratic",
            "params": {"centers": [[0.5], [-0.3]], "radius": 2.0},
        },
        schedule={"kind": "power-law", "a0": 0.5, "p": 1.0},
        t_end=2.0,
        record_every=1e-2,
        checks=[
            "consensus",
            "input-tracking",
            "v-dominated-by-h",
            "vdot-bound",
            "gap-integral",
            "weight-conservation",
            "observer-bound",
            "min-cut-window",
        ],
        check_params={
            "observer-bound": {"declared": "3/p_star", "flow_h": 0.01},
            "min-cut-window": {"T": 0.5, "beta": 0.1},
        },
        expectations=[
            {"kind": "y-limit", "value": [[0.1], [0.1]], "tol": 1.0},
            {"kind": "y-abs-max", "max": 5.0},
            {"kind": "y-final-near-oracle", "tol": 1.0},
            {"kind": "nonconvergence", "min_distance": 0.0},
            {"kind": "gap-settled"},
        ],
    )
    report, summary = _run_keys(tmp_path, raw)
    assert set(report) == {"all_passed", "checks", "series_names"}
    assert report["series_names"] == [
        "consensus_error",
        "h_function",
        "input_tracking_residual",
        "lyapunov",
        "optimality_gap",
    ]
    for name, check in report["checks"].items():
        assert set(check) == {"details", "name", "passed"}, name
    details = {name: set(c["details"]) for name, c in report["checks"].items()}
    assert details == {
        "consensus": {"final", "tol"},
        "input-tracking": {"c1", "max_residual", "passed", "tolerance"},
        "v-dominated-by-h": {"passed", "tolerance", "worst_margin"},
        "vdot-bound": {"passed", "tolerance", "worst_margin"},
        "gap-integral": {
            "bounded",
            "final_value",
            "integrand_min",
            "passed",
            "tail_change",
        },
        "weight-conservation": {"w"},
        "observer-bound": {
            "c2_min",
            "declared_c2",
            "infeasible",
            "p_star",
            "rate",
            "violations",
        },
        "min-cut-window": {"T", "beta", "worst_window"},
        "expectations": {
            "gap-settled",
            "nonconvergence",
            "y-abs-max",
            "y-final-near-oracle",
            "y-limit",
        },
    }
    assert set(report["checks"]["weight-conservation"]["details"]["w"]) == {
        "max_drift",
        "passed",
    }
    expectations = report["checks"]["expectations"]["details"]
    assert {kind: set(entry) for kind, entry in expectations.items()} == {
        "y-limit": {"error", "passed", "residual", "tol"},
        "y-abs-max": {"max", "passed", "worst"},
        "y-final-near-oracle": {"error", "passed", "tol"},
        "nonconvergence": {"distance", "min_distance", "passed"},
        "gap-settled": {"change", "passed", "tol"},
    }
    assert set(summary) == {
        "all_checks_passed",
        "checks",
        "consensus_error_end",
        "digest",
        "files",
        "limit_residual",
        "name",
        "optimality_gap_end",
        "wall_time",
        "y_limit",
    }
    assert all(isinstance(path, str) for path in summary["files"])


def test_observer_bound_without_rate_keys(tmp_path, capsys):
    # a graph with no edges never mixes, so the rate fit is unavailable
    raw = base_config(
        process={
            "n": 2,
            "pieces": [{"t": 0.0, "weights": [[0.0, 0.0], [0.0, 0.0]]}],
            "horizon": 5.0,
        },
        family=None,
        t_end=1.0,
        checks=["observer-bound"],
    )
    report, _ = _run_keys(tmp_path, raw)
    assert set(report["checks"]["observer-bound"]["details"]) == {"reason"}


def test_flow_report_and_schedule_keys(tmp_path, capsys):
    proc = {
        "n": 2,
        "pieces": [{"t": 0.0, "weights": [[0.0, 1.0], [1.0, 0.0]]}],
        "horizon": 10.0,
    }
    path = tmp_path / "proc.json"
    path.write_text(json.dumps(proc))
    out = tmp_path / "flow"
    assert main(["check-flow", "--process", str(path), "--h", "0.01", "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    written = json.loads((out / "flow_report.json").read_text())
    assert printed == written
    assert set(written) == {
        "distances",
        "log_decay_span",
        "norm",
        "p_star",
        "prefactor",
        "r_squared",
        "rate",
        "samples",
        "weakly_exponentially_ergodic",
    }
    schedule = '{"kind": "power-law", "a0": 1.0, "p": 0.75}'
    assert main(["check-schedule", "--schedule", schedule]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {
        "integral_divergent",
        "method",
        "nonincreasing",
        "square_integrable",
        "valid",
    }


def _cli_subprocess(args, timeout):
    """The CLI run in a fresh interpreter on this checkout's package."""
    src = Path(flowtracker_lab.__file__).parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "flowtracker_lab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def _stdout_json(done):
    """The JSON a CLI subprocess printed; when stdout is not JSON, fail with
    the exit code and stderr, which show why."""
    try:
        return json.loads(done.stdout)
    except json.JSONDecodeError:
        pytest.fail(
            f"stdout is not JSON (exit {done.returncode}): {done.stdout!r}\n"
            f"stderr:\n{done.stderr}"
        )


def test_never_mixing_flow_on_a_vast_horizon_finishes(tmp_path):
    # an edgeless process never mixes, so the flow probes would run to
    # half the horizon without their cap
    raw = base_config(
        process={
            "n": 2,
            "pieces": [{"t": 0.0, "weights": [[0.0, 0.0], [0.0, 0.0]]}],
            "horizon": 1e300,
        },
        family=None,
        t_end=1.0,
        checks=["observer-bound"],
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    done = _cli_subprocess(["run", "--config", str(cfg_path)], timeout=10)
    assert done.returncode in (0, 1)
    assert "observer-bound" in _stdout_json(done)["checks"]
    assert "Traceback" not in done.stderr


def test_overflowing_flow_spans_give_no_rate_and_no_warnings(tmp_path):
    # on a never-mixing process with a vast horizon the flow spans reach
    # 5e299, whose squares overflow a least-squares rate fit
    raw = base_config(
        process={
            "n": 2,
            "pieces": [{"t": 0.0, "weights": [[0.0, 0.0], [0.0, 0.0]]}],
            "horizon": 1e300,
        },
        family=None,
        t_end=1.0,
        checks=["observer-bound"],
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    done = _cli_subprocess(
        ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")], timeout=60
    )
    assert done.returncode == 1
    assert _stdout_json(done)["checks"] == {"observer-bound": False}
    assert done.stderr == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["checks"]["observer-bound"]["details"]["reason"].startswith(
        "flow rate fit unavailable"
    )


def test_schema_enums_match_the_code():
    schema = json.loads((Path(__file__).parents[1] / "docs" / "config_schema.json").read_text())
    props = schema["properties"]
    random_spec = props["process"]["oneOf"][2]["properties"]["random"]
    assert tuple(props["dynamics"]["properties"]["name"]["enum"]) == SYSTEM_NAMES
    assert tuple(random_spec["properties"]["model"]["enum"]) == RANDOM_MODELS
    assert tuple(props["checks"]["items"]["enum"]) == harness.KNOWN_CHECKS
    kinds = props["expectations"]["items"]["properties"]["kind"]["enum"]
    assert tuple(kinds) == tuple(harness.EXPECTATION_FIELDS)
    params = props["check_params"]
    assert params["additionalProperties"] is False
    assert tuple(params["properties"]) == tuple(harness.CHECK_OPTIONS)
    for name, options in harness.CHECK_OPTIONS.items():
        assert params["properties"][name]["additionalProperties"] is False
        assert tuple(params["properties"][name]["properties"]) == options


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert "FAIL" not in capsys.readouterr().out
