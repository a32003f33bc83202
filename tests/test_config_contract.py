"""The CLI's input contract: malformed configs exit 2 with a JSON error
before anything is integrated, and the JSON artifacts keep their keys."""

import copy
import inspect
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowtracker_lab
from flowtracker_lab import harness
from flowtracker_lab.cli import main
from flowtracker_lab.dynamics import SYSTEM_NAMES, make_system
from flowtracker_lab.errors import ConfigError
from flowtracker_lab.graphnet import RANDOM_MODELS, random_process
from flowtracker_lab.objectives import FAMILIES, TABLE_ENTRY_KEYS
from flowtracker_lab.schedules import SCHEDULES


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

# quadratic agents without a validity box: their gradients have no bound
UNBOXED_QUADRATICS = {
    "kind": "custom-table",
    "params": {"entries": [{"center": [0.5]}, {"center": [-0.5]}]},
}

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
    "gap-settled-unknown-field": {"expectations": [{"kind": "gap-settled", "tolerance": 1e-9}]},
    "weight-conservation-without-ratio": {"checks": ["weight-conservation"]},
    "expectations-check-without-expectations": {"checks": ["expectations"]},
    "dynamics-misspelt-gain": {"dynamics": {"name": "saddle-point", "gain": 3}},
    "power-law-misspelt-p": {"schedule": {"kind": "power-law", "a0": 0.5, "P": 0.6}},
    "init-y": {"init": {"x": [[0.0], [0.0]], "y": [[0.0], [0.0]]}},
    "constant-with-p": {"schedule": {"kind": "constant", "a0": 0.5, "p": 1.0}},
    "power-law-with-times": {"schedule": {"kind": "power-law", "a0": 0.5, "times": [0.0]}},
    "mirror-misspelt-offset": {"family": {"kind": "mirror-pair", "params": {"ofset": 3.0}}},
    "huber-without-radius": {
        "family": {"kind": "huberized-quadratic", "params": {"centers": [[0.5], [-0.3]]}}
    },
    "logistic-with-centers": {
        "family": {
            "kind": "logistic-scalar",
            "params": {"signs": [1, -1], "offsets": [0.0, 0.5], "centers": [[0.0], [0.0]]},
        }
    },
    "y-abs-max-with-tol": {"expectations": [{"kind": "y-abs-max", "max": 1.0, "tol": 0.1}]},
    "y-limit-without-tol": {"expectations": [{"kind": "y-limit", "value": [[0.0], [0.0]]}]},
    "random-misspelt-seed": {"process": {"random": {**RANDOM_PROCESS, "sed": 7}}},
    "random-fractional-seed": {"process": {"random": {**RANDOM_PROCESS, "seed": 1.5}}},
    "random-seed-list": {"process": {"random": {**RANDOM_PROCESS, "seed": [1, 2]}}},
    "random-zero-h": {"h": 0, "process": {"random": RANDOM_PROCESS}},
    "negative-weight": {
        "process": {
            "n": 2,
            "pieces": [{"t": 0.0, "weights": [[0.0, -1.0], [1.0, 0.0]]}],
            "horizon": 5.0,
        }
    },
    "family-misspelt-params": {"family": {"kind": "mirror-pair", "parms": {"offset": 3.0}}},
    "init-random-misspelt-seed": {"init": {"random": {"sed": 7}}},
    "init-random-fractional-seed": {"init": {"random": {"seed": 1.5}}},
    "init-random-zero-scale": {"init": {"random": {"seed": 1, "scale": 0}}},
    "fractional-seed": {"seed": 1.5},
    "boolean-seed": {"seed": True},
    "fractional-d": {"family": None, "schedule": None, "d": 1.5},
    "boolean-d": {"family": None, "schedule": None, "d": True},
    "zero-d": {"family": None, "schedule": None, "d": 0},
    "d-beside-a-mirror-pair": {"d": 3},
    "random-boolean-seed": {"process": {"random": {**RANDOM_PROCESS, "seed": True}}},
    "init-random-boolean-seed": {"init": {"random": {"seed": True}}},
    "misspelt-record-every": {"recrd_every": 0.5},
    "inline-process-extra-key": {
        "process": {
            "n": 2,
            "pieces": [{"t": 0.0, "weights": [[0.0, 1.0], [1.0, 0.0]]}],
            "horizon": 5.0,
            "dwell": 1.0,
        }
    },
    "piece-extra-key": {
        "process": {
            "n": 2,
            "pieces": [{"t": 0.0, "weights": [[0.0, 1.0], [1.0, 0.0]], "until": 5.0}],
            "horizon": 5.0,
        }
    },
    "file-process-extra-key": {"process": {"file": "process.json", "n": 2}},
    "random-process-extra-key": {"process": {"random": RANDOM_PROCESS, "seed": 3}},
    "averaging-gain-text": {"dynamics": {"name": "averaging", "a": "x"}},
    "table-misspelt-radius": {
        "family": {
            "kind": "custom-table",
            "params": {
                "entries": [
                    {"form": "huber", "center": [0.2], "radius": 1.0},
                    {"form": "huber", "center": [-0.2], "radus": 1.0},
                ]
            },
        }
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
    "dynamics-name-list": {"dynamics": {"name": ["averaging"]}},
    "dynamics-without-name": {"dynamics": {"a": 5.0}},
    "process-file-number": {"process": {"file": 5}},
    "table-center-matrix": {
        "family": {
            "kind": "custom-table",
            "params": {"entries": [{"center": [[0.2]]}, {"center": [-0.2]}]},
            "box": [[-2.0], [2.0]],
        }
    },
    "random-horizon-vast": {"process": {"random": {**RANDOM_PROCESS, "horizon": 1e300}}},
    # 100,000 pieces of 2 agents: within the float cap, past the piece cap
    "random-too-many-pieces": {
        "process": {"random": {**RANDOM_PROCESS, "dwell": 0.01, "horizon": 1000.0}}
    },
    "h-infinite": {"h": float("inf")},
    "t-end-past-floats": {"t_end": 10**400},
    "gain-nan": {"dynamics": {"name": "averaging", "a": float("nan")}},
    "mirror-curvature-nan": {
        "family": {
            "kind": "mirror-pair",
            "params": {"curvature": float("nan")},
            "box": [[-2.0], [2.0]],
        }
    },
    "init-x-nan": {"init": {"x": [[float("nan")], [0.0]]}},
    "init-x-null": {"init": {"x": [[None], [0.0]]}},
    "box-lo-nan": {
        "family": {"kind": "mirror-pair", "params": {}, "box": [[float("nan")], [2.0]]}
    },
    "declared-nan": {
        "checks": ["observer-bound"],
        "check_params": {"observer-bound": {"declared": float("nan")}},
    },
    "consensus-tol-nan": {
        "checks": ["consensus"],
        "check_params": {"consensus": {"tol": float("nan")}},
    },
    "beta-nan": {
        "checks": ["min-cut-window"],
        "check_params": {"min-cut-window": {"T": 0.5, "beta": float("nan")}},
    },
    "gap-settled-tol-nan": {"expectations": [{"kind": "gap-settled", "tol": float("nan")}]},
    "options-of-an-unlisted-check": {
        "checks": ["consensus"],
        "check_params": {"min-cut-window": {"T": 0.5}},
    },
    "v-dominated-by-h-on-coarse-records": {"checks": ["v-dominated-by-h"]},
    "check-listed-twice": {"checks": ["observer-bound", "consensus", "observer-bound"]},
    "expectation-listed-twice": {
        "expectations": [{"kind": "y-abs-max", "max": 1e-9}, {"kind": "y-abs-max", "max": 1.0}]
    },
    "init-outside-box": {"init": {"x": [[0.0], [3.0]]}},
    "ratio-init-outside-box": {
        "dynamics": {"name": "push-sum"},
        "init": {"x": [[0.0], [2.5]], "w": [1.0, 1.0]},
    },
    "name-number": {"name": 5},
    "jsonl-number": {"jsonl": 5},
    "schedule-boolean-a0": {"schedule": {"kind": "constant", "a0": True}},
    "boolean-t-end": {"t_end": True},
    "random-boolean-dwell": {"process": {"random": {**RANDOM_PROCESS, "dwell": True}}},
    "boolean-weight": {
        "process": {
            "n": 2,
            "pieces": [{"t": 0.0, "weights": [[0.0, True], [1.0, 0.0]]}],
            "horizon": 5.0,
        }
    },
    "consensus-tol-boolean": {
        "checks": ["consensus"],
        "check_params": {"consensus": {"tol": False}},
    },
    "init-random-overflowing-scale": {"init": {"random": {"seed": 1, "scale": 1e308}}},
    "h-numeric-string": {"h": "0.01"},
    "t-end-numeric-string": {"t_end": "5.0"},
    "record-every-numeric-string": {"record_every": "0.05"},
    "consensus-tol-numeric-string": {
        "checks": ["consensus"],
        "check_params": {"consensus": {"tol": "0.5"}},
    },
    "declared-numeric-string": {
        "checks": ["observer-bound"],
        "check_params": {"observer-bound": {"declared": "10"}},
    },
    "y-limit-tol-numeric-string": {
        "expectations": [{"kind": "y-limit", "value": [[0.0], [0.0]], "tol": "1e-4"}]
    },
    "y-limit-value-numeric-strings": {
        "expectations": [{"kind": "y-limit", "value": [[0.2], ["-0.2"]], "tol": 0.1}]
    },
    "nonconvergence-min-distance-numeric-string": {
        "expectations": [{"kind": "nonconvergence", "min_distance": "0.1"}]
    },
    # numeric strings in the fields that library constructors read
    "gain-numeric-string": {"dynamics": {"name": "averaging", "a": "5.0"}},
    "mirror-curvature-numeric-string": {
        "family": {
            "kind": "mirror-pair",
            "params": {"curvature": "1.0"},
            "box": [[-2.0], [2.0]],
        }
    },
    "box-lo-numeric-string": {
        "family": {"kind": "mirror-pair", "params": {}, "box": [["-2.0"], [2.0]]}
    },
    "horizon-numeric-string": {
        "process": {
            "n": 2,
            "pieces": [{"t": 0.0, "weights": [[0.0, 1.0], [1.0, 0.0]]}],
            "horizon": "5.0",
        }
    },
    "piece-time-numeric-string": {
        "process": {
            "n": 2,
            "pieces": [{"t": "0.0", "weights": [[0.0, 1.0], [1.0, 0.0]]}],
            "horizon": 5.0,
        }
    },
    "weight-numeric-string": {
        "process": {
            "n": 2,
            "pieces": [{"t": 0.0, "weights": [[0.0, "1.0"], [1.0, 0.0]]}],
            "horizon": 5.0,
        }
    },
    "init-x-numeric-string": {"init": {"x": [["0.0"], [0.0]]}},
    # containers and nulls of another JSON type than the schema's
    "checks-object": {"checks": {}},
    "expectations-object": {"expectations": {}},
    "check-params-array": {"checks": ["consensus"], "check_params": []},
    "consensus-options-array": {"checks": ["consensus"], "check_params": {"consensus": []}},
    "expectation-pairs": {"expectations": [[["kind", "y-abs-max"], ["max", 10.0]]]},
    "schedule-pairs": {"schedule": [["kind", "constant"], ["a0", 0.5]]},
    "box-null": {"family": {"kind": "mirror-pair", "params": {}, "box": None}},
    "y-limit-value-number": {"expectations": [{"kind": "y-limit", "value": 0.0, "tol": 0.1}]},
    "y-limit-value-null": {"expectations": [{"kind": "y-limit", "value": None, "tol": 0.1}]},
    "push-sum-init-w-not-one": {
        "dynamics": {"name": "push-sum"},
        "init": {"x": [[0.0], [0.0]], "w": [2.0, 2.0]},
    },
    "schedule-beside-no-family": {"family": None, "schedule": {"kind": "bogus"}},
    # t_end / record_every = 3 gives 4 records; a central-difference check needs 5
    "input-tracking-4-records": {
        "checks": ["input-tracking"], "t_end": 0.03, "record_every": 0.01
    },
    "vdot-bound-4-records": {"checks": ["vdot-bound"], "t_end": 0.03, "record_every": 0.01},
    # 1e7 + 1 records of 8 floats, in 1e7 steps, under the step cap
    "recording-past-the-cap": {"t_end": 1.0, "h": 1e-7, "record_every": 1e-7},
    # 11 records, but 1e12 steps
    "steps-past-the-cap": {"t_end": 1.0, "h": 1e-12, "record_every": 0.1},
    # 1e-10 steps of h, which the grid rule rounds to a run of none
    "zero-steps": {"t_end": 1e-12},
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
    "gap-settled-unknown-field": "unknown gap-settled option 'tolerance'",
    "weight-conservation-without-ratio": (
        "the weight-conservation check needs dynamics with a ratio"
    ),
    "expectations-check-without-expectations": "expectations check has no expectations",
    "dynamics-misspelt-gain": (
        "dynamics invalid: make_system() got an unexpected keyword argument 'gain'"
    ),
    "power-law-misspelt-p": "schedule invalid: power_law() got an unexpected keyword argument 'P'",
    "mirror-misspelt-offset": (
        "family invalid: mirror_pair() got an unexpected keyword argument 'ofset'"
    ),
    "random-misspelt-seed": (
        "process invalid: random_process() got an unexpected keyword argument 'sed'"
    ),
    "random-fractional-seed": "process invalid: seed must be an integer, got 1.5",
    "random-seed-list": "process invalid: seed must be an integer, got [1, 2]",
    "random-zero-h": "h must be positive",
    "negative-weight": "weights must be nonnegative",
    "family-misspelt-params": "family invalid: unknown family key 'parms'",
    "init-random-misspelt-seed": (
        "initial condition invalid: random_init() got an unexpected keyword argument 'sed'"
    ),
    "init-random-fractional-seed": "initial condition invalid: seed must be an integer, got 1.5",
    "init-random-zero-scale": "initial condition invalid: scale must be positive, got 0",
    "fractional-seed": "config invalid: seed must be an integer, got 1.5",
    "boolean-seed": "config invalid: seed must be an integer, got True",
    "fractional-d": "config invalid: d must be an integer, got 1.5",
    "boolean-d": "config invalid: d must be an integer, got True",
    "zero-d": "d must be at least 1, got 0",
    "d-beside-a-mirror-pair": "d is 3, but the family's agents have dimension 1",
    "random-boolean-seed": "process invalid: seed must be an integer, got True",
    "init-random-boolean-seed": "initial condition invalid: seed must be an integer, got True",
    "misspelt-record-every": "config invalid: unknown config key 'recrd_every'",
    "inline-process-extra-key": "unknown process key 'dwell'",
    "piece-extra-key": "unknown piece key 'until'",
    "file-process-extra-key": "process invalid: unknown process key 'n'",
    "random-process-extra-key": "process invalid: unknown process key 'seed'",
    "averaging-gain-text": "dynamics invalid",
    "table-misspelt-radius": "family invalid: unknown custom-table entry key 'radus'",
    "huber-without-radius": "missing 1 required positional argument: 'radius'",
    "logistic-with-centers": "logistic_scalar() got an unexpected keyword argument 'centers'",
    "y-abs-max-with-tol": "unknown y-abs-max option 'tol'",
    "y-limit-without-tol": "the y-limit expectation is missing field 'tol'",
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
    "dynamics-name-list": "dynamics invalid",
    "dynamics-without-name": "dynamics is missing field 'name'",
    "process-file-number": "process invalid",
    "table-center-matrix": "shape (1, 1)",
    "random-horizon-vast": "cap",
    "random-too-many-pieces": "piece cap",
    "h-infinite": "h is Infinity",
    "t-end-past-floats": "not a finite number",
    "gain-nan": "dynamics.a is NaN",
    "mirror-curvature-nan": "family.params.curvature is NaN",
    "init-x-nan": "init.x[0][0] is NaN",
    "init-x-null": "init.x[0][0] is null",
    "box-lo-nan": "family.box[0][0] is NaN",
    "declared-nan": "check_params.observer-bound.declared is NaN",
    "consensus-tol-nan": "check_params.consensus.tol is NaN",
    "beta-nan": "check_params.min-cut-window.beta is NaN",
    "gap-settled-tol-nan": "expectations[0].tol is NaN",
    "options-of-an-unlisted-check": "'min-cut-window', which checks does not list",
    "v-dominated-by-h-on-coarse-records": "v-dominated-by-h check needs record_every == h",
    "check-listed-twice": "check 'observer-bound' is listed twice",
    "expectation-listed-twice": "expectation 'y-abs-max' is listed twice",
    "init-outside-box": "initial outputs [[0.0], [3.0]] leave the validity box",
    "ratio-init-outside-box": "initial outputs [[0.0], [2.5]]",
    "name-number": "name must be a string, got 5",
    "jsonl-number": "jsonl must be true or false, got 5",
    "schedule-boolean-a0": "schedule.a0 is true, not a finite number",
    "boolean-t-end": "t_end is true, not a finite number",
    "random-boolean-dwell": "process.random.dwell is true, not a finite number",
    "boolean-weight": "process.pieces[0].weights[0][1] is true, not a finite number",
    "consensus-tol-boolean": "check_params.consensus.tol is false, not a finite number",
    "init-random-overflowing-scale": (
        "initial condition invalid: scale must leave 2 * scale finite, got 1e+308"
    ),
    "h-numeric-string": 'h is "0.01", not a finite number',
    "t-end-numeric-string": 't_end is "5.0", not a finite number',
    "record-every-numeric-string": 'record_every is "0.05", not a finite number',
    "consensus-tol-numeric-string": 'consensus tol is "0.5", not a finite number',
    "declared-numeric-string": 'observer-bound declared is "10", not a finite number',
    "y-limit-tol-numeric-string": 'y-limit tol is "1e-4", not a finite number',
    "y-limit-value-numeric-strings": 'y-limit value is [[0.2], ["-0.2"]], not a finite number',
    "nonconvergence-min-distance-numeric-string": (
        'nonconvergence min_distance is "0.1", not a finite number'
    ),
    "gain-numeric-string": 'dynamics.a is "5.0", not a finite number',
    "mirror-curvature-numeric-string": 'family.params.curvature is "1.0", not a finite number',
    "box-lo-numeric-string": 'family.box[0][0] is "-2.0", not a finite number',
    "horizon-numeric-string": 'process.horizon is "5.0", not a finite number',
    "piece-time-numeric-string": 'process.pieces[0].t is "0.0", not a finite number',
    "weight-numeric-string": 'process.pieces[0].weights[0][1] is "1.0", not a finite number',
    "init-x-numeric-string": 'init.x[0][0] is "0.0", not a finite number',
    "checks-object": "checks must be an array, got {}",
    "expectations-object": "expectations must be an array, got {}",
    "check-params-array": "check_params must be an object, got []",
    "consensus-options-array": "check_params.consensus must be an object, got []",
    "expectation-pairs": "expectations[0] must be an object",
    "schedule-pairs": 'schedule must be an object, got [["kind", "constant"], ["a0", 0.5]]',
    "box-null": "family box must be an array, got None",
    "y-limit-value-number": "y-limit value must be an array, got 0.0",
    "y-limit-value-null": "y-limit value must be an array, got null",
    "push-sum-init-w-not-one": "push-sum requires w(0) = 1 for every agent",
    "schedule-beside-no-family": "unknown schedule kind 'bogus'",
    "input-tracking-4-records": (
        "the input-tracking check takes central differences of the records, 4 here; it needs 5"
    ),
    "vdot-bound-4-records": "the vdot-bound check takes central differences of the records",
    "recording-past-the-cap": "1e+07 records of 8 floats, 8e+07 in all, pass the 1.6e+07-float cap",
    "steps-past-the-cap": "step grid invalid: 1e+12 steps pass the 1e+08-step cap on a run",
    "zero-steps": "step grid invalid: t_end 1e-12 is less than one step of h 0.01",
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


# a value for each required expectation field
REQUIRED_VALUES = {"value": [[0.0], [0.0]], "tol": 1.0, "max": 10.0, "min_distance": 0.0}

ROWS = [("check", name, row) for name, row in harness.CHECKS.items()] + [
    ("expectation", name, row) for name, row in harness.EXPECTATIONS.items()
]
ROW_IDS = [f"{label}:{name}" for label, name, _ in ROWS]


def _with_row(label, name, row, **overrides):
    """base_config on push-sum, whose ratio block weight-conservation needs,
    with one check or one expectation, required fields given; the
    expectations check gets a y-abs-max expectation to check."""
    overrides = {"dynamics": {"name": "push-sum"}, **overrides}
    if label == "check":
        if name == harness.EXPECTATIONS_CHECK:
            overrides["expectations"] = [{"kind": "y-abs-max", "max": REQUIRED_VALUES["max"]}]
        return base_config(checks=[name], **overrides)
    given = {
        key: REQUIRED_VALUES[key]
        for key, default in row.fields.items()
        if default is harness.REQUIRED
    }
    return base_config(expectations=[{"kind": name, **given}], **overrides)


# the rows with each need, as the README and the schema state them
ROWS_WITH_NEED = {
    "family": {
        "v-dominated-by-h", "vdot-bound", "gap-integral",
        "y-final-near-oracle", "nonconvergence", "gap-settled",
    },
    "every_step": {"input-tracking", "v-dominated-by-h"},
    "tail": {"y-limit", "nonconvergence"},
    "ratio": {"weight-conservation"},
    "bounded": {"v-dominated-by-h", "vdot-bound"},
}

# each need: overrides that break it alone, and what the error then says
UNMET_NEEDS = {
    "family": ({"family": None, "record_every": 0.01}, "needs an objective family"),
    "every_step": ({"record_every": 0.05}, "needs record_every == h"),
    "tail": (
        {"h": 0.1, "t_end": 2.0, "record_every": 0.1},
        "averages the last tenth of the records, 3 here",
    ),
    "ratio": (
        {"dynamics": {"name": "averaging"}, "record_every": 0.01},
        "needs dynamics with a ratio block",
    ),
    # records at every step, where a run also writes the h-function series
    # that its gradient bound scales
    "bounded": (
        {"family": UNBOXED_QUADRATICS, "record_every": 0.01},
        "needs bounded gradients",
    ),
}


@pytest.mark.parametrize("need", sorted(UNMET_NEEDS))
@pytest.mark.parametrize("label, name, row", ROWS, ids=ROW_IDS)
def test_each_row_needs_what_its_table_row_declares(tmp_path, capsys, label, name, row, need):
    # a row that declares the need exits 2 naming itself; one that does not
    # runs without it to a verdict
    assert getattr(row, need) == (name in ROWS_WITH_NEED[need])
    overrides, says = UNMET_NEEDS[need]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_with_row(label, name, row, **overrides)))
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    printed = json.loads(capsys.readouterr().out)
    if not getattr(row, need):
        assert code in (0, 1), printed
        return
    assert code == 2
    assert printed["kind"] == "config"
    assert f"the {name} {label} {says}" in printed["error"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("label, name, row", ROWS, ids=ROW_IDS)
def test_each_row_runs_when_its_needs_are_met(tmp_path, label, name, row):
    raw = _with_row(label, name, row, record_every=0.01)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) in (0, 1)
    checks = json.loads((out / "report.json").read_text())["checks"]
    if label == "check":
        assert list(checks) == [name]
        details = checks[name]["details"]
    else:
        assert list(checks) == [harness.EXPECTATIONS_CHECK]
        details = checks[harness.EXPECTATIONS_CHECK]["details"][name]
        assert isinstance(details["passed"], bool)
    assert details


@pytest.mark.parametrize(
    "overrides, check",
    [
        ({"record_every": 0.1, "checks": ["input-tracking"]}, "input-tracking"),
        (
            {
                "t_end": 2.0,
                "record_every": 0.1,
                "expectations": [{"kind": "y-limit", "value": [[0.0], [0.0]], "tol": 1.0}],
            },
            "expectations",
        ),
    ],
    ids=["every-step-check", "short-tail"],
)
def test_full_resolution_needs_are_judged_on_the_recorded_grid(
    tmp_path, capsys, overrides, check
):
    # coarse records fail the need; run --full-resolution records every step
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(**overrides)))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert json.loads(capsys.readouterr().out)["kind"] == "config"
    assert main(["run", "--config", str(cfg_path), "--full-resolution"]) in (0, 1)
    assert set(json.loads(capsys.readouterr().out)["checks"]) == {check}


def test_a_run_past_the_step_cap_exits_2_within_a_second(tmp_path, capsys):
    # 11 records, but 1e12 steps: a run that would not end
    cfg_path = tmp_path / "long.json"
    cfg_path.write_text(json.dumps(base_config(t_end=1.0, h=1e-12, record_every=0.1)))
    start = time.perf_counter()
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    error = json.loads(capsys.readouterr().out)
    assert error["kind"] == "config" and "1e+08-step cap" in error["error"]


def test_full_resolution_counts_toward_the_recording_cap():
    # 101 records at record_every 0.05, but 5e7 + 1 of every step
    raw = base_config(h=1e-7)
    harness.parse_config(copy.deepcopy(raw))
    with pytest.raises(ConfigError, match=r"5e\+07 records of 8 floats"):
        harness.parse_config(raw, full_resolution=True)


# every value the leaf-mutation contract tries; DELETE removes the leaf
DELETE = object()
PROBE_VALUES = ("x", 5, None, [], {}, -1, 0, 1e300, float("nan"), [1], {"a": 1}, True, DELETE)


def full_config():
    """base_config with every field present: options for each check that
    takes any, and a y-limit and a gap-settled expectation."""
    return base_config(
        dynamics={"name": "averaging", "a": 5.0},
        family={
            "kind": "mirror-pair",
            "params": {"offset": 1.0, "curvature": 1.0},
            "box": [[-2.0], [2.0]],
        },
        d=1,
        checks=["consensus", "observer-bound", "min-cut-window"],
        check_params={
            "consensus": {"tol": 1e-2},
            "observer-bound": {"flow_h": 0.01, "declared": 10.0},
            "min-cut-window": {"T": 0.5, "beta": 0.1},
        },
        expectations=[
            {"kind": "y-limit", "value": [[0.2], [-0.2]], "tol": 1.0},
            {"kind": "gap-settled", "tol": 1e-3},
        ],
    )


def _leaf_paths(node, path=()):
    if isinstance(node, (dict, list)) and node:
        keys = node if isinstance(node, dict) else range(len(node))
        for key in keys:
            yield from _leaf_paths(node[key], path + (key,))
    else:
        yield path


def _mutated(raw, path, value):
    out = copy.deepcopy(raw)
    node = out
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(value)
    return out


def _holds_nan_or_null(node) -> bool:
    """Whether a NaN, or a null inside an array, hides anywhere in node."""
    if isinstance(node, dict):
        return any(_holds_nan_or_null(value) for value in node.values())
    if isinstance(node, (list, tuple)):
        return any(value is None or _holds_nan_or_null(value) for value in node)
    if isinstance(node, np.ndarray):
        return bool(np.isnan(node).any())
    return isinstance(node, float) and math.isnan(node)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_every_leaf_mutation_parses_or_raises_config_error():
    base = full_config()
    harness.parse_config(base)
    outcomes = {"parsed": 0, "rejected": 0}
    for path in _leaf_paths(base):
        for value in PROBE_VALUES:
            case = f"{'.'.join(map(str, path))} = {'<deleted>' if value is DELETE else value!r}"
            try:
                cfg = harness.parse_config(_mutated(base, path, value))
            except ConfigError:
                outcomes["rejected"] += 1
                continue
            except Exception as exc:  # noqa: BLE001 - the contract is ConfigError only
                pytest.fail(f"{case} raised {type(exc).__name__}: {exc}")
            outcomes["parsed"] += 1
            parsed = (
                cfg.raw, cfg.checks, cfg.expectations, cfg.init_state,
                [cfg.t_end, cfg.h, cfg.record_every],
            )
            assert not _holds_nan_or_null(parsed), case
    assert outcomes["parsed"] > 0 and outcomes["rejected"] > 0


def _run_cli(tmp_path, raw, out):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    return main(["run", "--config", str(cfg_path), "--out", str(out)])


def test_out_below_a_regular_file_exits_2_with_kind_runtime(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    code = _run_cli(tmp_path, base_config(), tmp_path / "file" / "out")
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["kind"] == "runtime"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_config_file_that_is_not_an_object_exits_2(tmp_path, capsys, verb):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps([base_config()]))
    args = [verb, "--config", str(cfg_path)]
    if verb == "sweep":
        args += ["--param", "schedule.a0", "--values", "0.5"]
    assert main(args) == 2
    error = json.loads(capsys.readouterr().out)
    assert error["kind"] == "config"
    assert "JSON object" in error["error"]


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_neither_config_nor_scenario_exits_2(capsys, verb):
    args = [verb] if verb == "run" else [verb, "--param", "schedule.a0", "--values", "0.5"]
    assert main(args) == 2
    error = json.loads(capsys.readouterr().out)
    assert error == {"error": "pass --config PATH or --scenario NAME", "kind": "config"}


def test_run_scenario_writes_under_the_out_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(harness.OUT_ENV_VAR, str(tmp_path))
    assert main(["run", "--scenario", "counterexample"]) == 0
    printed = json.loads(capsys.readouterr().out)
    written = json.loads((tmp_path / "counterexample" / "summary.json").read_text())
    assert printed["name"] == written["name"] == "counterexample"
    assert printed["digest"] == written["digest"]
    assert printed["files"][0] == str(tmp_path / "counterexample" / "trajectory.csv")


def test_jsonl_run_writes_one_record_per_trajectory_row(tmp_path, capsys):
    out = tmp_path / "out"
    raw = base_config(dynamics={"name": "push-sum"}, jsonl=True)
    assert _run_cli(tmp_path, raw, out) == 0
    capsys.readouterr()
    lines = (out / "trajectory.csv").read_text().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    records = [json.loads(line) for line in (out / "trajectory.jsonl").read_text().splitlines()]
    assert len(records) == len(rows) > 1
    for row, rec in zip(rows, records):
        blocks = [rec["t"], rec["x"], *rec["aux"].values(), rec["y"], rec["u"], rec["xbar"]]
        assert row == np.concatenate([np.ravel(block) for block in blocks]).tolist()
    assert list(records[0]["aux"]) == ["w"]
    summary = json.loads((out / "summary.json").read_text())
    assert str(out / "trajectory.jsonl") in summary["files"]


def test_sweep_value_that_is_not_a_number_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    code = main(
        ["sweep", "--config", str(cfg_path), "--param", "schedule.a0", "--values", "0.5,x"]
    )
    assert code == 2
    error = json.loads(capsys.readouterr().out)
    assert error["kind"] == "config"
    assert "--values" in error["error"]


@pytest.mark.parametrize(
    "overrides, param, named",
    [
        ({"name": 5}, "schedule.a0", "name must be a string, got 5"),
        ({"jsonl": True}, "jsonl", "sweep path 'jsonl' must address a numeric field"),
        ({}, "process.pieces.0.t", "sweep path 'process.pieces.0.t' does not address the config"),
    ],
)
def test_sweep_that_run_would_reject_exits_2(tmp_path, capsys, overrides, param, named):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(**overrides)))
    code = main(
        ["sweep", "--config", str(cfg_path), "--param", param, "--values", "0.5",
         "--out", str(tmp_path / "out")]
    )
    captured = capsys.readouterr()
    assert code == 2
    error = json.loads(captured.out)
    assert error["kind"] == "config"
    assert named in error["error"]
    assert not (tmp_path / "out").exists()


def test_sweep_failure_while_running_exits_2_with_kind_runtime(tmp_path, capsys):
    # the mirror pair leaves a box this narrow at t = 0.03; run and sweep say so alike
    narrow = {"kind": "mirror-pair", "params": {}, "box": [[-0.01], [0.01]]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(family=narrow, t_end=1.0, record_every=0.01)))
    for verb in (["run"], ["sweep", "--param", "schedule.a0", "--values", "0.5"]):
        assert main([*verb, "--config", str(cfg_path)]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": "output left the declared gradient-validity box (at t=0.03)",
            "kind": "runtime",
        }


def test_sweep_parses_every_value_before_running_any(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["sweep", "--scenario", "counterexample", "--param", "schedule.a0",
         "--values", "0.5,-1", "--out", str(out)]
    )
    assert code == 2
    error = json.loads(capsys.readouterr().out)
    assert error == {"error": "schedule invalid: a0 must lie in (0, 1]", "kind": "config"}
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, param",
    [
        ({"process": {"random": {**RANDOM_PROCESS, "seed": 0}}}, "process.random.seed"),
        ({}, "seed"),
    ],
)
def test_sweep_sets_an_integral_value_of_an_integer_field_as_an_int(
    tmp_path, capsys, overrides, param
):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(**overrides)))
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg_path), "--param", param, "--values", "1,2",
                 "--out", str(out)])
    assert code == 0, capsys.readouterr().out
    # directory names and the table spell the values as before
    assert sorted(path.name for path in out.iterdir()) == ["sweep.csv", "sweep_1.0", "sweep_2.0"]
    rows = (out / "sweep.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["1", "2"]


def test_logistic_agent_at_a_vast_offset_runs(tmp_path, capsys):
    # the far agent's gradient saturates at 0 instead of overflowing, so
    # the oracle finds the other agents' minimizer
    weights = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    raw = base_config(
        process={"n": 3, "pieces": [{"t": 0.0, "weights": weights}], "horizon": 5.0},
        family={
            "kind": "logistic-scalar",
            "params": {"signs": [1, -1, 1], "offsets": [0.0, 0.5, 1e300]},
        },
        init={"x": [[0.0], [0.0], [0.0]]},
        t_end=1.0,
        expectations=[{"kind": "y-abs-max", "max": 10.0}],
    )
    assert _run_cli(tmp_path, raw, tmp_path / "out") == 0
    assert json.loads(capsys.readouterr().out)["checks"] == {"expectations": True}


@pytest.mark.parametrize(
    "schedule, named",
    [
        ('{"kind": "constant"}', "'a0'"),
        ('{"kind": "power-law", "a0": "x"}', "schedule invalid"),
        ('{"kind": "custom-piecewise", "times": [0.0], "values": 5}', "schedule invalid"),
        ("{not json", "Expecting property name"),
        ('{"kind": "power-law", "a0": 1.0, "p": NaN}', "schedule.p is NaN"),
        ('{"kind": "constant", "a0": true}', "schedule.a0 is true"),
        (
            '{"kind": "custom-piecewise", "times": ["0", "10"], "values": ["1", "0.5"]}',
            'schedule.times[0] is "0", not a finite number',
        ),
    ],
)
def test_malformed_schedule_to_check_exits_2(capsys, schedule, named):
    assert main(["check-schedule", "--schedule", schedule]) == 2
    captured = capsys.readouterr()
    error = json.loads(captured.out)
    assert error["kind"] == "config"
    assert named in error["error"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("verb", ["check-flow", "run"])
@pytest.mark.parametrize(
    "field, named",
    [
        ("horizon", "process.horizon is NaN"),
        ("weights", "process.pieces[0].weights[0][1] is NaN"),
        ("n", "process.n is true"),
        ("weight-true", "process.pieces[0].weights[0][1] is true, not a finite number"),
    ],
)
def test_process_file_with_a_bad_number_exits_2(tmp_path, capsys, verb, field, named):
    """check-flow and a run config naming the file walk its numbers alike."""
    process = base_config()["process"]
    if field == "horizon":
        process["horizon"] = float("nan")
    elif field == "n":
        process["n"] = True
    else:
        process["pieces"][0]["weights"][0][1] = float("nan") if field == "weights" else True
    proc_path = tmp_path / "proc.json"
    proc_path.write_text(json.dumps(process))
    if verb == "check-flow":
        argv = ["check-flow", "--process", str(proc_path)]
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(process={"file": str(proc_path)})))
        argv = ["run", "--config", str(cfg_path)]
    code = main([*argv, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    error = json.loads(captured.out)
    assert error["kind"] == "config"
    assert named in error["error"]
    assert "Traceback" not in captured.err
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


def test_flow_horizon_shorter_than_the_step_exits_2(tmp_path, capsys):
    # a one-piece process whose horizon holds no step of h: the grid has no sample
    path = tmp_path / "proc.json"
    path.write_text(json.dumps({**base_config()["process"], "horizon": 0.0005}))
    out = tmp_path / "out"
    code = main(["check-flow", "--process", str(path), "--h", "0.001", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    error = json.loads(captured.out)
    assert error == {"error": "grid produced no samples inside the horizon", "kind": "config"}
    assert "Traceback" not in captured.err
    assert not out.exists()


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


def test_summary_gap_is_the_last_entry_of_the_gap_series(tmp_path, capsys):
    # at d = 2 the scalar objective sums in another order than the series;
    # on these points the two once differed in the last digits
    raw = base_config(
        family={
            "kind": "huberized-quadratic",
            "params": {"centers": [[0.02, 0.9], [-0.71, 0.9]], "radius": 2.0},
        },
        init={"x": [[-0.38, -0.15], [0.66, -0.18]]},
        t_end=0.5,
    )
    _, summary = _run_keys(tmp_path, raw)
    last_row = (tmp_path / "out" / "optimality_gap.csv").read_text().splitlines()[-1]
    assert summary["optimality_gap_end"] == float(last_row.split(",")[1])


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


SCHEMA_PATH = Path(__file__).parents[1] / "docs" / "config_schema.json"


@pytest.mark.parametrize("name", ["base"] + harness.scenario_names())
def test_presets_and_the_base_config_satisfy_the_schema(name):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    jsonschema.Draft7Validator.check_schema(schema)
    raw = base_config() if name == "base" else harness.scenario_raw(name)
    errors = [error.message for error in jsonschema.Draft7Validator(schema).iter_errors(raw)]
    assert errors == []


def _schema_bases():
    """The six presets, spps-stationary's 600 pieces cut to 3 so that a parse stays short."""
    bases = [harness.scenario_raw(name) for name in harness.scenario_names()]
    for raw in bases:
        if "pieces" in raw["process"]:
            del raw["process"]["pieces"][3:]
    return bases


SCHEMA_BASES = _schema_bases()
SCHEMA_PROBE_VALUES = ("x", "1.5", 5, None, [], {}, -1, 0, 1.5, 1e300, [1], {"a": 1}, True, DELETE)


def _node_paths(node, path=()):
    """The path of every node below node: containers as well as leaves."""
    if isinstance(node, (dict, list)):
        for key in node if isinstance(node, dict) else range(len(node)):
            yield path + (key,)
            yield from _node_paths(node[key], path + (key,))


@st.composite
def single_node_mutations(draw):
    raw = draw(st.sampled_from(SCHEMA_BASES))
    path = draw(st.sampled_from(list(_node_paths(raw))))
    return _mutated(raw, path, draw(st.sampled_from(SCHEMA_PROBE_VALUES)))


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=500, deadline=None)
@given(single_node_mutations())
def test_a_config_the_parser_accepts_the_schema_accepts(raw):
    """NaN and +-Infinity, which the schema's numbers take and the parser
    rejects, are the one deliberate difference; no mutation here makes one."""
    jsonschema = pytest.importorskip("jsonschema")
    try:
        harness.parse_config(raw)
    except ConfigError:
        return
    schema = json.loads(SCHEMA_PATH.read_text())
    assert [error.message for error in jsonschema.Draft7Validator(schema).iter_errors(raw)] == []


def _assert_binds(node, defaults, missing, fixed=()):
    """A closed schema object whose properties but `fixed` are the keys of
    `defaults`, in order: it requires `fixed` and each key whose default is
    `missing`, and every other key's schema default is its default."""
    assert node["additionalProperties"] is False
    specs = {key: spec for key, spec in node["properties"].items() if key not in fixed}
    assert tuple(specs) == tuple(defaults)
    required = [key for key, default in defaults.items() if default is missing]
    assert node.get("required", []) == [*fixed, *required]
    assert {key: spec.get("default", missing) for key, spec in specs.items()} == defaults


def _integer_keys(node):
    """The name of each property below node that the schema types as an integer."""
    if isinstance(node, list):
        for item in node:
            yield from _integer_keys(item)
    elif isinstance(node, dict):
        for key, spec in node.get("properties", {}).items():
            if "integer" in np.atleast_1d(spec.get("type", [])):
                yield key
        for value in node.values():
            yield from _integer_keys(value)


def test_schema_enums_match_the_code():
    schema = json.loads(SCHEMA_PATH.read_text())
    props = schema["properties"]
    assert tuple(props) == harness.CONFIG_KEYS
    inline, file_form, random_form = props["process"]["oneOf"]
    piece = inline["properties"]["pieces"]["items"]
    random_spec = random_form["properties"]["random"]
    closed = [schema, inline, piece, file_form, random_form, random_spec]
    closed += [props["dynamics"], props["init"]]
    assert all(node["additionalProperties"] is False for node in closed)
    assert tuple(inline["properties"]) == ("n", "pieces", "horizon")
    assert tuple(piece["properties"]) == ("t", "weights")
    random_args = inspect.signature(random_process).parameters
    assert set(random_spec["properties"]) == set(random_args) - {"h"}
    dynamics = props["dynamics"]
    assert tuple(dynamics["properties"]["name"]["enum"]) == SYSTEM_NAMES
    # make_system's keyword arguments but d, which is a top-level key
    system_args = inspect.signature(make_system).parameters
    keywords = {key for key, arg in system_args.items() if arg.default is not arg.empty}
    assert set(dynamics["properties"]) == {"name"} | keywords - {"d"}
    assert dynamics["properties"]["a"]["default"] == system_args["a"].default
    empty = inspect.Parameter.empty
    # one branch per kind, bound to the signature of its constructor
    for part, table in (("schedule", SCHEDULES), ("family", FAMILIES)):
        null, *branches = props[part]["oneOf"]
        assert null == {"type": "null"}
        assert [branch["properties"]["kind"]["const"] for branch in branches] == list(table)
    for branch, constructor in zip(props["schedule"]["oneOf"][1:], SCHEDULES.values()):
        args = inspect.signature(constructor).parameters
        _assert_binds(branch, {key: arg.default for key, arg in args.items()}, empty, ("kind",))
    # a family's params are its constructor's arguments but box, which sits beside kind
    for branch, constructor in zip(props["family"]["oneOf"][1:], FAMILIES.values()):
        args = inspect.signature(constructor).parameters
        defaults = {key: arg.default for key, arg in args.items() if key != "box"}
        assert tuple(branch["properties"]) == ("kind", "params", "box")
        assert branch["additionalProperties"] is False
        required = ["kind", "params"] if empty in defaults.values() else ["kind"]
        assert branch["required"] == required
        _assert_binds(branch["properties"]["params"], defaults, empty)
    entry = props["family"]["oneOf"][-1]["properties"]["params"]["properties"]["entries"]
    assert tuple(entry["items"]["properties"]) == TABLE_ENTRY_KEYS
    assert set(props["init"]["properties"]) == {"x", "random", *harness.INIT_AUX_KEYS}
    assert tuple(random_spec["properties"]["model"]["enum"]) == RANDOM_MODELS
    assert set(_integer_keys(schema)) == set(harness.INTEGER_FIELDS)
    assert tuple(props["checks"]["items"]["enum"]) == tuple(harness.CHECKS)
    assert props["checks"]["uniqueItems"] is True
    # one closed branch per expectation row: a REQUIRED field is a required key
    items = props["expectations"]["items"]["oneOf"]
    kinds = [item["properties"]["kind"]["const"] for item in items]
    assert kinds == list(harness.EXPECTATIONS)
    for kind, item in zip(kinds, items):
        _assert_binds(item, harness.EXPECTATIONS[kind].fields, harness.REQUIRED, fixed=("kind",))
    params = props["check_params"]
    assert params["additionalProperties"] is False
    optioned = {name: row.fields for name, row in harness.CHECKS.items() if row.fields}
    assert tuple(params["properties"]) == tuple(optioned)
    for name, defaults in optioned.items():
        options = params["properties"][name]
        assert options["additionalProperties"] is False
        assert tuple(options["properties"]) == tuple(defaults)
        # a schema default is the row's default; no default is None
        schema_defaults = {key: spec.get("default") for key, spec in options["properties"].items()}
        assert schema_defaults == defaults, name
    # configs that parse_config rejects, and the closed objects now too
    jsonschema = pytest.importorskip("jsonschema")
    probes = ["dynamics-misspelt-gain", "init-y", "constant-with-p", "power-law-with-times"]
    probes += ["mirror-misspelt-offset", "huber-without-radius", "logistic-with-centers"]
    probes += ["y-abs-max-with-tol", "y-limit-without-tol"]
    for case in probes:
        assert not jsonschema.Draft7Validator(schema).is_valid(base_config(**MALFORMED[case])), case


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert "FAIL" not in capsys.readouterr().out
