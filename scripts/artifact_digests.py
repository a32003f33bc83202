#!/usr/bin/env python3
"""Record or compare the sha256 of every artifact the pinned runs write.

    python3 scripts/artifact_digests.py --write FILE
    python3 scripts/artifact_digests.py --check FILE

The runs are the six scenario presets, three runs that take the generic
RK4 loop or write JSONL (RUNS), a three-value `schedule.a0` sweep of
`counterexample`, and `check-flow` on three seeded random processes, each
written under one scratch directory by the harness calls the CLI makes.
Every file is hashed by its path relative to that directory;
`summary.json` is hashed without `wall_time`, the one value that differs
between identical runs. `--write` stores the table as JSON; `--check`
recomputes it, prints each artifact that is missing, new or changed, and
exits 1 if there is one. The package is imported from the `src` beside
this script, so a table written in one checkout checks another.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from flowtracker_lab import harness  # noqa: E402
from flowtracker_lab.graphnet import random_process  # noqa: E402

COMPLETE_3 = {
    "n": 3,
    "pieces": [{"t": 0.0, "weights": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]}],
    "horizon": 2.0,
}
SMALL_RUN = {
    "process": COMPLETE_3,
    "dynamics": {"name": "averaging"},
    "schedule": {"kind": "power-law", "a0": 0.5, "p": 1.0},
    "t_end": 2.0,
    "h": 0.01,
    "record_every": 0.1,
    "checks": ["consensus"],
}
# (directory, raw config) of each run beside the presets
RUNS = (
    # a logistic law is not affine, so the run takes the generic loop throughout
    ("logistic-generic", {
        **SMALL_RUN,
        "family": {
            "kind": "logistic-scalar",
            "params": {"signs": [1, -1, 1], "offsets": [0.0, 0.5, 1.0]},
        },
        "init": {"x": [[0.0], [0.0], [0.0]]},
    }),
    # every agent starts past its radius, so the affine path hands off at step 0
    ("huber-handoff", {
        **SMALL_RUN,
        "family": {
            "kind": "huberized-quadratic",
            "params": {"centers": [[0.5], [-0.5], [0.2]], "radius": 0.25},
        },
        "init": {"x": [[2.0], [-2.0], [1.5]]},
    }),
    ("counterexample-jsonl", {**harness.PRESETS["counterexample"](), "jsonl": True}),
)
SWEEP = ("counterexample", "schedule.a0", (0.25, 0.5, 1.0))
# (n, model, dwell, horizon, seed, B) of each check-flow process
FLOWS = (
    (4, "directed-ring-rotate", 0.5, 20.0, 1, None),
    (5, "switching-complete", 0.5, 10.0, 2, None),
    (6, "B-window-strongly-connected", 0.5, 12.0, 3, 2),
)


def write_artifacts() -> None:
    """Every pinned run, each into its own directory under the current one."""
    for name in harness.scenario_names():
        harness.run(harness.scenario(name), out_dir=name)
    for name, raw in RUNS:
        harness.run(harness.parse_config({"name": name, **raw}), out_dir=name)
    preset, param, values = SWEEP
    harness.sweep(harness.scenario_raw(preset), param, values, out_dir=f"{preset}-sweep")
    for n, model, dwell, horizon, seed, b in FLOWS:
        process = random_process(n, model, dwell=dwell, horizon=horizon, seed=seed, B=b)
        harness.check_flow(process, out_dir=f"flow-{model}-{seed}")


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "summary.json":
        summary = json.loads(data)
        del summary["wall_time"]
        data = json.dumps(summary, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def digests() -> dict[str, str]:
    """sha256 of every artifact, by its path relative to the run directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="artifact-digests-") as work:
        # relative output paths keep the scratch directory out of summary.json
        os.chdir(work)
        try:
            write_artifacts()
        finally:
            os.chdir(cwd)
        root = Path(work)
        return {
            path.relative_to(root).as_posix(): digest(path)
            for path in sorted(root.rglob("*"))
            if path.is_file()
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="FILE", help="store the digests as JSON")
    mode.add_argument("--check", metavar="FILE", help="compare the digests with a stored table")
    args = parser.parse_args(argv)
    table = digests()
    if args.write:
        Path(args.write).write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(table)} artifact digests to {args.write}")
        return 0
    want = json.loads(Path(args.check).read_text())
    paths = sorted(want.keys() | table.keys())
    same = 0
    for path in paths:
        if path not in table:
            print(f"missing: {path}")
        elif path not in want:
            print(f"new: {path}")
        elif table[path] != want[path]:
            print(f"changed: {path}")
        else:
            same += 1
    print(f"{same} of {len(paths)} artifacts identical")
    return 0 if same == len(paths) else 1


if __name__ == "__main__":
    sys.exit(main())
