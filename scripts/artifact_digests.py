#!/usr/bin/env python3
"""Record or compare the sha256 of every artifact the pinned runs write.

    python3 scripts/artifact_digests.py --write FILE
    python3 scripts/artifact_digests.py --check FILE
    python3 scripts/artifact_digests.py --compare OTHER_CHECKOUT

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
`--compare` writes the artifacts with this checkout and, in a child
process, with the package in OTHER_CHECKOUT/src; for each artifact that
differs it prints the largest absolute difference over the numbers of
its CSV, JSON or JSONL text (`wall_time` left out), and it exits 1 when
one passes TOLERANCE, or an artifact is missing, new or differs in more
than its numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
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
# the largest absolute difference --compare lets an artifact's numbers show
TOLERANCE = 1e-12
# writes the artifacts with the package in argv[1] into argv[2]: that
# package is imported first, so the script's own import finds it
OTHER_WRITER = """
import os, runpy, sys
sys.path.insert(0, sys.argv[1])
import flowtracker_lab
os.chdir(sys.argv[2])
runpy.run_path(sys.argv[3])["write_artifacts"]()
"""


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


def numbers(path: Path):
    """The values of an artifact's text with `wall_time` left out, numbers
    as floats: the rows of a CSV after its header, or the JSON of a file
    or of each line of a JSONL file."""
    text = path.read_text()
    if path.suffix == ".csv":
        lines = text.splitlines()
        return [lines[0]] + [[float(v) for v in line.split(",")] for line in lines[1:]]
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in text.splitlines()]
    data = json.loads(text)
    if path.name == "summary.json":
        del data["wall_time"]
    return data


def largest_difference(a, b) -> float:
    """The largest absolute difference between the numbers of two values
    of one structure; inf where they differ in more than numbers. NaNs
    match, and infinities match their equals."""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0
        return abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return math.inf
        return max((largest_difference(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf
        return max((largest_difference(x, y) for x, y in zip(a, b)), default=0.0)
    return 0.0 if a == b else math.inf


def compare(other: Path) -> int:
    """Write the artifacts with this checkout and with `other`, print how
    each differing one differs, and return the exit status."""
    with tempfile.TemporaryDirectory(prefix="artifact-compare-") as work:
        mine, theirs = Path(work, "this"), Path(work, "other")
        mine.mkdir()
        theirs.mkdir()
        cwd = os.getcwd()
        os.chdir(mine)
        try:
            write_artifacts()
        finally:
            os.chdir(cwd)
        subprocess.run(
            [sys.executable, "-c", OTHER_WRITER, str(other.resolve() / "src"), str(theirs),
             str(Path(__file__).resolve())],
            check=True,
        )
        files = [{p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}
                 for root in (mine, theirs)]
        same, worst, failed = 0, 0.0, False
        for rel in sorted(files[0] | files[1]):
            if rel not in files[0] or rel not in files[1]:
                print(f"{'missing' if rel not in files[0] else 'new'}: {rel}")
                failed = True
            elif digest(mine / rel) == digest(theirs / rel):
                same += 1
            else:
                diff = largest_difference(numbers(mine / rel), numbers(theirs / rel))
                print(f"changed: {rel}  largest absolute difference {diff:.3g}")
                worst = max(worst, diff)
        count = len(files[0] | files[1])
    print(f"{same} of {count} artifacts identical; largest absolute difference {worst:.3g}")
    return 1 if failed or worst > TOLERANCE else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="FILE", help="store the digests as JSON")
    mode.add_argument("--check", metavar="FILE", help="compare the digests with a stored table")
    mode.add_argument(
        "--compare", metavar="OTHER_CHECKOUT", help="write both checkouts' artifacts, diff numbers"
    )
    args = parser.parse_args(argv)
    if args.compare:
        return compare(Path(args.compare))
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
