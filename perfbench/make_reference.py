#!/usr/bin/env python3
"""Record perfbench/reference.json from the program as it is now.

    python3 perfbench/make_reference.py [workload ...]

For each workload and each seed in SEEDS, one untraced pass is run and
every unit's digest is stored; a unit that fails its gate aborts the
recording, so the reference only ever holds outputs that passed. The
benchmark compares a run against the reference when the run's seed is
in the table (scenarios are pinned and always compared).

Re-record only when a change is meant to move the numerics, and say so
with the largest difference it caused.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from run import OUT, REFERENCE, prepare

SEEDS = {
    "ensemble": range(8),
    "scenarios": ["pinned"],
    "sweep": range(64),
    "graph-flow": range(64),
}


def record(workload, seed) -> dict:
    from workloads import run_pass

    inputs = workload.setup(0 if seed == "pinned" else seed)
    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=OUT)
    try:
        table = {}
        for out in run_pass(workload, inputs, work):
            problem = out.failure or workload.gate(out)
            if problem is not None:
                raise SystemExit(f"{workload.name} seed {seed} {out.name}: {problem}")
            table[out.name] = out.digest
        return table
    finally:
        shutil.rmtree(work, ignore_errors=True)


def dump(reference: dict) -> str:
    """JSON with one line per workload seed, so a re-recording diffs by seed."""
    blocks = []
    for name in sorted(reference):
        rows = [
            f"  {json.dumps(seed)}: {json.dumps(table, sort_keys=True)}"
            for seed, table in reference[name].items()
        ]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(names) -> int:
    prepare()
    from workloads import WORKLOADS

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for name in names or SEEDS:
        reference[name] = {
            str(seed): record(WORKLOADS[name], seed) for seed in SEEDS[name]
        }
        print(f"recorded {name}: {len(reference[name])} seeds", flush=True)
        REFERENCE.write_text(dump(reference))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
