#!/usr/bin/env python3
"""Benchmark of flowtracker-lab: one workload, one seed, one closed-loop process.

    python3 perfbench/run.py --workload ensemble --seed 3 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
./src. The run builds the workload's inputs from the seed, then repeats
rounds over the pass's units until --seconds have been spent and at
least the workload's minimum of rounds has run. Each unit is timed on
its own and gated for correctness outside its timing. The set-up is
timed once before the first round and again after every unit, at least
SETUP_REPEATS times in all.

--trace 0 reports the end-to-end metrics; --trace 1 runs half the time
untraced and half traced, and reports the per-layer metrics plus the
tracing overhead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Results, failures, the
environment and the spans are also written under perfbench/out/.
The exit status is 1 when a unit failed its gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 7
# Pinned to 1 before numpy loads, whatever the caller's environment says:
# a threaded BLAS on a small shared machine made min_cut three times
# slower and far noisier.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS threads and put ./src on the path; call before numpy loads."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer" in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def host_probe() -> dict:
    """Fastest and median of 50 short fixed loops of small-matrix numpy.

    A host that shares its cores with other machines can slow this
    process twofold without any trace in /proc/loadavg; a median well
    above the fastest loop shows it.
    """
    import numpy

    a = numpy.full((5, 5), 0.1)
    times = []
    for _ in range(50):
        x = numpy.ones(5)
        started = time.perf_counter()
        for _ in range(500):
            x = a @ x + 0.5
        times.append(1e3 * (time.perf_counter() - started))
    return {"fastest_ms": min(times), "median_ms": statistics.median(times)}


def _git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": _git_revision(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


class Phase:
    """Rounds over a pass's units, each unit timed on its own.

    A pass's time is the sum over its units of each unit's median round,
    so one slow stretch of a shared host moves one sample of one unit.
    """

    def __init__(self):
        self.walls: dict[str, list[float]] = {}
        self.cpus: dict[str, list[float]] = {}
        self.tracers: list = []

    def add(self, label: str, wall: float, cpu: float) -> None:
        self.walls.setdefault(label, []).append(wall)
        self.cpus.setdefault(label, []).append(cpu)

    def wall(self) -> float:
        return sum(statistics.median(v) for v in self.walls.values())

    def cpu(self) -> float:
        return sum(statistics.median(v) for v in self.cpus.values())


class Run:
    """One workload over one seed's inputs: set-ups, rounds, gate results."""

    def __init__(self, workload, seed: int, reference: dict | None, trace: bool):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.trace = trace
        self.inputs = None
        self.setup_times: list[float] = []
        self.setup_layers: list[dict] = []
        self.attempted = 0
        self.failures: list[dict] = []

    def set_up(self) -> None:
        """Build the inputs once more; the first build's inputs are kept."""
        import spans

        tracer = spans.Tracer() if self.trace else None
        started = time.perf_counter()
        if tracer is None:
            inputs = self.workload.setup(self.seed)
        else:
            with spans.traced(tracer):
                inputs = self.workload.setup(self.seed)
        self.setup_times.append(time.perf_counter() - started)
        if tracer is not None:
            self.setup_layers.append(spans.setup_metrics(tracer))
        if self.inputs is None:
            self.inputs = inputs

    def phase(self, seconds: float, traced: bool) -> Phase:
        """Whole rounds until the next would overrun `seconds`, at least
        the workload's `min_rounds`. A set-up follows every unit, outside
        its timing, so that the median set-up samples the whole run
        rather than one stretch of a shared host."""
        import spans

        phase = Phase()
        units = self.workload.units(self.inputs)
        started = time.perf_counter()
        while True:
            tracer = spans.Tracer() if traced else None
            label = f"{'traced' if traced else 'untraced'}{len(phase.tracers)}"
            work = Path(tempfile.mkdtemp(prefix="round-", dir=OUT))
            try:
                for name, call in units:
                    wall0, cpu0 = time.perf_counter(), time.process_time()
                    if tracer is None:
                        outputs = call(work)
                    else:
                        with spans.traced(tracer):
                            outputs = call(work)
                    wall = time.perf_counter() - wall0
                    phase.add(name, wall, time.process_time() - cpu0)
                    self._gate(outputs, label)
                    self.set_up()
            finally:
                shutil.rmtree(work, ignore_errors=True)
            phase.tracers.append(tracer)
            rounds = len(phase.tracers)
            spent = time.perf_counter() - started
            if rounds >= self.workload.min_rounds and spent + spent / rounds > seconds:
                return phase

    def _gate(self, outputs, label: str) -> None:
        from workloads import compare_digest

        for out in outputs:
            self.attempted += 1
            problem = out.failure
            if problem is None:
                problem = self.workload.gate(out)
            if problem is None and self.reference is not None:
                want = self.reference.get(out.name)
                if want is None:
                    problem = "no reference recorded for this unit"
                else:
                    problem = compare_digest(out.digest, want)
            if problem is not None:
                self.failures.append(
                    {"round": label, "unit": out.name, "seed": self.seed, "problem": problem}
                )


def _reference_for(workload: str, seed: int) -> dict | None:
    table = json.loads(REFERENCE.read_text())[workload]
    return table.get("pinned", table.get(str(seed)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flowtracker_lab" / "__init__.py").is_file():
        print(f"error: no flowtracker_lab sources under {SRC}", file=sys.stderr)
        return 2
    load_start = _loadavg()
    prepare()
    started = time.perf_counter()
    import flowtracker_lab  # noqa: F401  (timed: the package's import cost)

    import_s = time.perf_counter() - started
    probe_start = host_probe()

    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; options: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    run = Run(workload, args.seed, _reference_for(workload.name, args.seed), bool(args.trace))
    run.set_up()
    if args.trace == 0:
        measured = run.phase(args.seconds, traced=False)
        metrics = {
            "wall_s": measured.wall(),
            "cpu_s": measured.cpu(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = declared_units("end_to_end")
    else:
        untraced = run.phase(args.seconds / 2, traced=False)
        measured = run.phase(args.seconds / 2, traced=True)
        per_round = [spans.pass_metrics(t) for t in measured.tracers]
        metrics = {"harness.import_s": import_s}
        for key in per_round[0]:
            metrics[key] = statistics.median([m[key] for m in per_round])
        metrics["trace_overhead_frac"] = measured.wall() / untraced.wall() - 1.0
        units = declared_units("per_layer")
        spans.write_spans(
            OUT / f"spans-{workload.name}-seed{args.seed}.jsonl",
            {f"traced{i}": t for i, t in enumerate(measured.tracers)},
        )

    while len(run.setup_times) < SETUP_REPEATS:
        run.set_up()
    if args.trace == 0:
        metrics["setup_s"] = statistics.median(run.setup_times)
    else:
        for key in run.setup_layers[0]:
            metrics[key] = statistics.median([m[key] for m in run.setup_layers])
    if sorted(metrics) != sorted(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    metrics = {key: metrics[key] for key in units}
    failed = len(run.failures)
    env = environment()
    env["loadavg_start"] = load_start
    env["loadavg_end"] = _loadavg()
    env["host_probe_start"] = probe_start
    env["host_probe_end"] = host_probe()
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(measured.tracers),
        "unit_wall_s": measured.walls,
        "unit_cpu_s": measured.cpus,
        "setup_s": run.setup_times,
        "attempted": run.attempted,
        "failed": failed,
        "failed_frac": failed / run.attempted,
        "failures": run.failures,
        "environment": env,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    for failure in run.failures:
        print(f"FAILED {failure['unit']} ({failure['round']}): {failure['problem']}")
    print(f"workload {workload.name}  seed {args.seed}  rounds {len(measured.tracers)}")
    for key, value in metrics.items():
        print(f"  {key:48s} {value:14.6g} {units[key]}")
    print(f"  {'failed_frac':48s} {failed / run.attempted:14.6g} 1"
          f"  ({failed} of {run.attempted} units)")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
