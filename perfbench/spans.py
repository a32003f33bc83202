"""In-memory span tracer and the layer wrappers of the traced run.

A span is one call into a layer's public function: a name, a start, an
end, the span that was open when it began, and the time its child spans
covered. Self time is the duration minus that child time.

The wrappers live here, not in the program: `traced(tracer)` swaps each
attribute listed in LAYER_CALLS for a timing wrapper and puts every
original object back on exit. The control law runs four times per RK4
step, so its calls are not kept one span each; each call adds its count
and duration to the tracer and its duration to the enclosing span's child
time.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from flowtracker_lab import (
    diagnostics,
    dynamics,
    graphnet,
    harness,
    objectives,
    simulate,
)
from flowtracker_lab.diagnostics import DiagnosticsReport
from flowtracker_lab.simulate import Trajectory

# Checks whose self time is reported as diagnostics.check_s.<key>.
CHECKS = {
    "input_tracking_check": "input_tracking",
    "v_dominated_by_h_check": "v_dominated_by_h",
    "vdot_bound_check": "vdot_bound",
    "gap_integral_check": "gap_integral",
    "observer_bound_fit": "observer_bound_fit",
    "weight_conservation_check": "weight_conservation",
}

SYSTEMS = ("averaging", "push-sum", "saddle-point", "spps")


class Tracer:
    """Spans of one traced pass, kept in memory until the run ends."""

    def __init__(self):
        # [id, name, parent id, start, end, child time, extra]
        self.spans: list[list] = []
        self._open: list[list] = []
        self.law_calls = 0
        self.law_time = 0.0

    def begin(self, name: str) -> list:
        parent = self._open[-1][0] if self._open else None
        span = [len(self.spans), name, parent, perf_counter(), None, 0.0, None]
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: list) -> None:
        span[4] = perf_counter()
        self._open.pop()
        if self._open:
            self._open[-1][5] += span[4] - span[3]

    def law_call(self, seconds: float) -> None:
        self.law_calls += 1
        self.law_time += seconds
        if self._open:
            self._open[-1][5] += seconds

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for _, name, _, start, end, child, _ in self.spans:
            out[name] += end - start - child
        return out

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[1] == name)

    def extras(self, name: str) -> list:
        return [span[6] for span in self.spans if span[1] == name]

    def to_records(self, label: str) -> list[dict]:
        return [
            {
                "pass": label,
                "id": sid,
                "name": name,
                "parent": parent,
                "start": start,
                "end": end,
                "self": end - start - child,
            }
            for sid, name, parent, start, end, child, _ in self.spans
        ]


def _integrate_extra(args, kwargs, traj) -> dict:
    system = args[0] if args else kwargs["system"]
    law = args[1] if len(args) > 1 else kwargs.get("law")
    meta = traj.meta
    affine = getattr(law, "rowwise_affine", None)
    path = "generic"
    if getattr(system, "supports_affine", False) and (
        law is None or (affine is not None and affine() is not None)
    ):
        path = "affine"
    return {
        "system": meta.get("system"),
        "steps": int(round(meta["t_end"] / meta["h"])),
        "records": traj.n_samples,
        "path": path,
    }


def _window_extra(args, kwargs, result) -> list[int]:
    process, t0, window = args[:3]
    end = min(t0 + window, process.horizon)
    return [id(lap) for _, _, lap in process.segments(t0, end)]


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[1])


def _files_bytes(args, kwargs, result) -> int:
    return sum(os.path.getsize(path) for path in result)


def _report_extra(args, kwargs, report) -> int:
    return len(report.samples)


# (owner, attribute, span name, extra) for every wrapped layer call. The
# harness reaches most layers through its own module attributes, so
# those are wrapped beside the layer modules' attributes.
LAYER_CALLS = [
    (harness, "parse_config", "harness.parse_config", None),
    (harness, "run", "harness.run", None),
    (harness, "random_process", "graphnet.random_process", None),
    (graphnet, "random_process", "graphnet.random_process", None),
    (harness, "integrate", "simulate.integrate", _integrate_extra),
    (simulate, "integrate", "simulate.integrate", _integrate_extra),
    (harness, "optimizer_oracle", "objectives.optimizer_oracle", None),
    (objectives, "optimizer_oracle", "objectives.optimizer_oracle", None),
    (harness, "ergodicity_report", "flowcore.ergodicity_report", _report_extra),
    (harness, "integrated_min_cut", "graphnet.integrated_min_cut", _window_extra),
    (graphnet, "min_cut", "graphnet.min_cut", None),
    (diagnostics, "objective_series", "diagnostics.objective_series", None),
    *[
        (diagnostics, fn, f"diagnostics.check.{key}", None)
        for fn, key in CHECKS.items()
    ],
    (Trajectory, "write_csv", "simulate.write_csv", _file_bytes),
    (Trajectory, "write_jsonl", "simulate.write_csv", _file_bytes),
    (DiagnosticsReport, "write_json", "diagnostics.write", _file_bytes),
    (DiagnosticsReport, "write_series_csv", "diagnostics.write", _files_bytes),
]

# Factories of the control law; the law they return is re-classed so
# integrate's isinstance check and its affine-path test still apply.
LAW_FACTORIES = [(harness, "gradient_feedback"), (dynamics, "gradient_feedback")]


def _wrap(tracer: Tracer, name: str, fn, extra):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if extra is not None:
            span[6] = extra(args, kwargs, result)
        return result

    return wrapper


def _traced_law_class(tracer: Tracer):
    base = dynamics.GradientFeedback

    class TracedGradientFeedback(base):
        def __call__(self, t, y):
            start = perf_counter()
            out = base.__call__(self, t, y)
            tracer.law_call(perf_counter() - start)
            return out

    return TracedGradientFeedback


def _wrap_factory(factory, law_class):
    @functools.wraps(factory)
    def wrapper(*args, **kwargs):
        law = factory(*args, **kwargs)
        law.__class__ = law_class
        return law

    return wrapper


def wrapped_attributes() -> list[tuple[object, str]]:
    """Every (owner, attribute) that `traced` replaces while it is active."""
    return [(owner, attr) for owner, attr, _, _ in LAYER_CALLS] + LAW_FACTORIES


@contextmanager
def traced(tracer: Tracer):
    """Route the layer calls through `tracer`; restore every original on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr in wrapped_attributes()]
    try:
        for owner, attr, name, extra in LAYER_CALLS:
            setattr(owner, attr, _wrap(tracer, name, owner.__dict__[attr], extra))
        law_class = _traced_law_class(tracer)
        for owner, attr in LAW_FACTORIES:
            setattr(owner, attr, _wrap_factory(owner.__dict__[attr], law_class))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _us_per_step(tracer: Tracer, keep) -> float:
    """Whole integrate spans (control law included) per step, over kept runs."""
    chosen = [s for s in tracer.spans if s[1] == "simulate.integrate" and keep(s[6])]
    steps = sum(s[6]["steps"] for s in chosen)
    return 1e6 * sum(s[4] - s[3] for s in chosen) / steps if steps else 0.0


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    own = tracer.self_times()
    runs = tracer.extras("simulate.integrate")
    out = {
        "harness.run_s": own["harness.run"],
        "simulate.integrate_s": own["simulate.integrate"],
        "simulate.steps": float(sum(r["steps"] for r in runs)),
        "simulate.records": float(sum(r["records"] for r in runs)),
    }
    for system in SYSTEMS:
        out[f"simulate.generic_us_per_step.{system}"] = _us_per_step(
            tracer, lambda r, system=system: r["path"] == "generic" and r["system"] == system
        )
    out["simulate.affine_us_per_step"] = _us_per_step(tracer, lambda r: r["path"] == "affine")
    out["dynamics.control_law_s"] = tracer.law_time
    out["dynamics.control_law_calls"] = float(tracer.law_calls)
    out["simulate.write_csv_s"] = own["simulate.write_csv"]
    out["simulate.write_csv_bytes"] = float(sum(tracer.extras("simulate.write_csv")))
    out["diagnostics.write_s"] = own["diagnostics.write"]
    out["diagnostics.write_bytes"] = float(sum(tracer.extras("diagnostics.write")))
    out["diagnostics.objective_series_s"] = own["diagnostics.objective_series"]
    out["diagnostics.objective_series_calls_per_run"] = (
        tracer.calls("diagnostics.objective_series") / len(runs) if runs else 0.0
    )
    for key in CHECKS.values():
        out[f"diagnostics.check_s.{key}"] = own[f"diagnostics.check.{key}"]
    out["objectives.optimizer_oracle_s"] = own["objectives.optimizer_oracle"]
    out["flowcore.ergodicity_report_s"] = own["flowcore.ergodicity_report"]
    out["flowcore.flow_samples"] = float(sum(tracer.extras("flowcore.ergodicity_report")))
    cuts = tracer.calls("graphnet.min_cut")
    pieces = {piece for ids in tracer.extras("graphnet.integrated_min_cut") for piece in ids}
    out["graphnet.min_cut_s"] = own["graphnet.min_cut"]
    out["graphnet.min_cut_calls"] = float(cuts)
    out["graphnet.min_cut_calls_per_piece"] = cuts / len(pieces) if pieces else 0.0
    return out


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced set-up."""
    own = tracer.self_times()
    return {
        "harness.parse_config_s": own["harness.parse_config"],
        "graphnet.random_process_s": own["graphnet.random_process"],
    }


def write_spans(path, tracers: dict[str, Tracer]) -> None:
    with open(path, "w") as fh:
        for label, tracer in tracers.items():
            for record in tracer.to_records(label):
                fh.write(json.dumps(record) + "\n")
