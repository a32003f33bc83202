"""Tests of the benchmark itself: inputs, gates, metric names, tracing.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import pytest

from run import ROOT, Run, prepare

prepare()

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from flowtracker_lab import graphnet, harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _process_weights(process):
    return [lap.weight_matrix() for lap in process.laplacians]


class TestGenerators:
    @pytest.mark.parametrize("seed", [0, 7, 123456])
    def test_same_seed_same_inputs(self, seed):
        assert wl.ensemble_raws(seed) == wl.ensemble_raws(seed)
        assert wl.sweep_values(seed) == wl.sweep_values(seed)
        assert wl.flow_specs(seed) == wl.flow_specs(seed)

    def test_seeds_differ(self):
        assert wl.ensemble_raws(1) != wl.ensemble_raws(2)
        assert wl.sweep_values(1) != wl.sweep_values(2)
        assert wl.flow_specs(1) != wl.flow_specs(2)

    def test_graph_flow_setup_is_deterministic(self):
        first = wl.GraphFlow().setup(3)
        second = wl.GraphFlow().setup(3)
        assert [i.name for i in first] == [i.name for i in second]
        for a, b in zip(first, second):
            for wa, wb in zip(_process_weights(a.process), _process_weights(b.process)):
                assert np.array_equal(wa, wb)

    def test_ensemble_cycles_the_four_systems(self):
        kinds = [raw["dynamics"]["name"] for raw in wl.ensemble_raws(5)]
        assert kinds == list(wl.KINDS)

    def test_sweep_values_in_unit_interval(self):
        values = wl.sweep_values(11)
        assert len(values) == wl.SWEEP_VALUES
        assert all(0.0 < v <= 1.0 for v in values)


def _gate_one(workload, output, reference=None) -> Run:
    run = Run(workload, 0, reference, trace=False)
    run._gate([output], "test")
    return run


class TestGate:
    def test_sweep_closed_form_catches_perturbation(self, tmp_path):
        (tmp_path / "sweep.csv").write_text("x\n")
        a = 0.5
        exact = [a / (2 + a), -a / (2 + a)]
        good = wl.Output("a", digest={"y_limit": exact}, info={"value": a, "table": tmp_path / "sweep.csv"})
        assert _gate_one(wl.Sweep(), good).failures == []
        bad = wl.Output(
            "a",
            digest={"y_limit": [exact[0] + 2e-4, exact[1]]},
            info={"value": a, "table": tmp_path / "sweep.csv"},
        )
        run = _gate_one(wl.Sweep(), bad)
        assert run.attempted == 1
        assert [f["unit"] for f in run.failures] == ["a"]

    def test_reference_mismatch_counts_as_failed(self, tmp_path):
        (tmp_path / "sweep.csv").write_text("x\n")
        a = 0.25
        exact = [a / (2 + a), -a / (2 + a)]
        reference = {"u": {"y_limit": exact}}
        info = {"value": a, "table": tmp_path / "sweep.csv"}
        same = wl.Output("u", digest={"y_limit": [exact[0] + 1e-14, exact[1]]}, info=info)
        assert _gate_one(wl.Sweep(), same, reference).failures == []
        moved = wl.Output("u", digest={"y_limit": [exact[0] + 1e-9, exact[1]]}, info=info)
        run = _gate_one(wl.Sweep(), moved, reference)
        assert len(run.failures) == 1 and "y_limit" in run.failures[0]["problem"]

    def test_missing_reference_unit_counts_as_failed(self, tmp_path):
        (tmp_path / "sweep.csv").write_text("x\n")
        out = wl.Output("new", digest={"y_limit": [0.2, -0.2]},
                        info={"value": 0.5, "table": tmp_path / "sweep.csv"})
        assert len(_gate_one(wl.Sweep(), out, {"old": {}}).failures) == 1

    def test_failed_ensemble_check_counts(self):
        checks = {"vdot-bound": True, "gap-integral": False}
        run = _gate_one(wl.Ensemble(), wl.Output("m", info={"checks": checks}))
        assert "gap-integral" in run.failures[0]["problem"]

    def test_raising_unit_is_recorded_not_dropped(self):
        def boom():
            raise ValueError("bad input")

        out = wl._guarded("unit-x", boom)
        run = _gate_one(wl.Ensemble(), out)
        assert run.failures[0]["unit"] == "unit-x"
        assert "ValueError: bad input" in run.failures[0]["problem"]

    def test_graph_flow_windows_checked_against_oracle(self):
        process = graphnet.random_process(
            6, "directed-ring-rotate", wl.FLOW_DWELL, 4.0, seed=5, h=wl.FLOW_STEP
        )
        item = wl.FlowInput("ring-n6", process, True)
        out = wl._flow_unit(item)
        assert _gate_one(wl.GraphFlow(), out).failures == []
        out.digest["cut_windows"][1] += 1e-6
        assert len(_gate_one(wl.GraphFlow(), out).failures) == 1

    @pytest.mark.parametrize(
        "perturb",
        [
            lambda out: out.info.update(report=dataclasses.replace(
                out.info["report"],
                distances=(out.info["report"].distances[0] * (1 + 1e-6),
                           *out.info["report"].distances[1:]))),
            lambda out: out.digest["p_star"].__setitem__(0, out.digest["p_star"][0] + 1e-9),
            lambda out: out.digest["rate"].__setitem__(0, out.digest["rate"][0] * (1 + 1e-8)),
            lambda out: out.digest["ergodic"].__setitem__(0, 1.0 - out.digest["ergodic"][0]),
        ],
        ids=["distance", "p_star", "rate", "ergodic"],
    )
    def test_flow_report_checked_against_exact_flows(self, perturb):
        # n = 64 processes get no min-cut sweep, so this is their whole gate
        process = graphnet.random_process(
            8, "B-window-strongly-connected", wl.FLOW_DWELL, 8.0, seed=9, B=2, h=wl.FLOW_STEP
        )
        out = wl._flow_unit(wl.FlowInput("bwin-n8", process, False))
        assert _gate_one(wl.GraphFlow(), out).failures == []
        perturb(out)
        assert len(_gate_one(wl.GraphFlow(), out).failures) == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_agrees_with_exhaustive_min_cut(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.5, 1.5, (7, 7)) * (rng.random((7, 7)) < 0.35)
        np.fill_diagonal(w, 0.0)
        lap = graphnet.make_laplacian(w)
        assert wl.oracle_min_cut(lap) == pytest.approx(graphnet.min_cut(lap), abs=1e-12)

    def test_digest_compare_handles_none_and_nan(self):
        assert wl.compare_digest({"rate": [None]}, {"rate": [None]}) is None
        assert wl.compare_digest({"r": [float("nan")]}, {"r": [float("nan")]}) is None
        assert wl.compare_digest({"rate": [0.5]}, {"rate": [None]}) is not None
        assert wl.compare_digest({"a": [1.0]}, {"b": [1.0]}) is not None


NAME = re.compile(r"[A-Za-z0-9_.-]+")


class TestMetricNames:
    def test_declared_names_are_valid_and_unique(self):
        names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
        names += [w["name"] for w in SPEC["workloads"]]
        assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
        assert len(names) == len(set(names))

    def test_traced_metrics_match_declaration(self):
        produced = set(spans.pass_metrics(spans.Tracer()))
        produced |= set(spans.setup_metrics(spans.Tracer()))
        produced |= {"harness.import_s", "trace_overhead_frac"}
        assert produced == {m["name"] for m in SPEC["per_layer"]}

    def test_declared_workloads_exist(self):
        assert {w["name"] for w in SPEC["workloads"]} <= set(wl.WORKLOADS)


class TestTracing:
    def _originals(self):
        return [(o, a, o.__dict__[a]) for o, a in spans.wrapped_attributes()]

    def test_traced_run_restores_every_attribute(self, tmp_path):
        before = self._originals()
        tracer = spans.Tracer()
        cfg = harness.scenario("counterexample")
        with spans.traced(tracer):
            summary = harness.run(cfg, out_dir=tmp_path)
        assert summary.all_checks_passed
        for owner, attr, original in before:
            assert owner.__dict__[attr] is original, f"{owner}.{attr} not restored"
        metrics = spans.pass_metrics(tracer)
        assert metrics["simulate.steps"] == 50000
        assert metrics["simulate.affine_us_per_step"] > 0
        assert metrics["simulate.write_csv_bytes"] == (tmp_path / "trajectory.csv").stat().st_size
        assert metrics["dynamics.control_law_calls"] == 501

    def test_restores_after_an_exception(self):
        before = self._originals()
        with pytest.raises(RuntimeError):
            with spans.traced(spans.Tracer()):
                raise RuntimeError("stop")
        for owner, attr, original in before:
            assert owner.__dict__[attr] is original

    def test_self_time_excludes_children(self):
        tracer = spans.Tracer()
        outer = tracer.begin("outer")
        inner = tracer.begin("inner")
        tracer.end(inner)
        tracer.law_call(0.25)
        tracer.end(outer)
        own = tracer.self_times()
        total = outer[4] - outer[3]
        assert own["outer"] == pytest.approx(total - (inner[4] - inner[3]) - 0.25)
        assert tracer.law_calls == 1


def test_blas_threads_pinned_whatever_the_caller_set(monkeypatch):
    import run

    for var in run.BLAS_VARS:
        monkeypatch.setenv(var, "4")
    run.prepare()
    assert all(run.os.environ[var] == "1" for var in run.BLAS_VARS)
