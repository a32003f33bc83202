"""End-to-end acceptance suite.

Each test covers one numbered criterion at its stated tolerance and
prints a PASS line when it holds. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from flowtracker_lab import harness
from flowtracker_lab.diagnostics import (
    gap_integral_check,
    input_tracking_check,
    objective_series,
    observer_bound_fit,
    v_dominated_by_h_check,
    vdot_bound_check,
    weight_conservation_check,
)
from flowtracker_lab.dynamics import gradient_feedback, make_system
from flowtracker_lab.graphnet import process_from_dict
from flowtracker_lab.objectives import (
    family_from_dict,
    global_gradient,
    gradient_bound,
    mirror_pair,
    optimizer_oracle,
)
from flowtracker_lab.schedules import (
    check_validity,
    constant,
    lemma_aux_check,
    power_law,
    schedule_from_dict,
)
from flowtracker_lab.simulate import closed_form_two_agent, integrate

_cache: dict = {}


def _report(num: int, message: str) -> None:
    print(f"\nACCEPTANCE {num} PASS: {message}")


def _pushsum_scenario_run():
    """Scenario-4 artifacts, built once and shared with criterion 5."""
    if "pushsum" in _cache:
        return _cache["pushsum"]
    started = time.perf_counter()
    raw = harness.scenario_raw("pushsum-directed")
    process = harness._resolve_process(raw["process"], raw["h"])
    family = family_from_dict(raw["family"])
    schedule = schedule_from_dict(raw["schedule"])
    system = make_system("push-sum", process, d=1)
    rng = np.random.default_rng(raw["init"]["random"]["seed"])
    x0 = rng.uniform(-1.0, 1.0, (5, 1))
    traj = integrate(
        system,
        gradient_feedback(family, schedule),
        system.initial_state(x0),
        t_end=raw["t_end"],
        h=raw["h"],
        record_every=raw["record_every"],
    )
    flow_report, flow_passed = harness.check_flow(process, h=raw["h"])
    _cache["pushsum"] = {
        "traj": traj,
        "family": family,
        "schedule": schedule,
        "flow": flow_report,
        "flow_passed": flow_passed,
        "build_time": time.perf_counter() - started,
    }
    return _cache["pushsum"]


class TestCriterion1CounterexampleLimit:
    def test_exact_limit_and_sweep(self):
        started = time.perf_counter()
        cfg = harness.scenario("counterexample")
        summary = harness.run(cfg)
        final = np.asarray(summary.y_limit)[:, 0]
        assert np.abs(final - np.array([0.2, -0.2])).max() < 1e-4
        assert summary.all_checks_passed

        results = harness.sweep(
            harness.scenario_raw("counterexample"), "schedule.a0", [0.25, 0.5, 1.0]
        )
        for alpha, sub in results:
            expected = alpha / (2.0 + alpha)
            got = np.asarray(sub.y_limit)[:, 0]
            assert abs(got[0] - expected) < 1e-4
            assert abs(got[1] + expected) < 1e-4
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0
        _report(
            1,
            f"constant-step limit 0.2/-0.2 and sweep limits a/(2+a) within 1e-4 ({elapsed:.2f}s)",
        )


class TestCriterion2AnalyticAgreement:
    def test_rk4_vs_closed_form_and_order(self):
        started = time.perf_counter()
        proc = process_from_dict(
            {
                "n": 2,
                "pieces": [{"t": 0.0, "weights": [[0.0, 1.0], [1.0, 0.0]]}],
                "horizon": 10.0,
            }
        )
        from flowtracker_lab.dynamics import averaging_system

        sys_ = averaging_system(proc)
        law = gradient_feedback(mirror_pair(), constant(0.5))
        init = sys_.initial_state(np.zeros((2, 1)))
        traj = integrate(sys_, law, init, t_end=10.0, h=1e-3, record_every=0.1)
        assert traj.n_samples >= 100
        worst = max(
            np.abs(
                traj.x[k, :, 0] - closed_form_two_agent(0.5, np.zeros(2), float(t))
            ).max()
            for k, t in enumerate(traj.times)
        )
        assert worst < 1e-8

        finals = {}
        for h in (0.1, 0.05, 0.025):
            sys2 = averaging_system(proc)
            run = integrate(
                sys2,
                gradient_feedback(mirror_pair(), power_law(1.0, 1.0)),
                sys2.initial_state(np.array([[1.3], [-0.6]])),
                t_end=2.0,
                h=h,
                record_every=1.0,
            )
            finals[h] = run.x[-1]
        ratio = np.abs(finals[0.1] - finals[0.05]).max() / np.abs(
            finals[0.05] - finals[0.025]
        ).max()
        assert 8.0 <= ratio <= 32.0
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0
        _report(
            2,
            f"max |RK4 - closed form| = {worst:.2e} < 1e-8; halving ratio {ratio:.1f} in [8, 32] ({elapsed:.2f}s)",
        )


class TestCriterion3DiminishingStepConvergence:
    def test_two_agent_diminishing(self):
        started = time.perf_counter()
        proc = process_from_dict(
            {
                "n": 2,
                "pieces": [{"t": 0.0, "weights": [[0.0, 1.0], [1.0, 0.0]]}],
                "horizon": 2000.0,
            }
        )
        from flowtracker_lab.dynamics import averaging_system

        fam = mirror_pair()
        sched = power_law(1.0, 1.0)
        sys_ = averaging_system(proc)
        traj = integrate(
            sys_,
            gradient_feedback(fam, sched),
            sys_.initial_state(np.zeros((2, 1))),
            t_end=2000.0,
            h=0.02,
            record_every=0.1,
        )
        worst_final = float(np.abs(traj.y[-1]).max())
        assert worst_final < 0.05

        _, f_star = optimizer_oracle(fam)
        gaps = objective_series(traj, fam) - f_star
        window = traj.times >= 200.0
        settled = float(gaps[window].max() - gaps[window].min())
        assert settled < 1e-3
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0
        _report(
            3,
            f"|y_i(2000)| = {worst_final:.2e} < 0.05; gap settled to {settled:.1e} ({elapsed:.1f}s)",
        )


class TestCriterion4PushSumDirected:
    def test_flow_gate_and_convergence(self):
        bundle = _pushsum_scenario_run()
        flow = bundle["flow"]
        assert bundle["flow_passed"]
        assert flow.rate is not None and flow.rate < 1.0
        assert flow.p_star > 0

        family = bundle["family"]
        x_star, _ = optimizer_oracle(family)
        certificate = float(np.linalg.norm(global_gradient(family, x_star)))
        assert certificate < 1e-10

        traj = bundle["traj"]
        final_err = float(
            np.linalg.norm(traj.y[-1] - x_star[None, :], axis=1).max()
        )
        assert final_err < 1e-2
        assert bundle["build_time"] < 60.0
        _report(
            4,
            "ring flow rate "
            f"{flow.rate:.3f} (p*={flow.p_star:.3f}); oracle grad norm {certificate:.1e}; "
            f"final output error {final_err:.2e} < 1e-2 ({bundle['build_time']:.1f}s)",
        )


class TestCriterion5ObserverBounds:
    def test_declared_constant_no_violations(self):
        bundle = _pushsum_scenario_run()
        flow = bundle["flow"]
        declared = 3.0 / flow.p_star
        report = observer_bound_fit(bundle["traj"], flow.rate, declared_c2=declared)
        assert not report.infeasible
        assert report.violations == 0

        # free decay: the envelope constant should fit at essentially 1
        proc = process_from_dict(
            {
                "n": 2,
                "pieces": [{"t": 0.0, "weights": [[0.0, 1.0], [1.0, 0.0]]}],
                "horizon": 6.0,
            }
        )
        from flowtracker_lab.dynamics import averaging_system

        sys_ = averaging_system(proc)
        decay = integrate(
            sys_,
            None,
            sys_.initial_state(np.array([[1.0], [-1.0]])),
            t_end=6.0,
            h=1e-3,
            record_every=0.01,
        )
        fit = observer_bound_fit(decay, rate=float(np.exp(-2.0)))
        assert 0.9 <= fit.c2_min <= 1.1
        _report(
            5,
            f"declared c2=3/p* gives 0 violations; free-decay c2_min = {fit.c2_min:.4f} in [0.9, 1.1]",
        )


def _random_scenario(seed: int):
    """One seeded scenario for the inequality suite (criterion 6).

    Horizon and curvature are sized so the gap integral's last-decade
    change drops well below its 1e-3 gate for the slowest schedules.
    """
    rng = np.random.default_rng(seed)
    kind = ("averaging", "push-sum", "saddle-point", "spps")[seed % 4]
    n = 3 if kind in ("saddle-point", "spps") else int(rng.integers(3, 6))
    dwell = 0.5
    t_end = 200.0
    if kind in ("averaging", "saddle-point"):
        proc_raw = {
            "random": {
                "n": n,
                "model": "switching-complete",
                "dwell": dwell,
                "horizon": t_end,
                "seed": 1000 + seed,
            }
        }
        process = harness._resolve_process(proc_raw, 0.01)
    elif kind == "push-sum":
        proc_raw = {
            "random": {
                "n": n,
                "model": "directed-ring-rotate",
                "dwell": dwell,
                "horizon": t_end,
                "seed": 1000 + seed,
            }
        }
        process = harness._resolve_process(proc_raw, 0.01)
    else:
        process = process_from_dict(harness._shared_stationary_pieces(t_end, dwell))
        n = 3
    centers = rng.uniform(-0.5, 0.5, (n, 1))
    family = family_from_dict(
        {
            "kind": "huberized-quadratic",
            "params": {"centers": centers.tolist(), "radius": 2.0, "curvature": 2.0},
        }
    )
    p = (0.6, 0.75, 1.0)[seed % 3]
    schedule = power_law(float(rng.uniform(0.6, 1.0)), p)
    system = make_system(kind, process, d=1, a=5.0)
    x0 = rng.uniform(-0.5, 0.5, (n, 1))
    traj = integrate(
        system,
        gradient_feedback(family, schedule),
        system.initial_state(x0),
        t_end=t_end,
        h=0.01,
        record_every=0.01,
    )
    return kind, system, family, schedule, traj


class TestCriterion6InequalitySuite:
    def test_twenty_random_scenarios(self):
        started = time.perf_counter()
        counts = {}
        for seed in range(20):
            kind, system, family, schedule, traj = _random_scenario(seed)
            counts[kind] = counts.get(kind, 0) + 1
            x_star, f_star = optimizer_oracle(family)
            cap = gradient_bound(family)

            vdom = v_dominated_by_h_check(traj, x_star, cap, schedule)
            assert vdom.passed, f"seed {seed} ({kind}): V-domination failed"

            vdot = vdot_bound_check(
                traj, family, schedule, x_star, f_star, c1=system.c1
            )
            assert vdot.passed, f"seed {seed} ({kind}): derivative bound failed"

            gap = gap_integral_check(traj, family, schedule, f_star)
            assert gap.passed, f"seed {seed} ({kind}): gap integral failed"

            tracking = input_tracking_check(traj, c1=system.c1)
            assert tracking.passed, f"seed {seed} ({kind}): input tracking failed"

            conservation = weight_conservation_check(traj)
            for name, entry in conservation.items():
                assert entry["passed"], f"seed {seed} ({kind}): {name} drifted"
        elapsed = time.perf_counter() - started
        assert elapsed < 180.0
        _report(
            6,
            f"all inequality checks passed on 20 scenarios {counts} ({elapsed:.1f}s)",
        )


class TestCriterion7IntegralInequality:
    def test_worked_example_and_random_triples(self):
        ln2 = math.log(2.0)
        closed_lhs = (1.0 / (1.0 + ln2) - 0.5) / (1.0 - ln2)
        closed_rhs = 0.25 / ln2
        res = lemma_aux_check(
            lambda t: np.exp(-np.asarray(t)),
            lambda t: np.exp(-np.asarray(t)),
            lam=0.5,
            t_max=40.0,
        )
        assert abs(res.lhs - closed_lhs) < 1e-3
        assert abs(res.rhs - closed_rhs) < 1e-3
        assert res.holds

        rng = np.random.default_rng(7151)
        for _ in range(50):
            lam = rng.uniform(0.02, 0.08)
            mu = abs(math.log(lam))
            alpha = power_law(rng.uniform(0.2, 1.0), rng.uniform(0.55, 1.0))
            rate = rng.uniform(2.5, 4.5) * mu
            ts = np.linspace(0.0, 40.0, 81)
            vs = rng.uniform(0.2, 2.0) * np.exp(-rate * ts) * rng.uniform(0.7, 1.3, ts.size)
            triple = lemma_aux_check(alpha, np.column_stack([ts, vs]), lam, t_max=40.0)
            assert triple.holds
        _report(
            7,
            f"worked example lhs={res.lhs:.4f} <= rhs={res.rhs:.4f} (both within 1e-3 of closed forms); 50 random triples hold",
        )


class TestCriterion8FlowClassification:
    def test_rates_p_star_and_failure(self):
        two_node = {
            "n": 2,
            "pieces": [{"t": 0.0, "weights": [[0.0, 1.0], [1.0, 0.0]]}],
            "horizon": 10.0,
        }
        report, passed = harness.check_flow(process_from_dict(two_node), h=1e-3)
        assert passed
        assert abs(report.rate - math.exp(-2.0)) < 1e-3

        from flowtracker_lab.graphnet import random_process

        balanced = random_process(
            4, "switching-complete", dwell=0.5, horizon=10.0, seed=9
        )
        balanced_report, _ = harness.check_flow(balanced, h=1e-3)
        assert balanced_report.p_star == 1.0

        disconnected = {
            "n": 4,
            "pieces": [
                {
                    "t": 0.0,
                    "weights": [
                        [0.0, 1.0, 0.0, 0.0],
                        [1.0, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, 1.0],
                        [0.0, 0.0, 1.0, 0.0],
                    ],
                }
            ],
            "horizon": 10.0,
        }
        _, disconnected_passed = harness.check_flow(
            process_from_dict(disconnected), h=1e-2
        )
        assert not disconnected_passed
        _report(
            8,
            f"two-node rate {report.rate:.5f} = exp(-2) +/- 1e-3; doubly stochastic p* = 1 exactly; disconnected flow rejected",
        )


class TestCriterion9NegativeControl:
    def test_constant_step_rejected_and_nonconvergent(self):
        report = check_validity(schedule_from_dict({"kind": "constant", "a0": 0.5}))
        assert not report.valid
        assert report.integral_divergent and not report.square_integrable

        cfg = harness.scenario("counterexample")
        summary = harness.run(cfg)
        fam = mirror_pair()
        x_star, _ = optimizer_oracle(fam)
        distance = float(
            np.linalg.norm(np.asarray(summary.y_limit) - x_star[None, :], axis=1).min()
        )
        assert distance >= 0.1
        assert summary.checks["expectations"]
        _report(
            9,
            f"constant step size flagged invalid; constant-step limit stays {distance:.3f} >= 0.1 from the optimum",
        )


def test_readme_library_example_reaches_the_optimum(capsys):
    """README's library example, run as written: both agents end near the optimum at 0."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```python\n", 1)[1].split("\n```", 1)[0]
    namespace = {}
    exec(compile(example, "README.md", "exec"), namespace)
    y_end = namespace["traj"].y[-1]
    assert capsys.readouterr().out == f"{y_end}\n"
    assert np.abs(y_end).max() <= 0.01
