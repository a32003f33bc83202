import math

import numpy as np
import pytest

from flowtracker_lab.errors import InvalidInputError
from flowtracker_lab.schedules import (
    StepSchedule,
    check_validity,
    constant,
    custom_piecewise,
    evaluate,
    lemma_aux_check,
    power_law,
    schedule_from_dict,
)

# closed forms for the worked convolution example (alpha = beta = exp(-t),
# lambda = 1/2): lhs = (1/(1+ln2) - 1/2)/(1 - ln2), rhs = (1/2)/ln2 * 1/2
LN2 = math.log(2.0)
WORKED_LHS = (1.0 / (1.0 + LN2) - 0.5) / (1.0 - LN2)
WORKED_RHS = 0.25 / LN2


class TestEvaluate:
    def test_power_law_at_zero(self):
        assert evaluate(power_law(1.0, 1.0), 0.0) == 1.0

    def test_power_law_at_nine(self):
        assert evaluate(power_law(1.0, 1.0), 9.0) == pytest.approx(0.1)

    def test_constant(self):
        s = constant(0.5)
        for t in (0.0, 1.0, 100.0):
            assert evaluate(s, t) == 0.5

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidInputError):
            evaluate(power_law(), -1.0)

    def test_custom_piecewise_steps(self):
        s = custom_piecewise([0.0, 1.0, 2.0], [1.0, 0.5, 0.25])
        assert evaluate(s, 0.5) == 1.0
        assert evaluate(s, 1.0) == 0.5
        assert evaluate(s, 10.0) == 0.25

    def test_values_in_unit_interval(self):
        with pytest.raises(InvalidInputError):
            constant(1.5)
        with pytest.raises(InvalidInputError):
            power_law(0.0, 1.0)

    def test_nonincreasing_for_valid_schedules(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = power_law(rng.uniform(0.1, 1.0), rng.uniform(0.51, 1.0))
            ts = np.sort(rng.uniform(0, 50, 10))
            vals = [evaluate(s, float(t)) for t in ts]
            assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


class TestValidity:
    def test_harmonic_boundary_is_valid(self):
        report = check_validity(power_law(1.0, 1.0))
        assert report.valid and report.integral_divergent and report.square_integrable
        assert report.method == "analytic"

    def test_slow_decay_invalid(self):
        report = check_validity(power_law(1.0, 0.4))
        assert report.integral_divergent
        assert not report.square_integrable
        assert not report.valid

    def test_constant_rejected(self):
        report = check_validity(constant(0.5))
        assert report.integral_divergent
        assert not report.square_integrable
        assert not report.valid

    def test_too_fast_decay_invalid(self):
        report = check_validity(power_law(1.0, 1.5))
        assert report.square_integrable
        assert not report.integral_divergent
        assert not report.valid

    def test_power_law_flag_boundaries(self):
        assert check_validity(power_law(1.0, 0.5)).square_integrable is False
        assert check_validity(power_law(1.0, 0.51)).square_integrable is True
        assert check_validity(power_law(1.0, 1.0)).integral_divergent is True
        assert check_validity(power_law(1.0, 1.01)).integral_divergent is False

    def test_custom_decaying_table_heuristic(self):
        ts = np.linspace(0.0, 1000.0, 2001)
        vs = (1.0 + ts) ** -0.75
        report = check_validity(custom_piecewise(ts.tolist(), vs.tolist()))
        assert report.method == "heuristic"
        assert report.valid

    def test_custom_constant_table_heuristic(self):
        report = check_validity(custom_piecewise([0.0, 500.0], [0.5, 0.5]))
        assert report.method == "heuristic"
        assert report.integral_divergent
        assert not report.square_integrable


class TestLemmaAuxCheck:
    def test_worked_example_matches_closed_forms(self):
        res = lemma_aux_check(
            lambda t: np.exp(-np.asarray(t)),
            lambda t: np.exp(-np.asarray(t)),
            lam=0.5,
            t_max=40.0,
        )
        assert res.lhs == pytest.approx(WORKED_LHS, abs=1e-3)
        assert res.rhs == pytest.approx(WORKED_RHS, abs=1e-3)
        assert res.holds

    def test_zero_beta(self):
        res = lemma_aux_check(power_law(), lambda t: np.zeros_like(np.asarray(t)), 0.5, 10.0)
        assert res.lhs == 0.0
        assert res.rhs == 0.0
        assert res.holds

    def test_constant_alpha_slow_beta_is_the_sharpness_boundary(self):
        # With alpha constant the double integral attains the full kernel
        # mass <alpha, beta>/|log lambda|; the tight envelope with the
        # (1 - lambda) factor is exceeded, while safe_rhs still holds.
        res = lemma_aux_check(
            lambda t: np.ones_like(np.asarray(t, dtype=float)),
            lambda t: np.exp(-np.asarray(t)),
            lam=0.5,
            t_max=40.0,
        )
        assert res.lhs == pytest.approx(1.0 / LN2, abs=1e-3)
        assert not res.holds
        assert res.lhs <= res.safe_rhs + res.tolerance

    def test_safe_bound_holds_even_outside_tight_regime(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            lam = rng.uniform(0.1, 0.9)
            alpha = power_law(rng.uniform(0.2, 1.0), rng.uniform(0.55, 1.0))
            res = lemma_aux_check(alpha, lambda t: alpha(0) / (1 + np.asarray(t)), lam, 40.0)
            assert res.lhs <= res.safe_rhs + res.tolerance

    def test_fifty_random_triples_hold(self):
        rng = np.random.default_rng(7151)
        for _ in range(50):
            lam = rng.uniform(0.02, 0.08)
            mu = abs(math.log(lam))
            alpha = power_law(rng.uniform(0.2, 1.0), rng.uniform(0.55, 1.0))
            rate = rng.uniform(2.5, 4.5) * mu
            ts = np.linspace(0.0, 40.0, 81)
            vs = rng.uniform(0.2, 2.0) * np.exp(-rate * ts) * rng.uniform(0.7, 1.3, ts.size)
            res = lemma_aux_check(alpha, np.column_stack([ts, vs]), lam, t_max=40.0)
            assert res.holds

    def test_lambda_out_of_range(self):
        with pytest.raises(InvalidInputError):
            lemma_aux_check(power_law(), lambda t: np.exp(-np.asarray(t)), 1.0, 10.0)

    def test_increasing_alpha_rejected(self):
        with pytest.raises(InvalidInputError):
            lemma_aux_check(
                lambda t: np.asarray(t, dtype=float),
                lambda t: np.exp(-np.asarray(t)),
                0.5,
                10.0,
            )

    def test_beta_table_interpolation(self):
        # chords of a convex decay sit above the curve, so a table biases
        # slightly high; a 0.1-spaced table keeps that below 0.1%
        ts = np.linspace(0.0, 10.0, 101)
        res_table = lemma_aux_check(
            power_law(), np.column_stack([ts, np.exp(-ts)]), 0.5, 10.0
        )
        res_callable = lemma_aux_check(
            power_law(), lambda t: np.exp(-np.asarray(t)), 0.5, 10.0
        )
        assert res_table.lhs == pytest.approx(res_callable.lhs, rel=2e-3)


class TestSerialization:
    def test_round_trip_power_law(self):
        back = schedule_from_dict({"kind": "power-law", "a0": 0.7, "p": 0.8})
        assert back.kind == "power-law" and back.a0 == 0.7 and back.p == 0.8

    def test_round_trip_custom(self):
        s = custom_piecewise([0.0, 2.0], [1.0, 0.5])
        data = {"kind": "custom-piecewise", "times": [0.0, 2.0], "values": [1.0, 0.5]}
        back = schedule_from_dict(data)
        assert back.times == s.times and back.values == s.values

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            schedule_from_dict({"kind": "wat"})

    def test_bad_constructor(self):
        with pytest.raises(InvalidInputError):
            StepSchedule("custom-piecewise", times=(1.0,), values=(0.5,))
        with pytest.raises(InvalidInputError, match="equal length"):
            StepSchedule("custom-piecewise", times=(0.0, 1.0), values=(0.5,))
