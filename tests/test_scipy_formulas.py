"""The package's logistic ramp and trapezoid rules give scipy's bits.

The package writes scipy.special.expit and scipy.integrate's trapezoid and
cumulative_trapezoid in place; these tests pin each to scipy's result, bit
for bit, so that no artifact moves with the rewrite.
"""

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, trapezoid
from scipy.special import expit

from flowtracker_lab.diagnostics import _cumulative_trapezoid
from flowtracker_lab.objectives import LogisticForm
from flowtracker_lab.schedules import (
    WINDOW_END,
    _window_integrals,
    custom_piecewise,
    evaluate_many,
    trapezoids,
)

# -709.78 is just inside exp's range, -709.79 and -745.2 past it
EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, -709.78, -709.79, -745.2, 709.79, 745.2]


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def scipy_grad(form, y):
    return (form.signs * expit(form.signs * (y[:, 0] - form.offsets)))[:, None]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 100.0, 800.0])
def test_logistic_grad_matches_scipy_expit_bit_for_bit(n, scale):
    rng = np.random.default_rng(n + int(10 * scale))
    form = LogisticForm(rng.choice([-1.0, 1.0], n), rng.normal(0.0, 1.0, n))
    for y in rng.standard_normal((400, n, 1)) * scale:
        assert_same_bits(form.grad(y), scipy_grad(form, y))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_logistic_grad_matches_scipy_expit_on_the_edges(n):
    form = LogisticForm(np.ones(n), np.zeros(n))
    values = np.array(EDGES + [-v for v in EDGES])
    for start in range(len(values) - n + 1):
        y = values[start : start + n, None]
        assert_same_bits(form.grad(y), scipy_grad(form, y))
    # a decreasing ramp past the overflow edge gives -0.0, as scipy's does
    flipped = LogisticForm(-np.ones(n), np.zeros(n))
    y = np.full((n, 1), 709.79)
    assert_same_bits(flipped.grad(y), scipy_grad(flipped, y))


def _samples(length):
    rng = np.random.default_rng(length)
    y = rng.normal(0.0, 3.0, length)
    x = np.cumsum(rng.uniform(0.001, 2.0, length))
    return y, x


@pytest.mark.parametrize("length", [1, 2, 3, 25_001])
def test_trapezoid_sums_match_scipy_bit_for_bit(length):
    y, x = _samples(length)
    assert_same_bits(np.sum(trapezoids(y, 0.01)), trapezoid(y, dx=0.01))
    assert_same_bits(np.sum(trapezoids(y, np.diff(x))), trapezoid(y, x))


@pytest.mark.parametrize("length", [1, 2, 3, 25_001])
def test_cumulative_trapezoid_matches_scipy_bit_for_bit(length):
    y, x = _samples(length)
    want = cumulative_trapezoid(y, dx=0.01, initial=0)
    assert_same_bits(_cumulative_trapezoid(y, 0.01), want)
    want = cumulative_trapezoid(y, x, initial=0)
    assert_same_bits(_cumulative_trapezoid(y, np.diff(x)), want)


@pytest.mark.parametrize("power", [1.0, 2.0])
def test_window_integrals_match_scipy_bit_for_bit(power):
    schedule = custom_piecewise([0.0, 300.0, 420.0, 777.0], [1.0, 0.5, 0.3, 0.1])
    grids = (
        np.linspace(WINDOW_END / 4, WINDOW_END / 2, 2001),
        np.linspace(WINDOW_END / 2, WINDOW_END, 4001),
    )
    want = [trapezoid(evaluate_many(schedule, grid) ** power, grid) for grid in grids]
    assert_same_bits(_window_integrals(schedule, power), want)
