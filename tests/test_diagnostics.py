import csv
import math

import numpy as np
import pytest

from flowtracker_lab import diagnostics
from flowtracker_lab.diagnostics import (
    DiagnosticsReport,
    consensus_error,
    gap_integral_check,
    h_function,
    input_tracking_check,
    lyapunov_series,
    objective_series,
    observer_bound_fit,
    v_dominated_by_h_check,
    vdot_bound_check,
    weight_conservation_check,
)
from flowtracker_lab.dynamics import (
    averaging_system,
    gradient_feedback,
    push_sum_system,
)
from flowtracker_lab.errors import CapabilityError, InvalidInputError
from flowtracker_lab.graphnet import Laplacian, constant_process, random_process
from flowtracker_lab.objectives import (
    gradient_bound,
    huberized_quadratic,
    mirror_pair,
    optimizer_oracle,
)
from flowtracker_lab.schedules import constant, power_law
from flowtracker_lab.simulate import integrate

TWO_NODE = Laplacian(np.array([[1.0, -1.0], [-1.0, 1.0]]))


@pytest.fixture(scope="module")
def counterexample_full():
    proc = constant_process(TWO_NODE, 20.0)
    sys_ = averaging_system(proc)
    law = gradient_feedback(mirror_pair(), constant(0.5))
    init = sys_.initial_state(np.array([[0.5], [0.0]]))
    return integrate(sys_, law, init, t_end=20.0, h=1e-3, record_every=1e-3)


@pytest.fixture(scope="module")
def free_decay():
    proc = constant_process(TWO_NODE, 6.0)
    sys_ = averaging_system(proc)
    init = sys_.initial_state(np.array([[1.0], [-1.0]]))
    return integrate(sys_, None, init, t_end=6.0, h=1e-3, record_every=0.01)


@pytest.fixture(scope="module")
def consensus_run():
    proc = constant_process(TWO_NODE, 5.0)
    sys_ = averaging_system(proc)
    init = sys_.initial_state(np.full((2, 1), 0.75))
    return integrate(sys_, None, init, t_end=5.0, h=1e-2, record_every=1e-2)


class TestConsensusError:
    def test_consensus_run_is_zero(self, consensus_run):
        assert np.allclose(consensus_error(consensus_run), 0.0, atol=1e-14)

    def test_free_decay_matches_exponential(self, free_decay):
        err = consensus_error(free_decay)
        expected = np.exp(-2.0 * free_decay.times)
        assert np.abs(err - expected).max() < 1e-8

    def test_counterexample_steady_state(self):
        proc = constant_process(TWO_NODE, 50.0)
        sys_ = averaging_system(proc)
        law = gradient_feedback(mirror_pair(), constant(0.5))
        init = sys_.initial_state(np.zeros((2, 1)))
        traj = integrate(sys_, law, init, t_end=50.0, h=1e-3)
        assert consensus_error(traj)[-1] == pytest.approx(0.2, abs=1e-5)


class TestInputTracking:
    def test_zero_input_passes(self, free_decay):
        proc = constant_process(TWO_NODE, 2.0)
        sys_ = averaging_system(proc)
        init = sys_.initial_state(np.array([[1.0], [-1.0]]))
        traj = integrate(sys_, None, init, t_end=2.0, h=1e-2, record_every=1e-2)
        report = input_tracking_check(traj)
        assert report.passed
        assert report.residuals.max() < 1e-9

    def test_counterexample_passes_with_half(self, counterexample_full):
        report = input_tracking_check(counterexample_full, c1=0.5)
        assert report.passed

    def test_wrong_c1_fails(self, counterexample_full):
        report = input_tracking_check(counterexample_full, c1=1.0)
        assert not report.passed
        assert report.residuals.max() > 100 * report.tolerance

    def test_coarse_recording_rejected(self):
        proc = constant_process(TWO_NODE, 5.0)
        sys_ = averaging_system(proc)
        init = sys_.initial_state(np.zeros((2, 1)))
        traj = integrate(sys_, None, init, t_end=5.0, h=1e-2, record_every=0.1)
        with pytest.raises(CapabilityError):
            input_tracking_check(traj)

    def test_push_sum_directed_process_tracks(self):
        proc = random_process(4, "directed-ring-rotate", dwell=0.5, horizon=10.0, seed=3)
        fam = huberized_quadratic(np.linspace(-1, 1, 4)[:, None], radius=2.0)
        law = gradient_feedback(fam, power_law(1.0, 1.0))
        sys_ = push_sum_system(proc)
        init = sys_.initial_state(np.linspace(-0.5, 0.5, 4)[:, None])
        traj = integrate(sys_, law, init, t_end=10.0, h=1e-2, record_every=1e-2)
        assert input_tracking_check(traj).passed


class TestObserverBound:
    def test_consensus_zero_error(self, consensus_run):
        report = observer_bound_fit(consensus_run, rate=0.5)
        assert report.c2_min == pytest.approx(0.0, abs=1e-12)
        assert not report.infeasible

    def test_free_decay_constant_near_one(self, free_decay):
        report = observer_bound_fit(free_decay, rate=float(np.exp(-2.0)))
        assert 0.9 <= report.c2_min <= 1.1

    def test_declared_constant_violations_counted(self, free_decay):
        ok = observer_bound_fit(free_decay, rate=float(np.exp(-2.0)), declared_c2=1.5)
        assert ok.violations == 0
        tight = observer_bound_fit(free_decay, rate=float(np.exp(-2.0)), declared_c2=0.5)
        assert tight.violations > 0

    def test_rate_validation(self, consensus_run):
        with pytest.raises(InvalidInputError):
            observer_bound_fit(consensus_run, rate=1.0)

    def test_stacked_norms_match_the_per_record_loop_in_two_dimensions(self, monkeypatch):
        def per_record(block):
            return np.array([np.linalg.norm(u, 2) for u in block])

        proc = random_process(4, "switching-complete", dwell=0.5, horizon=5.0, seed=3)
        centers = np.array([[-1.0, 0.5], [0.2, -0.3], [0.7, 0.9], [-0.4, -1.1]])
        law = gradient_feedback(huberized_quadratic(centers, radius=2.0), power_law(1.0, 1.0))
        sys_ = averaging_system(proc, d=2)
        init = sys_.initial_state(np.zeros((4, 2)))
        traj = integrate(sys_, law, init, t_end=5.0, h=1e-2, record_every=1e-2)
        stacks = [traj.u, np.random.default_rng(0).normal(size=(1000, 5, 3))]
        for block in stacks:
            assert np.array_equal(diagnostics._stacked_norms(block), per_record(block))
        report = observer_bound_fit(traj, rate=0.5, declared_c2=1.0)
        monkeypatch.setattr(diagnostics, "_stacked_norms", per_record)
        assert observer_bound_fit(traj, rate=0.5, declared_c2=1.0) == report


class TestLyapunovAndH:
    def test_lyapunov_zero_at_optimum(self, consensus_run):
        # consensus at 0.75; pick x* = 0.75 so V vanishes identically
        v = lyapunov_series(consensus_run, np.array([0.75]))
        assert np.allclose(v, 0.0, atol=1e-14)

    def test_counterexample_average_stays_put(self):
        proc = constant_process(TWO_NODE, 30.0)
        sys_ = averaging_system(proc)
        law = gradient_feedback(mirror_pair(), constant(0.5))
        init = sys_.initial_state(np.zeros((2, 1)))
        traj = integrate(sys_, law, init, t_end=30.0, h=1e-3, record_every=1e-3)
        x_star, _ = optimizer_oracle(mirror_pair())
        v = lyapunov_series(traj, x_star)
        assert v[-1] < 1e-12

    def test_h_zero_at_start_and_on_consensus(self, consensus_run):
        h = h_function(consensus_run, cap=1.0, schedule=power_law(1.0, 1.0))
        assert h[0] == 0.0
        assert np.allclose(h, 0.0, atol=1e-14)

    def test_h_nondecreasing(self, counterexample_full):
        fam = mirror_pair()
        h = h_function(
            counterexample_full, cap=gradient_bound(fam), schedule=constant(0.5)
        )
        assert np.all(np.diff(h) >= -1e-15)

    def test_h_needs_full_resolution(self, free_decay):
        with pytest.raises(CapabilityError):
            h_function(free_decay, cap=1.0, schedule=constant(0.5))


@pytest.fixture(scope="module")
def valid_schedule_run():
    proc = constant_process(TWO_NODE, 60.0)
    sys_ = averaging_system(proc)
    law = gradient_feedback(mirror_pair(), power_law(1.0, 0.75))
    init = sys_.initial_state(np.array([[0.9], [-0.4]]))
    return integrate(sys_, law, init, t_end=60.0, h=1e-2, record_every=1e-2)


class TestBoundednessChain:

    def test_h_plateaus_on_valid_schedule(self, valid_schedule_run):
        fam = mirror_pair()
        h = h_function(valid_schedule_run, gradient_bound(fam), power_law(1.0, 0.75))
        m = h.shape[0]
        tail_growth = h[-1] - h[m // 2]
        assert tail_growth <= 0.25 * h[-1]

    def test_h_grows_linearly_on_constant_schedule(self, counterexample_full):
        # negative control for the plateau criterion: a constant step
        # keeps the disagreement excited, so h keeps accruing linearly
        fam = mirror_pair()
        h = h_function(counterexample_full, gradient_bound(fam), constant(0.5))
        m = h.shape[0]
        assert h[-1] - h[m // 2] >= 0.4 * h[-1]

    def test_h_below_assembled_envelope_bound(self, valid_schedule_run):
        # chain the fitted observer constant through the envelope
        # integrals: h(T) <= 2 K n c2 (a(0) ||x0|| / (1 - lam)
        #                              + sqrt(n) K int a^2 / |log lam|)
        traj = valid_schedule_run
        fam = mirror_pair()
        cap = gradient_bound(fam)
        lam = float(np.exp(-2.0))
        fit = observer_bound_fit(traj, lam)
        sched = power_law(1.0, 0.75)
        h = h_function(traj, cap, sched)
        n = traj.n
        x0_worst = float(np.linalg.norm(traj.x[0], axis=1).max())
        # int_0^inf a(t)^2 dt = int_0^inf (1 + t)^-1.5 dt = 2 in closed form
        alpha_sq = 2.0
        envelope = (
            2.0
            * cap
            * n
            * fit.c2_min
            * (
                sched(0.0) * x0_worst / (1.0 - lam)
                + math.sqrt(n) * cap * alpha_sq / abs(math.log(lam))
            )
        )
        assert h[-1] <= envelope

    def test_c2_fit_stable_under_horizon_doubling(self):
        proc = constant_process(TWO_NODE, 120.0)
        fam = mirror_pair()
        law = gradient_feedback(fam, power_law(1.0, 0.75))
        lam = float(np.exp(-2.0))
        fits = {}
        for t_end in (60.0, 120.0):
            sys_ = averaging_system(proc)
            init = sys_.initial_state(np.array([[0.9], [-0.4]]))
            traj = integrate(sys_, law, init, t_end=t_end, h=1e-2)
            fits[t_end] = observer_bound_fit(traj, lam).c2_min
        assert np.isfinite(fits[60.0]) and fits[60.0] > 0
        assert fits[120.0] <= fits[60.0] * 1.05 + 1e-9


class TestVDomination:
    def test_consensus_at_optimum_trivial(self):
        proc = constant_process(TWO_NODE, 5.0)
        sys_ = averaging_system(proc)
        fam = mirror_pair()
        x_star, _ = optimizer_oracle(fam)
        init = sys_.initial_state(np.zeros((2, 1)))
        traj = integrate(sys_, None, init, t_end=5.0, h=1e-2, record_every=1e-2)
        report = v_dominated_by_h_check(traj, x_star, gradient_bound(fam), constant(0.5))
        assert report.passed
        assert abs(report.worst_margin) < 1e-12

    def test_counterexample_passes(self, counterexample_full):
        fam = mirror_pair()
        x_star, _ = optimizer_oracle(fam)
        report = v_dominated_by_h_check(
            counterexample_full, x_star, gradient_bound(fam), constant(0.5)
        )
        assert report.passed


class TestVdotBound:
    def test_counterexample_passes(self, counterexample_full):
        fam = mirror_pair()
        x_star, f_star = optimizer_oracle(fam)
        report = vdot_bound_check(
            counterexample_full, fam, constant(0.5), x_star, f_star
        )
        assert report.passed

    def test_unit_gain_variant_would_fail_from_consensus(self):
        # start on consensus far from the optimum: the gap term dominates
        # and only the c1-scaled bound is analytically valid
        centers = np.array([[0.9], [-0.3], [0.1]])
        fam = huberized_quadratic(centers, radius=5.0)
        x_star, f_star = optimizer_oracle(fam)
        proc = random_process(3, "switching-complete", dwell=0.5, horizon=8.0, seed=21)
        sys_ = averaging_system(proc)
        law = gradient_feedback(fam, power_law(1.0, 1.0))
        init = sys_.initial_state(np.full((3, 1), 2.0))
        traj = integrate(sys_, law, init, t_end=8.0, h=1e-2, record_every=1e-2)
        scaled = vdot_bound_check(traj, fam, power_law(1.0, 1.0), x_star, f_star)
        assert scaled.passed
        unit_gain = vdot_bound_check(
            traj, fam, power_law(1.0, 1.0), x_star, f_star, c1=1.0
        )
        # same data against the unscaled right side: clearly violated
        alphas = np.array([power_law(1.0, 1.0)(float(t)) for t in traj.times])
        gaps = objective_series(traj, fam) - f_star
        spread = np.abs(traj.y - traj.xbar[:, None, :]).sum(axis=(1, 2))
        cap = gradient_bound(fam)
        rhs_unscaled = 2 * cap * alphas * spread - alphas * gaps
        v = lyapunov_series(traj, x_star)
        vdot = (v[2:] - v[:-2]) / (2 * traj.record_interval)
        assert (vdot - rhs_unscaled[1:-1]).max() > 0.1  # literal bound fails


class TestGapIntegral:
    def test_at_optimum_zero(self):
        proc = constant_process(TWO_NODE, 5.0)
        sys_ = averaging_system(proc)
        fam = mirror_pair()
        x_star, f_star = optimizer_oracle(fam)
        init = sys_.initial_state(np.zeros((2, 1)))
        traj = integrate(sys_, None, init, t_end=5.0, h=1e-2)
        report = gap_integral_check(traj, fam, constant(0.5), f_star)
        assert report.final_value == pytest.approx(0.0, abs=1e-12)
        assert report.passed

    def test_valid_schedule_run_bounded(self):
        # integrand decays like (1+t)^-3 here, so the last-decade change
        # drops below 1e-3 once the horizon passes ~200
        proc = constant_process(TWO_NODE, 200.0)
        sys_ = averaging_system(proc)
        fam = mirror_pair()
        x_star, f_star = optimizer_oracle(fam)
        law = gradient_feedback(fam, power_law(1.0, 1.0))
        init = sys_.initial_state(np.array([[0.8], [0.2]]))
        traj = integrate(sys_, law, init, t_end=200.0, h=2e-2)
        report = gap_integral_check(traj, fam, power_law(1.0, 1.0), f_star)
        assert report.passed
        assert report.integrand_min >= -1e-6


class TestWeightConservation:
    def test_push_sum_weights(self):
        proc = random_process(4, "directed-ring-rotate", dwell=0.5, horizon=5.0, seed=2)
        sys_ = push_sum_system(proc)
        init = sys_.initial_state(np.zeros((4, 1)))
        traj = integrate(sys_, None, init, t_end=5.0, h=1e-2)
        results = weight_conservation_check(traj)
        assert results["w"]["passed"]


def write_series_csv_by_csv_writer(report, directory):
    """The former series writer: one csv.writer row of f-strings per sample."""
    for name, values in report.series.items():
        with open(f"{directory}/{name.replace(' ', '_')}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", name])
            for t, v in zip(report.times, values):
                writer.writerow([f"{t:.17g}", f"{v:.17g}"])


def test_series_csv_bytes_match_the_csv_writer(tmp_path):
    rng = np.random.default_rng(7)
    m = 25_001
    times = np.arange(m) * 1e-3
    values = rng.standard_normal(m) * 10.0 ** rng.uniform(-300, 300, m)
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2e-308, 1e-310, 1.0 / 3.0]
    values[: len(specials)] = specials
    values[-len(specials) :] = specials
    times[1:4] = [-0.0, 1e-320, np.nan]
    series = {"consensus_error": values, "optimality gap": values[::-1].copy()}
    report = DiagnosticsReport(times, series, {})
    (tmp_path / "new").mkdir()
    (tmp_path / "old").mkdir()
    written = report.write_series_csv(tmp_path / "new")
    write_series_csv_by_csv_writer(report, tmp_path / "old")
    assert [p.rsplit("/", 1)[1] for p in written] == ["consensus_error.csv", "optimality_gap.csv"]
    for path in written:
        name = path.rsplit("/", 1)[1]
        new = (tmp_path / "new" / name).read_bytes()
        assert new.count(b"\r\n") == m + 1
        assert new == (tmp_path / "old" / name).read_bytes()
