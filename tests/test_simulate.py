import math
import sys

import numpy as np
import pytest
from scipy.linalg import expm

from flowtracker_lab.dynamics import (
    averaging_system,
    gradient_feedback,
    push_sum_system,
    saddle_point_system,
    spps_system,
)
from flowtracker_lab.errors import (
    DegenerateWeightsError,
    InvalidInputError,
    NumericalFailureError,
)
from flowtracker_lab.graphnet import (
    Laplacian,
    check_switch_alignment,
    constant_process,
    make_laplacian,
    random_process,
)
from flowtracker_lab.objectives import mirror_pair
from flowtracker_lab.schedules import constant, power_law
from flowtracker_lab.simulate import (
    closed_form_two_agent,
    estimate_limit,
    integrate,
)

TWO_NODE = Laplacian(np.array([[1.0, -1.0], [-1.0, 1.0]]))
DIRECTED = Laplacian(np.array([[1.0, -2.0], [-1.0, 2.0]]))


def counterexample_run(alpha=0.5, t_end=10.0, h=1e-3, x0=None, use_affine_path=True):
    proc = constant_process(TWO_NODE, max(t_end, 50.0))
    sys_ = averaging_system(proc)
    feedback = gradient_feedback(mirror_pair(), constant(alpha))
    # a plain function has no rowwise_affine, so it takes the generic path
    law = feedback if use_affine_path else (lambda t, y: feedback(t, y))
    init = sys_.initial_state(np.zeros((2, 1)) if x0 is None else x0)
    return integrate(sys_, law, init, t_end=t_end, h=h)


class TestClosedFormTwoAgent:
    def test_time_zero_returns_start(self):
        x0 = np.array([0.3, -1.2])
        assert np.array_equal(closed_form_two_agent(0.5, x0, 0.0), x0)

    def test_long_time_limit(self):
        x = closed_form_two_agent(0.5, np.zeros(2), 200.0)
        assert np.allclose(x, [0.2, -0.2], atol=1e-12)

    def test_reference_value_at_one(self):
        x = closed_form_two_agent(0.5, np.zeros(2), 1.0)
        expect = (1.0 - math.exp(-2.5)) * 0.2
        assert x[0] == pytest.approx(expect, abs=1e-12)
        assert x[0] == pytest.approx(0.183583, abs=5e-7)
        assert x[1] == pytest.approx(-expect, abs=1e-12)

    def test_against_matrix_exponential_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            alpha = rng.uniform(0.1, 2.0)
            x0 = rng.uniform(-2, 2, 2)
            t = rng.uniform(0, 5)
            a_mat = np.array([[-1 - alpha, 1.0], [1.0, -1 - alpha]])
            forced = alpha * np.array([1.0, -1.0])
            # x(t) = e^{At} x0 + A^{-1}(e^{At} - I) b with b = forced
            e_at = expm(a_mat * t)
            oracle = e_at @ x0 + np.linalg.solve(a_mat, (e_at - np.eye(2)) @ forced)
            assert np.allclose(closed_form_two_agent(alpha, x0, t), oracle, atol=1e-12)

    def test_alpha_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            closed_form_two_agent(0.0, np.zeros(2), 1.0)


class TestIntegrateBasics:
    def test_consensus_free_run_is_constant(self):
        proc = constant_process(DIRECTED, 5.0)
        sys_ = push_sum_system(proc)
        init = sys_.initial_state(np.full((2, 1), 2.5))
        traj = integrate(sys_, None, init, t_end=5.0, h=1e-2)
        assert np.allclose(traj.y, 2.5, atol=1e-12)

    def test_free_decay_matches_eigenmode(self):
        proc = constant_process(TWO_NODE, 5.0)
        sys_ = averaging_system(proc)
        init = sys_.initial_state(np.array([[1.0], [-1.0]]))
        traj = integrate(sys_, None, init, t_end=5.0, h=1e-3)
        expected = np.exp(-2.0 * traj.times)
        assert np.abs(traj.x[:, 0, 0] - expected).max() < 1e-9
        assert np.abs(traj.x[:, 1, 0] + expected).max() < 1e-9

    def test_rk4_matches_closed_form_along_run(self):
        traj = counterexample_run(t_end=10.0, h=1e-3, use_affine_path=False)
        errs = [
            np.abs(traj.x[k, :, 0] - closed_form_two_agent(0.5, np.zeros(2), float(t))).max()
            for k, t in enumerate(traj.times)
        ]
        assert max(errs) < 1e-10

    def test_affine_path_matches_generic(self):
        fast = counterexample_run(t_end=5.0, h=1e-3, use_affine_path=True)
        slow = counterexample_run(t_end=5.0, h=1e-3, use_affine_path=False)
        assert np.abs(fast.x - slow.x).max() < 1e-12
        assert np.abs(fast.u - slow.u).max() < 1e-12

    def test_counterexample_limit(self):
        traj = counterexample_run(t_end=50.0, h=1e-3)
        assert np.allclose(traj.x[-1, :, 0], [0.2, -0.2], atol=1e-6)

    def test_xbar_recomputable(self):
        traj = counterexample_run(t_end=2.0, h=1e-2)
        assert np.array_equal(traj.xbar, traj.x.mean(axis=1))

    def test_step_halving_fourth_order(self):
        proc = constant_process(TWO_NODE, 4.0)
        law = gradient_feedback(mirror_pair(), power_law(1.0, 1.0))
        finals = {}
        for h in (0.1, 0.05, 0.025):
            sys_ = averaging_system(proc)
            init = sys_.initial_state(np.array([[1.7], [-0.4]]))
            traj = integrate(sys_, law, init, t_end=2.0, h=h, record_every=1.0)
            finals[h] = traj.x[-1]
        d1 = np.abs(finals[0.1] - finals[0.05]).max()
        d2 = np.abs(finals[0.05] - finals[0.025]).max()
        assert 8.0 <= d1 / d2 <= 32.0

    def test_generic_path_calls_law_four_times_per_step_plus_once(self):
        # a record's u is the next step's first stage, so only the final
        # record adds a call of its own
        calls = []

        def law(t, y):
            calls.append(t)
            return -0.5 * y + 0.25 * t

        with pytest.warns(UserWarning, match="non-weight-balanced"):
            sys_ = averaging_system(constant_process(DIRECTED, 2.0))
        init = sys_.initial_state(np.array([[1.0], [-0.5]]))
        traj = integrate(sys_, law, init, t_end=2.0, h=0.01, record_every=0.1)
        assert len(calls) == 4 * 200 + 1
        t_rec = np.arange(traj.n_samples) * 10 * 0.01  # step index times h
        assert np.array_equal(traj.u, -0.5 * traj.y + 0.25 * t_rec[:, None, None])


class TestStepGrid:
    def test_a_recording_past_the_cap_raises_before_allocating(self):
        # 1e12 + 1 records of 8 floats; parse_config rejects the same run
        sys_ = averaging_system(constant_process(TWO_NODE, 1.0))
        init = sys_.initial_state(np.zeros((2, 1)))
        with pytest.raises(InvalidInputError, match=r"8e\+12 in all, pass the 1.6e\+07-float cap"):
            integrate(sys_, None, init, t_end=1.0, h=1e-12, record_every=1e-12)

    def test_push_sum_run_checks_switch_alignment_once(self, monkeypatch):
        proc = random_process(5, "directed-ring-rotate", dwell=0.5, horizon=20.0, seed=4)
        sys_ = push_sum_system(proc)
        init = sys_.initial_state(np.linspace(-1, 1, 5)[:, None])
        calls = []

        def counted(process, h):
            calls.append(h)
            return check_switch_alignment(process, h)

        # a call from any module of the package counts
        for name, module in list(sys.modules.items()):
            if name.startswith("flowtracker_lab.") and hasattr(module, "check_switch_alignment"):
                monkeypatch.setattr(module, "check_switch_alignment", counted)
        traj = integrate(sys_, None, init, t_end=20.0, h=1e-2)
        assert traj.meta["path"] == "affine"
        assert calls == [1e-2]


class TestConservationAndReduction:
    def test_push_sum_weights_conserved_and_positive(self):
        proc = random_process(5, "directed-ring-rotate", dwell=0.5, horizon=20.0, seed=4)
        sys_ = push_sum_system(proc)
        init = sys_.initial_state(np.linspace(-1, 1, 5)[:, None])
        traj = integrate(sys_, None, init, t_end=20.0, h=1e-2)
        sums = traj.aux["w"].sum(axis=1)
        assert np.abs(sums - 5.0).max() < 1e-8
        assert traj.aux["w"].min() > 0

    def test_push_sum_directed_weights_limit(self):
        proc = constant_process(DIRECTED, 30.0)
        sys_ = push_sum_system(proc)
        init = sys_.initial_state(np.array([[1.0], [0.0]]))
        traj = integrate(sys_, None, init, t_end=30.0, h=1e-2)
        assert np.allclose(traj.aux["w"][-1], [4.0 / 3.0, 2.0 / 3.0], atol=1e-9)

    def test_push_sum_reduces_to_averaging_when_balanced(self):
        proc = random_process(3, "switching-complete", dwell=0.5, horizon=8.0, seed=9)
        x0 = np.array([[1.0], [-0.5], [0.25]])
        law = gradient_feedback(
            mirror_pair(), power_law(1.0, 1.0)
        )
        # mirror pair is n=2; use a 3-agent family instead
        from flowtracker_lab.objectives import huberized_quadratic

        fam = huberized_quadratic(np.array([[0.5], [-0.5], [0.2]]), radius=2.0)
        law = gradient_feedback(fam, power_law(1.0, 1.0))
        ps = push_sum_system(proc)
        av = averaging_system(proc)
        traj_ps = integrate(ps, law, ps.initial_state(x0), t_end=8.0, h=1e-2)
        traj_av = integrate(av, law, av.initial_state(x0), t_end=8.0, h=1e-2)
        assert np.abs(traj_ps.aux["w"] - 1.0).max() < 1e-12
        assert np.abs(traj_ps.y - traj_av.y).max() < 1e-12

    def test_spps_reduces_to_saddle_when_balanced(self):
        proc = random_process(3, "switching-complete", dwell=0.5, horizon=8.0, seed=11)
        from flowtracker_lab.objectives import huberized_quadratic

        fam = huberized_quadratic(np.array([[0.5], [-0.5], [0.2]]), radius=2.0)
        law = gradient_feedback(fam, power_law(1.0, 1.0))
        x0 = np.array([[0.6], [-0.2], [0.1]])
        sp = saddle_point_system(proc, a=5.0)
        px = spps_system(proc, a=5.0)
        traj_sp = integrate(sp, law, sp.initial_state(x0), t_end=8.0, h=1e-2)
        traj_px = integrate(px, law, px.initial_state(x0), t_end=8.0, h=1e-2)
        assert np.abs(traj_px.aux["v"] - 1.0).max() < 1e-12
        assert np.abs(traj_px.y - traj_sp.y).max() < 1e-12

    def test_saddle_dual_average_constant(self):
        proc = random_process(3, "switching-complete", dwell=0.5, horizon=6.0, seed=13)
        sys_ = saddle_point_system(proc, a=5.0)
        rng = np.random.default_rng(0)
        init = sys_.initial_state(rng.uniform(-1, 1, (3, 1)), w=rng.uniform(-1, 1, (3, 1)))
        traj = integrate(sys_, None, init, t_end=6.0, h=1e-2)
        means = traj.aux["w"].mean(axis=1)
        assert np.abs(means - means[0]).max() < 1e-10

    def test_spps_weight_sum_is_agent_count(self):
        proc = constant_process(DIRECTED, 10.0)
        sys_ = spps_system(proc, a=5.0)
        init = sys_.initial_state(np.array([[1.0], [-1.0]]))
        traj = integrate(sys_, None, init, t_end=10.0, h=1e-2)
        assert np.abs(traj.aux["v"].sum(axis=1) - 2.0).max() < 1e-10

    def test_saddle_free_decay_reaches_consensus(self):
        proc = constant_process(TWO_NODE, 40.0)
        sys_ = saddle_point_system(proc, a=5.0)
        init = sys_.initial_state(np.array([[1.0], [-1.0]]))
        traj = integrate(sys_, None, init, t_end=40.0, h=1e-2)
        spread = np.abs(traj.x[-1, :, 0] - traj.xbar[-1, 0]).max()
        assert spread < 1e-6


class TestGuards:
    def test_init_outside_admissible_set(self):
        proc = constant_process(DIRECTED, 5.0)
        sys_ = push_sum_system(proc)
        bad = sys_.initial_state(np.zeros((2, 1)), w=np.array([2.0, 0.5]))
        with pytest.raises(InvalidInputError):
            integrate(sys_, None, bad, t_end=1.0, h=1e-2)

    def test_degenerate_weights_abort(self):
        # only agent 1 reads agent 0: w_0 decays like exp(-t) toward the floor
        w = np.zeros((2, 2))
        w[1, 0] = 1.0
        proc = constant_process(make_laplacian(w), 25.0)
        sys_ = push_sum_system(proc)
        init = sys_.initial_state(np.ones((2, 1)))
        with pytest.raises(DegenerateWeightsError) as err:
            integrate(sys_, None, init, t_end=25.0, h=1e-2)
        assert err.value.time == pytest.approx(-math.log(1e-9), rel=0.01)

    def test_box_violation_detected(self):
        proc = constant_process(TWO_NODE, 5.0)
        sys_ = averaging_system(proc)
        law = gradient_feedback(mirror_pair(), constant(0.5))
        init = sys_.initial_state(np.array([[5.0], [-5.0]]))
        with pytest.raises(NumericalFailureError, match="box"):
            integrate(sys_, law, init, t_end=1.0, h=1e-2)

    def test_generic_path_reports_non_finite_state_at_its_record(self):
        # a plain-function law takes the generic path; the state turns
        # non-finite in the first step and is reported at the next step,
        # between records
        proc = constant_process(TWO_NODE, 5.0)
        sys_ = averaging_system(proc)
        init = sys_.initial_state(np.zeros((2, 1)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailureError, match="non-finite") as err:
                integrate(
                    sys_, lambda t, y: np.full((2, 1), np.inf), init,
                    t_end=1.0, h=1e-2, record_every=0.1,
                )
        assert err.value.time == pytest.approx(0.01)

    def test_generic_path_runs_on_a_finite_state_whose_sum_overflows(self):
        # equal entries of 1e308 sum to inf, but every entry is finite and
        # the mixing keeps them still
        proc = constant_process(TWO_NODE, 5.0)
        sys_ = averaging_system(proc)
        init = sys_.initial_state(np.full((2, 1), 1e308))
        with np.errstate(over="ignore"):
            traj = integrate(
                sys_, lambda t, y: np.zeros((2, 1)), init, t_end=0.1, h=1e-2,
                record_every=1e-2,
            )
        assert traj.meta["path"] == "generic"
        assert (traj.x[-1] == 1e308).all()

    def test_misaligned_record_interval(self):
        proc = constant_process(TWO_NODE, 5.0)
        sys_ = averaging_system(proc)
        init = sys_.initial_state(np.zeros((2, 1)))
        with pytest.raises(InvalidInputError):
            integrate(sys_, None, init, t_end=1.0, h=3e-2, record_every=0.1)

    def test_t_end_beyond_horizon(self):
        proc = constant_process(TWO_NODE, 5.0)
        sys_ = averaging_system(proc)
        init = sys_.initial_state(np.zeros((2, 1)))
        with pytest.raises(InvalidInputError):
            integrate(sys_, None, init, t_end=6.0, h=1e-2)


class TestTrajectoryArtifacts:
    def test_determinism_bytes(self, tmp_path):
        a = counterexample_run(t_end=2.0, h=1e-3)
        b = counterexample_run(t_end=2.0, h=1e-3)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_csv(pa)
        b.write_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_csv_layout(self, tmp_path):
        proc = constant_process(DIRECTED, 2.0)
        sys_ = push_sum_system(proc)
        init = sys_.initial_state(np.array([[1.0], [2.0]]))
        traj = integrate(sys_, None, init, t_end=2.0, h=1e-2)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x_1,x_2,w_1,w_2,y_1,y_2,u_1,u_2,xbar_1"
        assert len(lines) == traj.n_samples + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0

    def test_jsonl_round_trip(self, tmp_path):
        import json

        traj = counterexample_run(t_end=1.0, h=1e-2)
        path = tmp_path / "traj.jsonl"
        traj.write_jsonl(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == traj.n_samples
        rec = json.loads(lines[-1])
        assert rec["t"] == pytest.approx(1.0)
        assert np.allclose(rec["x"], traj.x[-1])

    def test_full_resolution_flag(self):
        traj = counterexample_run(t_end=1.0, h=1e-2)
        assert not traj.is_full_resolution
        proc = constant_process(TWO_NODE, 1.0)
        sys_ = averaging_system(proc)
        init = sys_.initial_state(np.zeros((2, 1)))
        full = integrate(sys_, None, init, t_end=1.0, h=1e-2, record_every=1e-2)
        assert full.is_full_resolution


class TestEstimateLimit:
    def test_constant_trajectory(self):
        proc = constant_process(DIRECTED, 5.0)
        sys_ = push_sum_system(proc)
        init = sys_.initial_state(np.full((2, 1), 1.5))
        traj = integrate(sys_, None, init, t_end=5.0, h=1e-2, record_every=1e-2)
        est = estimate_limit(traj)
        assert np.allclose(est.y_limit, 1.5, atol=1e-12)
        assert est.residual < 1e-12

    def test_counterexample_limit_estimate(self):
        traj = counterexample_run(t_end=50.0, h=1e-3)
        est = estimate_limit(traj)
        assert np.allclose(est.y_limit[:, 0], [0.2, -0.2], atol=1e-4)
        assert est.residual < 1e-4

    def test_too_few_samples(self):
        traj = counterexample_run(t_end=1.0, h=1e-2)
        with pytest.raises(InvalidInputError):
            estimate_limit(traj)
