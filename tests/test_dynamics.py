import math
import warnings

import numpy as np
import pytest

from flowtracker_lab.dynamics import (
    GradientFeedback,
    SystemState,
    ZeroControl,
    averaging_system,
    gradient_feedback,
    make_system,
    predicted_spps_rate,
    push_sum_system,
    saddle_point_system,
    spps_system,
)
from flowtracker_lab.errors import CapabilityError, InvalidInputError
from flowtracker_lab.graphnet import (
    Laplacian,
    constant_process,
    make_laplacian,
    random_process,
)
from flowtracker_lab.objectives import Box, gradient_bound, huberized_quadratic, mirror_pair
from flowtracker_lab.schedules import constant, power_law

TWO_NODE = Laplacian(np.array([[1.0, -1.0], [-1.0, 1.0]]))
DIRECTED = Laplacian(np.array([[1.0, -2.0], [-1.0, 2.0]]))


def balanced_process(horizon=10.0, n=3, seed=1):
    return random_process(n, "switching-complete", dwell=0.5, horizon=horizon, seed=seed)


def ring_process(horizon=10.0, n=5, seed=2):
    return random_process(n, "directed-ring-rotate", dwell=0.5, horizon=horizon, seed=seed)


class TestConstruction:
    def test_averaging_warns_on_unbalanced(self):
        with pytest.warns(UserWarning, match="not guaranteed"):
            averaging_system(constant_process(DIRECTED, 5.0))

    def test_averaging_silent_on_balanced(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            averaging_system(constant_process(TWO_NODE, 5.0))

    def test_saddle_rejects_unbalanced(self):
        with pytest.raises(InvalidInputError):
            saddle_point_system(constant_process(DIRECTED, 5.0), a=5.0)

    def test_saddle_warns_on_small_gain(self):
        with pytest.warns(UserWarning, match="a < 5"):
            saddle_point_system(constant_process(TWO_NODE, 5.0), a=1.0)

    def test_spps_scalar_only(self):
        with pytest.raises(CapabilityError):
            spps_system(constant_process(DIRECTED, 5.0), a=5.0, d=2)

    def test_make_system_unknown(self):
        with pytest.raises(InvalidInputError):
            make_system("thing", constant_process(TWO_NODE, 5.0))

    def test_c1_is_inverse_agent_count(self):
        for n in (2, 3, 5):
            proc = random_process(n, "switching-complete", dwell=0.5, horizon=2.0, seed=n)
            assert averaging_system(proc).c1 == pytest.approx(1.0 / n)


class TestInitialSets:
    def test_push_sum_requires_unit_weights(self):
        sys_ = push_sum_system(constant_process(DIRECTED, 5.0))
        bad = sys_.initial_state(np.zeros((2, 1)), w=np.array([1.0, 2.0]))
        with pytest.raises(InvalidInputError, match="w\\(0\\)"):
            sys_.check_initial(bad)

    def test_spps_requires_unit_v(self):
        sys_ = spps_system(constant_process(DIRECTED, 5.0), a=5.0)
        bad = sys_.initial_state(np.zeros((2, 1)), v=np.array([0.5, 1.5]))
        with pytest.raises(InvalidInputError, match="v\\(0\\)"):
            sys_.check_initial(bad)

    def test_defaults_are_admissible(self):
        proc = constant_process(DIRECTED, 5.0)
        for sys_ in (push_sum_system(proc), spps_system(proc, a=5.0)):
            sys_.check_initial(sys_.initial_state(np.zeros((2, 1))))

    def test_pack_unpack_round_trip(self):
        sys_ = spps_system(constant_process(DIRECTED, 5.0), a=5.0)
        state = sys_.initial_state(
            np.array([[1.0], [2.0]]), z=np.array([0.5, -0.5]), v=np.ones(2)
        )
        back = sys_.unpack(sys_.pack(state))
        assert np.array_equal(back.x, state.x)
        assert np.array_equal(back.aux["z"], state.aux["z"])
        assert np.array_equal(back.aux["v"], state.aux["v"])


class TestVectorFields:
    def test_averaging_consensus_is_stationary(self):
        sys_ = averaging_system(constant_process(TWO_NODE, 5.0))
        state = sys_.initial_state(np.full((2, 1), 3.7))
        d = sys_.deriv_state(0.0, state, np.zeros((2, 1)))
        assert np.array_equal(d.x, np.zeros((2, 1)))

    def test_averaging_disagreement_direction(self):
        sys_ = averaging_system(constant_process(TWO_NODE, 5.0))
        state = sys_.initial_state(np.array([[1.0], [-1.0]]))
        d = sys_.deriv_state(0.0, state, np.zeros((2, 1)))
        # eigenvector with eigenvalue 2 of L: dx = -2 x
        assert np.allclose(d.x, -2.0 * state.x)

    def test_saddle_consensus_stationary(self):
        with pytest.warns(UserWarning):
            sys_ = saddle_point_system(constant_process(TWO_NODE, 5.0), a=3.0)
        state = sys_.initial_state(np.full((2, 1), 1.5), w=np.full((2, 1), -0.3))
        d = sys_.deriv_state(0.0, state, np.zeros((2, 1)))
        assert np.array_equal(d.x, np.zeros((2, 1)))
        assert np.array_equal(d.aux["w"], np.zeros((2, 1)))

    def test_spps_weight_sum_derivative_zero(self):
        sys_ = spps_system(constant_process(DIRECTED, 5.0), a=5.0)
        state = sys_.initial_state(np.array([[2.0], [0.5]]))
        d = sys_.deriv_state(0.0, state, np.zeros((2, 1)))
        assert d.aux["v"].sum() == pytest.approx(0.0, abs=1e-15)

    def test_push_sum_output_is_ratio(self):
        sys_ = push_sum_system(constant_process(DIRECTED, 5.0))
        state = SystemState(np.array([[2.0], [3.0]]), {"w": np.array([0.5, 1.5])})
        y = sys_.output_state(0.0, state)
        assert np.allclose(y, [[4.0], [2.0]])


class TestDistributedness:
    @staticmethod
    def symmetric_ring(n=5, seed=3, horizon=10.0):
        rng = np.random.default_rng(seed)
        w = np.zeros((n, n))
        for i in range(n):
            wt = rng.uniform(0.5, 1.5)
            w[i, (i + 1) % n] = wt
            w[(i + 1) % n, i] = wt
        return constant_process(make_laplacian(w), horizon)

    @pytest.mark.parametrize("name", ["averaging", "push-sum", "saddle-point", "spps"])
    def test_derivative_ignores_non_neighbors(self, name):
        proc = (
            self.symmetric_ring()
            if name in ("averaging", "saddle-point")
            else ring_process(n=5, seed=3)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sys_ = make_system(name, proc, a=5.0)
        fam = huberized_quadratic(np.linspace(-1, 1, 5)[:, None], radius=2.0)
        law = gradient_feedback(fam, power_law(1.0, 1.0))
        rng = np.random.default_rng(0)
        for t in (0.0, 0.7, 1.3):
            lap = proc.at(t).matrix
            state = sys_.initial_state(rng.uniform(-1, 1, (5, 1)))
            base_u = law(t, sys_.output_state(t, state))
            base = sys_.deriv_state(t, state, base_u)
            zeros = np.argwhere(lap == 0.0)
            pairs = [(i, j) for i, j in zeros if i != j]
            assert pairs, "test process should have missing edges"
            for i, j in pairs[:6]:
                x2 = state.x.copy()
                x2[j] += 17.3
                aux2 = {k: v.copy() for k, v in state.aux.items()}
                for blk in aux2.values():
                    blk_flat = blk.reshape(-1) if blk.ndim == 1 else blk
                    blk_flat[j] = blk_flat[j] + 5.1
                pert = SystemState(x2, aux2)
                pert_u = law(t, sys_.output_state(t, pert))
                d2 = sys_.deriv_state(t, pert, pert_u)
                assert np.array_equal(base.x[i], d2.x[i])
                for k in base.aux:
                    assert np.array_equal(
                        np.atleast_1d(base.aux[k])[i], np.atleast_1d(d2.aux[k])[i]
                    )


class TestGradientFeedback:
    def test_mirror_pair_at_origin(self):
        law = gradient_feedback(mirror_pair(), power_law(1.0, 1.0))
        u = law(0.0, np.zeros((2, 1)))
        assert np.allclose(u, [[1.0], [-1.0]])

    def test_zero_at_private_minimizers(self):
        law = gradient_feedback(mirror_pair(), constant(0.5))
        y = np.array([[1.0], [-1.0]])  # each agent at its own center
        assert np.allclose(law(0.0, y), 0.0)

    def test_norm_bounded_by_alpha_times_cap(self):
        fam = mirror_pair()
        box = Box([-2.0], [2.0])
        cap = gradient_bound(fam, box)
        sched = power_law(1.0, 1.0)
        law = gradient_feedback(fam, sched)
        rng = np.random.default_rng(8)
        for _ in range(100):
            t = rng.uniform(0, 50)
            y = rng.uniform(-2, 2, (2, 1))
            u = law(t, y)
            alpha = sched(t)
            assert np.linalg.norm(u, axis=1).max() <= alpha * cap + 1e-12

    def test_zero_control(self):
        law = ZeroControl(3, 2)
        assert np.array_equal(law(1.0, np.ones((3, 2))), np.zeros((3, 2)))

    def test_affine_coefficients_constant_quadratic(self):
        sched = constant(0.5)
        law = gradient_feedback(mirror_pair(), sched)
        scale, offset, schedule = law.rowwise_affine()
        assert np.allclose(scale, [-1.0, -1.0])
        assert np.allclose(offset, [[1.0], [-1.0]])
        assert schedule is sched

    def test_affine_for_any_schedule(self):
        sched = power_law()
        law = gradient_feedback(mirror_pair(), sched)
        scale, offset, schedule = law.rowwise_affine()
        assert schedule is sched
        rng = np.random.default_rng(3)
        for t in rng.uniform(0, 20, 10):
            y = rng.uniform(-2, 2, (2, 1))
            assert np.allclose(law(t, y), sched(t) * (scale[:, None] * y + offset), atol=1e-15)

    def test_no_affine_for_huber(self):
        fam = huberized_quadratic(np.zeros((2, 1)), radius=1.0)
        assert gradient_feedback(fam, constant(0.5)).rowwise_affine() is None


class TestPredictedRate:
    def test_reference_value(self):
        assert predicted_spps_rate(5.0, 0.5, 1.0, 2) == pytest.approx(
            math.exp(-1.25), abs=1e-10
        )
        assert predicted_spps_rate(5.0, 0.5, 1.0, 2) == pytest.approx(0.28650, abs=5e-6)

    def test_vanishing_cut_gives_no_contraction(self):
        assert predicted_spps_rate(5.0, 0.5, 1e-9, 2) == pytest.approx(1.0, abs=1e-6)

    def test_agent_count_scaling(self):
        lam2 = predicted_spps_rate(5.0, 0.5, 1.0, 2)
        lam4 = predicted_spps_rate(5.0, 0.5, 1.0, 4)
        assert lam4 == pytest.approx(lam2 ** 0.25, rel=1e-12)

    def test_out_of_range_inputs(self):
        with pytest.raises(InvalidInputError):
            predicted_spps_rate(4.0, 0.5, 1.0, 2)
        with pytest.raises(InvalidInputError):
            predicted_spps_rate(5.0, 0.0, 1.0, 2)
        with pytest.raises(InvalidInputError):
            predicted_spps_rate(5.0, 0.5, -1.0, 2)
