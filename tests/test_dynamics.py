import warnings

import numpy as np
import pytest

from flowtracker_lab.dynamics import (
    GradientFeedback,
    ZeroControl,
    averaging_system,
    gradient_feedback,
    make_system,
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
from flowtracker_lab.objectives import (
    Box,
    gradient_bound,
    huberized_quadratic,
    logistic_scalar,
    mirror_pair,
)
from flowtracker_lab.schedules import constant, power_law

TWO_NODE = Laplacian(np.array([[1.0, -1.0], [-1.0, 1.0]]))
DIRECTED = Laplacian(np.array([[1.0, -2.0], [-1.0, 2.0]]))


def balanced_process(horizon=10.0, n=3, seed=1):
    return random_process(n, "switching-complete", dwell=0.5, horizon=horizon, seed=seed)


def ring_process(horizon=10.0, n=5, seed=2):
    return random_process(n, "directed-ring-rotate", dwell=0.5, horizon=horizon, seed=seed)


def piece_at(process, t):
    """The Laplacian active at time t: the last piece starting at or before t."""
    return process.matrices[np.searchsorted(process.start_times, t, side="right") - 1]


def field(sys_, t, state, u):
    """The vector field at time t, as x and the aux blocks: the active piece's
    coupling on the flat state, plus the input u on the x rows."""
    out = sys_.coupling_matrix(piece_at(sys_.process, t)) @ state
    out[: sys_.n * sys_.d] += np.asarray(u, dtype=float).ravel()
    return sys_.split(out)


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

    def test_malformed_states_rejected(self):
        sys_ = push_sum_system(constant_process(DIRECTED, 5.0))
        with pytest.raises(InvalidInputError, match="x must be 2x1"):
            sys_.initial_state(np.zeros((3, 1)))
        with pytest.raises(InvalidInputError, match="aux block 'w' must have shape"):
            sys_.initial_state(np.zeros((2, 1)), w=np.ones(3))
        with pytest.raises(InvalidInputError, match="has 4 entries"):
            sys_.check_initial(np.ones(3))

    def test_initial_state_split_round_trip(self):
        sys_ = spps_system(constant_process(DIRECTED, 5.0), a=5.0)
        state = sys_.initial_state(
            np.array([[1.0], [2.0]]), z=np.array([0.5, -0.5]), v=np.ones(2)
        )
        x, aux = sys_.split(state)
        assert np.array_equal(x, [[1.0], [2.0]])
        assert np.array_equal(aux["z"], [0.5, -0.5])
        assert np.array_equal(aux["v"], np.ones(2))


class TestVectorFields:
    def test_averaging_consensus_is_stationary(self):
        sys_ = averaging_system(constant_process(TWO_NODE, 5.0))
        state = sys_.initial_state(np.full((2, 1), 3.7))
        dx, _ = field(sys_, 0.0, state, np.zeros((2, 1)))
        assert np.array_equal(dx, np.zeros((2, 1)))

    def test_averaging_disagreement_direction(self):
        sys_ = averaging_system(constant_process(TWO_NODE, 5.0))
        state = sys_.initial_state(np.array([[1.0], [-1.0]]))
        dx, _ = field(sys_, 0.0, state, np.zeros((2, 1)))
        # eigenvector with eigenvalue 2 of L: dx = -2 x
        assert np.allclose(dx, -2.0 * sys_.split(state)[0])

    def test_saddle_consensus_stationary(self):
        with pytest.warns(UserWarning):
            sys_ = saddle_point_system(constant_process(TWO_NODE, 5.0), a=3.0)
        state = sys_.initial_state(np.full((2, 1), 1.5), w=np.full((2, 1), -0.3))
        dx, daux = field(sys_, 0.0, state, np.zeros((2, 1)))
        assert np.array_equal(dx, np.zeros((2, 1)))
        assert np.array_equal(daux["w"], np.zeros((2, 1)))

    def test_spps_weight_sum_derivative_zero(self):
        sys_ = spps_system(constant_process(DIRECTED, 5.0), a=5.0)
        state = sys_.initial_state(np.array([[2.0], [0.5]]))
        _, daux = field(sys_, 0.0, state, np.zeros((2, 1)))
        assert daux["v"].sum() == pytest.approx(0.0, abs=1e-15)

    def test_push_sum_output_is_ratio(self):
        sys_ = push_sum_system(constant_process(DIRECTED, 5.0))
        state = sys_.initial_state(np.array([[2.0], [3.0]]), w=np.array([0.5, 1.5]))
        y = sys_.output_flat(state)
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
            lap = piece_at(proc, t)
            state = sys_.initial_state(rng.uniform(-1, 1, (5, 1)))
            base_x, base_aux = field(sys_, t, state, law(t, sys_.output_flat(state)))
            zeros = np.argwhere(lap == 0.0)
            pairs = [(i, j) for i, j in zeros if i != j]
            assert pairs, "test process should have missing edges"
            for i, j in pairs[:6]:
                pert = state.copy()
                x2, aux2 = sys_.split(pert)
                x2[j] += 17.3
                for blk in aux2.values():
                    blk[j] += 5.1
                pert_x, pert_aux = field(sys_, t, pert, law(t, sys_.output_flat(pert)))
                assert np.array_equal(base_x[i], pert_x[i])
                for k in base_aux:
                    assert np.array_equal(
                        np.atleast_1d(base_aux[k])[i], np.atleast_1d(pert_aux[k])[i]
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
        fam = mirror_pair(box=Box([-2.0], [2.0]))
        cap = gradient_bound(fam)
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
        scale, offset, schedule, center, radius = law.rowwise_affine()
        assert np.allclose(scale, [-1.0, -1.0])
        assert np.allclose(offset, [[1.0], [-1.0]])
        assert schedule is sched
        # a quadratic agent is affine everywhere
        assert np.array_equal(center, [[1.0], [-1.0]])
        assert np.isinf(radius).all()

    def test_affine_for_any_schedule(self):
        sched = power_law()
        law = gradient_feedback(mirror_pair(), sched)
        scale, offset, schedule, _, _ = law.rowwise_affine()
        assert schedule is sched
        rng = np.random.default_rng(3)
        for t in rng.uniform(0, 20, 10):
            y = rng.uniform(-2, 2, (2, 1))
            assert np.allclose(law(t, y), sched(t) * (scale[:, None] * y + offset), atol=1e-15)

    def test_no_affine_for_logistic(self):
        fam = logistic_scalar([1.0, -1.0], [0.0, 0.0])
        assert gradient_feedback(fam, constant(0.5)).rowwise_affine() is None

    @pytest.mark.parametrize("d", [1, 2])
    def test_huber_is_affine_within_its_radius(self, d):
        sched = power_law()
        rng = np.random.default_rng(5)
        centers = rng.uniform(-1, 1, (3, d))
        law = gradient_feedback(huberized_quadratic(centers, radius=0.7, curvature=1.5), sched)
        scale, offset, schedule, center, radius = law.rowwise_affine()
        assert schedule is sched
        assert np.array_equal(center, centers) and np.array_equal(radius, [0.7] * 3)
        for t in rng.uniform(0, 20, 10):
            direction = rng.normal(size=(3, d))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            inside = centers + rng.uniform(0, 0.7, (3, 1)) * direction
            affine = sched(t) * (scale[:, None] * inside + offset)
            assert np.allclose(law(t, inside), affine, atol=1e-15)
            # beyond the radius the gradient saturates, so the form fails
            outside = centers + 1.4 * direction
            assert not np.allclose(law(t, outside), sched(t) * (scale[:, None] * outside + offset))

    def test_zero_control_is_affine_everywhere(self):
        scale, offset, _, _, radius = ZeroControl(3, 2).rowwise_affine()
        assert not scale.any() and not offset.any() and np.isinf(radius).all()
