import numpy as np
import pytest

from flowtracker_lab.errors import CapabilityError, InvalidInputError
from flowtracker_lab.objectives import (
    FAMILIES,
    Box,
    custom_table,
    family_from_dict,
    global_gradient,
    global_objective,
    gradient_bound,
    huberized_quadratic,
    logistic_scalar,
    mirror_pair,
    optimizer_oracle,
)


def all_families():
    rng = np.random.default_rng(42)
    return [
        mirror_pair(),
        huberized_quadratic(rng.uniform(-1, 1, (4, 2)), radius=1.5, curvature=2.0),
        logistic_scalar([1, -1, 1, -1], [0.3, -0.2, 1.0, 0.5]),
        custom_table(
            [
                {"form": "quadratic", "center": [0.5], "curvature": 1.0},
                {"form": "huber", "center": [-0.5], "curvature": 2.0, "radius": 1.0},
            ],
            box=Box([-3.0], [3.0]),
        ),
    ]


def family_dicts():
    """The dict that family_from_dict reads for each of all_families(), in order."""
    centers = np.random.default_rng(42).uniform(-1, 1, (4, 2)).tolist()
    return [
        {"kind": "mirror-pair"},
        {
            "kind": "huberized-quadratic",
            "params": {"centers": centers, "radius": 1.5, "curvature": 2.0},
        },
        {
            "kind": "logistic-scalar",
            "params": {"signs": [1, -1, 1, -1], "offsets": [0.3, -0.2, 1.0, 0.5]},
        },
        {
            "kind": "custom-table",
            "params": {
                "entries": [
                    {"form": "quadratic", "center": [0.5], "curvature": 1.0},
                    {"form": "huber", "center": [-0.5], "curvature": 2.0, "radius": 1.0},
                ]
            },
            "box": [[-3.0], [3.0]],
        },
    ]


def values_at(fam, x):
    """Each agent's objective at the common point x."""
    return fam.form.values(np.asarray(x, dtype=float).reshape(1, fam.d))[0]


def grads_at(fam, x):
    """Each agent's gradient at the common point x, one row per agent."""
    return fam.form.grad(np.broadcast_to(np.asarray(x, dtype=float), (fam.n, fam.d)))


def sample_point(fam, rng):
    if fam.validity_box is not None:
        return rng.uniform(fam.validity_box.lo, fam.validity_box.hi)
    return rng.uniform(-2, 2, fam.d)


class TestGlobalObjective:
    def test_mirror_pair_at_origin(self):
        assert global_objective(mirror_pair(), 0.0) == pytest.approx(1.0)

    def test_mirror_pair_at_one(self):
        assert global_objective(mirror_pair(), 1.0) == pytest.approx(2.0)

    def test_shared_quadratic_minimum(self):
        fam = custom_table(
            [{"form": "quadratic", "center": [0.0, 0.0]} for _ in range(3)]
        )
        assert global_objective(fam, [0.0, 0.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            global_objective(mirror_pair(), [0.0, 1.0])


class TestStackedGradient:
    def test_mirror_pair_at_zero_rows(self):
        g = mirror_pair().form.grad(np.zeros((2, 1)))
        assert np.allclose(g, [[-1.0], [1.0]])

    def test_zero_at_shared_minimizer(self):
        c = np.array([0.3, -0.7])
        fam = custom_table([{"form": "quadratic", "center": c.tolist()}] * 3)
        pts = np.tile(c, (3, 1))
        assert np.allclose(fam.form.grad(pts), 0.0)

    def test_huber_clamps_at_cap(self):
        fam = huberized_quadratic(np.zeros((3, 2)), radius=0.5, curvature=2.0)
        far = np.full((3, 2), 10.0)
        g = fam.form.grad(far)
        norms = np.linalg.norm(g, axis=1)
        assert np.allclose(norms, 1.0)  # curvature * radius

    @pytest.mark.parametrize("fam", all_families(), ids=lambda f: f.kind)
    def test_matches_finite_differences(self, fam):
        rng = np.random.default_rng(7)
        eps = 1e-6
        for _ in range(100):
            pts = np.vstack([sample_point(fam, rng) for _ in range(fam.n)])
            grad = fam.form.grad(pts)
            for i in range(fam.n):
                for k in range(fam.d):
                    hi = pts[i].copy()
                    lo = pts[i].copy()
                    hi[k] += eps
                    lo[k] -= eps
                    fd = (values_at(fam, hi)[i] - values_at(fam, lo)[i]) / (2 * eps)
                    scale = max(1.0, abs(grad[i, k]))
                    assert abs(fd - grad[i, k]) <= 1e-6 * scale


class TestConvexityProperties:
    @pytest.mark.parametrize("fam", all_families(), ids=lambda f: f.kind)
    def test_midpoint_convexity(self, fam):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = sample_point(fam, rng)
            b = sample_point(fam, rng)
            for i in range(fam.n):
                mid = values_at(fam, 0.5 * (a + b))[i]
                assert mid <= 0.5 * values_at(fam, a)[i] + 0.5 * values_at(fam, b)[i] + 1e-12

    @pytest.mark.parametrize("fam", all_families(), ids=lambda f: f.kind)
    def test_first_order_lower_bound(self, fam):
        rng = np.random.default_rng(13)
        for _ in range(50):
            y = sample_point(fam, rng)
            z = sample_point(fam, rng)
            for i in range(fam.n):
                lower = values_at(fam, y)[i] + float(grads_at(fam, y)[i] @ (z - y))
                assert lower <= values_at(fam, z)[i] + 1e-10

    @pytest.mark.parametrize("fam", all_families(), ids=lambda f: f.kind)
    def test_values_lipschitz_with_gradient_bound(self, fam):
        rng = np.random.default_rng(17)
        box = fam.validity_box or Box(np.full(fam.d, -2.0), np.full(fam.d, 2.0))
        cap = gradient_bound(fam)
        for _ in range(50):
            a = rng.uniform(box.lo, box.hi)
            b = rng.uniform(box.lo, box.hi)
            for i in range(fam.n):
                diff = abs(values_at(fam, a)[i] - values_at(fam, b)[i])
                assert diff <= cap * np.linalg.norm(a - b) + 1e-10


class TestOptimizerOracle:
    def test_mirror_pair_closed_form(self):
        x_star, f_star = optimizer_oracle(mirror_pair())
        assert np.allclose(x_star, 0.0)
        assert f_star == pytest.approx(1.0)

    def test_shared_center_quadratics(self):
        c = [0.7, -0.3]
        fam = custom_table([{"form": "quadratic", "center": c}] * 4)
        x_star, f_star = optimizer_oracle(fam)
        assert np.allclose(x_star, c, atol=1e-10)
        assert f_star == pytest.approx(0.0, abs=1e-18)

    def test_quadratic_table_matches_weighted_mean(self):
        entries = [
            {"form": "quadratic", "center": [1.0], "curvature": 1.0},
            {"form": "quadratic", "center": [-2.0], "curvature": 3.0},
        ]
        fam = custom_table(entries)
        x_star, _ = optimizer_oracle(fam)
        # stationarity: sum c_i (x - ctr_i) = 0 -> x = (1*1 + 3*(-2)) / 4
        assert np.allclose(x_star, -1.25, atol=1e-10)

    def test_huberized_distinct_centers_certificate(self):
        rng = np.random.default_rng(23)
        fam = huberized_quadratic(rng.uniform(-1, 1, (5, 1)), radius=2.0)
        x_star, f_star = optimizer_oracle(fam)
        assert np.linalg.norm(global_gradient(fam, x_star)) < 1e-10
        # centers all within the huber radius of the mean: plain average
        centers = fam.form.centers
        assert np.allclose(x_star, centers.mean(axis=0), atol=1e-9)

    def test_logistic_mixture_stationary(self):
        fam = logistic_scalar([1, -1], [0.0, 1.0])
        x_star, _ = optimizer_oracle(fam)
        assert np.linalg.norm(global_gradient(fam, x_star)) < 1e-10


class TestGradientBound:
    def test_logistic_cap_is_one(self):
        fam = logistic_scalar([1, -1], [0.0, 0.0])
        assert gradient_bound(fam) == 1.0

    def test_huber_cap(self):
        fam = huberized_quadratic(np.zeros((2, 1)), radius=0.7, curvature=1.0)
        assert gradient_bound(fam) == pytest.approx(0.7)

    def test_mirror_pair_on_box(self):
        fam = mirror_pair(box=Box([-2.0], [2.0]))
        assert gradient_bound(fam) == pytest.approx(3.0)

    def test_quadratic_without_box_rejected(self):
        fam = custom_table([{"form": "quadratic", "center": [0.0]}])
        with pytest.raises(CapabilityError):
            gradient_bound(fam)

    def test_caps_hold_at_random_points(self):
        rng = np.random.default_rng(29)
        for fam in all_families():
            box = fam.validity_box or Box(np.full(fam.d, -2.0), np.full(fam.d, 2.0))
            cap = gradient_bound(fam)
            for _ in range(50):
                x = rng.uniform(box.lo, box.hi)
                for i in range(fam.n):
                    assert np.linalg.norm(grads_at(fam, x)[i]) <= cap + 1e-12


class TestSerialization:
    @pytest.mark.parametrize(
        "fam, data", zip(all_families(), family_dicts()), ids=[f.kind for f in all_families()]
    )
    def test_round_trip(self, fam, data):
        back = family_from_dict(data)
        assert back.kind == fam.kind
        assert type(back.form) is type(fam.form)
        for name, value in vars(fam.form).items():
            assert np.array_equal(vars(back.form)[name], value), name
        if fam.validity_box is None:
            assert back.validity_box is None
        else:
            assert back.validity_box.to_list() == fam.validity_box.to_list()
        assert back.n == fam.n and back.d == fam.d
        rng = np.random.default_rng(31)
        for _ in range(10):
            pts = np.vstack([sample_point(fam, rng) for _ in range(fam.n)])
            assert np.allclose(fam.form.grad(pts), back.form.grad(pts))

    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    def test_declared_box_is_kept_for_every_kind(self, kind):
        data = next(f for f in family_dicts() if f["kind"] == kind)
        d = family_from_dict(data).d
        data = {**data, "box": [[-5.0] * d, [5.0] * d]}
        back = family_from_dict(data)
        assert back.kind == kind
        assert back.validity_box.to_list() == data["box"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            family_from_dict({"kind": "mystery", "n": 1, "d": 1, "params": {}})


class TestConstructorsValidate:
    def test_logistic_needs_both_signs(self):
        with pytest.raises(InvalidInputError):
            logistic_scalar([1, 1], [0.0, 0.0])

    def test_huber_needs_positive_radius(self):
        with pytest.raises(InvalidInputError):
            huberized_quadratic(np.zeros((2, 1)), radius=0.0)

    def test_empty_table_rejected(self):
        with pytest.raises(InvalidInputError):
            custom_table([])

    def test_table_center_must_be_a_point(self):
        with pytest.raises(InvalidInputError, match=r"shape \(1, 1\)"):
            custom_table([{"center": [[0.2]]}, {"center": [0.1]}])


def test_logistic_gradient_at_a_vast_offset_does_not_overflow():
    # exp(-z) overflows for z = -1e300; the gradient saturates at 0 instead
    fam = logistic_scalar([1.0, -1.0], [1e300, 0.0])
    assert global_gradient(fam, np.zeros(1)).tolist() == [-0.5]
