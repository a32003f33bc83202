"""Array-at-once replacements against the per-sample loops they replaced.

The loop versions live here as references: per-agent objective closed
forms evaluated per sample and per agent, per-time step sizes and the
per-value CSV writer.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from flowtracker_lab.diagnostics import objective_series
from flowtracker_lab.dynamics import gradient_feedback, make_system
from flowtracker_lab.errors import InvalidInputError
from flowtracker_lab.graphnet import random_process
from flowtracker_lab.objectives import (
    Box,
    HuberForm,
    custom_table,
    huberized_quadratic,
    logistic_scalar,
    mirror_pair,
)
from flowtracker_lab.schedules import (
    constant,
    custom_piecewise,
    evaluate,
    evaluate_many,
    power_law,
)
from flowtracker_lab.simulate import Trajectory, integrate


def families():
    rng = np.random.default_rng(5)
    # eight agents, quadratic and huber rows alternating
    draw = np.random.default_rng(8)
    mixed = [
        {"form": "quadratic", "center": draw.uniform(-1, 1, 2).tolist(), "curvature": k}
        for k in draw.uniform(0.3, 3.0, 8)
    ]
    for entry, radius in zip(mixed[1::2], draw.uniform(0.1, 0.8, 4)):
        entry.update(form="huber", radius=radius)
    return [
        mirror_pair(),
        huberized_quadratic(rng.uniform(-1, 1, (5, 1)), radius=0.4, curvature=1.5),
        huberized_quadratic(rng.uniform(-1, 1, (4, 2)), radius=0.7, curvature=2.0),
        logistic_scalar([1, -1, 1, -1], [0.3, -0.2, 1.0, 0.5]),
        custom_table(
            [
                {"form": "quadratic", "center": [0.5, 0.1], "curvature": 1.0},
                {"form": "huber", "center": [-0.5, 0.2], "curvature": 2.0, "radius": 0.3},
            ],
            box=Box([-3.0, -3.0], [3.0, 3.0]),
        ),
        custom_table(mixed, box=Box([-3.0, -3.0], [3.0, 3.0])),
    ]


def _quadratic(center, c):
    center = np.asarray(center, dtype=float)

    def value(x):
        r = x - center
        return 0.5 * c * float(r @ r)

    return value, lambda x: c * (x - center)


def _huber(center, c, radius):
    center = np.asarray(center, dtype=float)

    def value(x):
        r = float(np.linalg.norm(x - center))
        if r <= radius:
            return 0.5 * c * r * r
        return c * radius * r - 0.5 * c * radius**2

    def grad(x):
        delta = x - center
        r = float(np.linalg.norm(delta))
        return c * delta if r <= radius else c * radius * delta / r

    return value, grad


def _logistic(sign, offset):
    def value(x):
        z = sign * (float(x[0]) - offset)
        return math.log1p(math.exp(-abs(z))) + max(z, 0.0)

    return value, lambda x: np.array([sign * expit(sign * (float(x[0]) - offset))])


def reference_agents(fam):
    """(value, gradient) of each agent at one point, from its closed form
    and the parameters of its row of the family's form."""
    form = fam.form
    if fam.kind == "logistic-scalar":
        return [_logistic(s, b) for s, b in zip(form.signs, form.offsets)]
    return [
        _quadratic(center, c) if math.isinf(radius) else _huber(center, c, radius)
        for center, c, radius in zip(form.centers, form.curvature, form.radius)
    ]


def reference_gradients(fam, y):
    return np.vstack([grad(row) for (_, grad), row in zip(reference_agents(fam), y)])


def random_trajectory(rng, n, d, m, aux_layout=()):
    aux = {name: rng.normal(size=(m, *shape)) for name, shape in aux_layout}
    return Trajectory(
        times=np.arange(m) * 0.1,
        x=rng.normal(size=(m, n, d)),
        aux=aux,
        y=rng.normal(size=(m, n, d)),
        u=rng.normal(size=(m, n, d)),
        xbar=rng.uniform(-3, 3, (m, d)),
    )


# a quadratic row's unused linear branch is inf - inf, and must not warn
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fam", families(), ids=lambda f: f"{f.kind}-d{f.d}")
def test_objective_series_matches_per_sample_loop(fam):
    traj = random_trajectory(np.random.default_rng(1), fam.n, fam.d, 400)
    agents = reference_agents(fam)
    loop = np.array([sum(value(x) for value, _ in agents) for x in traj.xbar])
    assert np.abs(objective_series(traj, fam) - loop).max() <= 1e-12


@pytest.mark.parametrize(
    "schedule",
    [
        constant(0.5),
        power_law(1.0, 1.0),
        power_law(0.7, 0.6),
        custom_piecewise([0.0, 1.0, 2.5, 7.0], [1.0, 0.5, 0.25, 0.1]),
    ],
    ids=lambda s: s.kind,
)
def test_evaluate_many_matches_per_time_loop(schedule):
    times = np.concatenate((np.arange(1001) * 0.01, [1.0, 2.5, 7.0, 1e6]))
    loop = np.array([evaluate(schedule, float(t)) for t in times])
    assert np.abs(evaluate_many(schedule, times) - loop).max() <= 1e-12


def test_evaluate_many_rejects_negative_times():
    with pytest.raises(InvalidInputError):
        evaluate_many(power_law(), np.array([0.0, -0.1]))


# a row at its center (r = 0), quadratic or huber, must not warn
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, len(families()) - 1),
    st.lists(st.floats(-4.0, 4.0), min_size=16, max_size=16),
)
def test_gradient_map_matches_per_agent_gradients(index, coords):
    fam = families()[index]
    pts = np.resize(np.array(coords), (fam.n, fam.d))
    if isinstance(fam.form, HuberForm):
        pts[0] = fam.form.centers[0]  # zero distance to the center
    assert np.abs(fam.form.grad(pts) - reference_gradients(fam, pts)).max() <= 1e-12


def test_mixed_table_run_feeds_every_stage_the_reference_gradient():
    fam = families()[-1]
    schedule = power_law(0.8, 1.0)
    process = random_process(fam.n, "switching-complete", dwell=0.5, horizon=2.0, seed=3)
    system = make_system("averaging", process, d=fam.d, a=5.0)
    law = gradient_feedback(fam, schedule)
    stages = []

    def plain(t, y):
        # a plain function has no rowwise_affine, so it takes the generic path
        stages.append((t, y.copy(), law(t, y)))
        return stages[-1][2]

    init = system.initial_state(np.random.default_rng(6).uniform(-1, 1, (fam.n, fam.d)))
    traj = integrate(system, plain, init, t_end=2.0, h=0.01)
    assert traj.meta["path"] == "generic"
    huber = np.isfinite(fam.form.radius)
    reach = np.array([np.linalg.norm(y - fam.form.centers, axis=1) for _, y, _ in stages])
    # the huber rows are seen on both sides of their radius
    inside = reach[:, huber] <= fam.form.radius[huber]
    assert inside.any() and not inside.all()
    for t, y, u in stages:
        want = -evaluate(schedule, t) * reference_gradients(fam, y)
        assert np.abs(u - want).max() <= 1e-12


def per_value_csv(traj, path):
    """The writer that formatted one value at a time, with the header it
    built column group by column group."""

    def fmt(v: float) -> str:
        return f"{v:.17g}"

    n, d = traj.n, traj.d
    header = ["t"] + [f"x_{i + 1}" for i in range(n * d)]
    for name, arr in traj.aux.items():
        header += [f"{name}_{i + 1}" for i in range(int(np.prod(arr.shape[1:])))]
    header += [f"y_{i + 1}" for i in range(n * d)]
    header += [f"u_{i + 1}" for i in range(n * d)]
    header += [f"xbar_{i + 1}" for i in range(d)]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(traj.n_samples):
            row = [fmt(traj.times[k])]
            row += [fmt(v) for v in traj.x[k].ravel()]
            for arr in traj.aux.values():
                row += [fmt(v) for v in np.asarray(arr[k]).ravel()]
            row += [fmt(v) for v in traj.y[k].ravel()]
            row += [fmt(v) for v in traj.u[k].ravel()]
            row += [fmt(v) for v in traj.xbar[k].ravel()]
            fh.write(",".join(row) + "\n")


@pytest.mark.parametrize(
    "name,d", [("averaging", 2), ("push-sum", 2), ("saddle-point", 2), ("spps", 1)]
)
def test_write_csv_bytes_match_per_value_writer(tmp_path, name, d):
    process = random_process(3, "switching-complete", dwell=0.5, horizon=2.0, seed=3)
    system = make_system(name, process, d=d, a=5.0)
    init = system.initial_state(np.random.default_rng(2).uniform(-1, 1, (3, d)))
    traj = integrate(system, None, init, t_end=2.0, h=0.01)
    traj.write_csv(tmp_path / "new.csv")
    per_value_csv(traj, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_csv_bytes_match_on_special_values(tmp_path):
    rng = np.random.default_rng(4)
    # 3,001 rows of 10 columns span two stacks of rows
    traj = random_trajectory(rng, 2, 1, 3_001, aux_layout=(("w", (2,)),))
    specials = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 0.1, -1 / 3]
    traj.x.ravel()[: len(specials)] = specials
    traj.u.ravel()[-len(specials) :] = specials
    traj.aux["w"].ravel()[:4] = specials[:4]
    traj.write_csv(tmp_path / "new.csv")
    per_value_csv(traj, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
