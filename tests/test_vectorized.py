"""Array-at-once replacements against the per-sample loops they replaced.

The loop versions live here as references: per-sample objective values,
per-time step sizes, per-agent gradients and the per-value CSV writer.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtracker_lab.diagnostics import objective_series
from flowtracker_lab.dynamics import make_system
from flowtracker_lab.errors import InvalidInputError
from flowtracker_lab.graphnet import random_process
from flowtracker_lab.objectives import (
    Box,
    custom_table,
    global_objective,
    gradient_map,
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
    ]


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


@pytest.mark.parametrize("fam", families(), ids=lambda f: f"{f.kind}-d{f.d}")
def test_objective_series_matches_per_sample_loop(fam):
    traj = random_trajectory(np.random.default_rng(1), fam.n, fam.d, 400)
    loop = np.array([global_objective(fam, traj.xbar[k]) for k in range(traj.n_samples)])
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


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 4),
    st.lists(st.floats(-4.0, 4.0), min_size=10, max_size=10),
)
def test_gradient_map_matches_per_agent_gradients(index, coords):
    fam = families()[index]
    pts = np.resize(np.array(coords), (fam.n, fam.d))
    if hasattr(fam.agents[0], "center"):
        pts[0] = fam.agents[0].center  # zero distance to the center
    loop = np.vstack([fam.agents[i].grad(pts[i]) for i in range(fam.n)])
    assert np.abs(gradient_map(fam)(pts) - loop).max() <= 1e-12


def per_value_csv(traj, path):
    """The writer that formatted one value at a time."""

    def fmt(v: float) -> str:
        return f"{v:.17g}"

    with open(path, "w") as fh:
        fh.write(",".join(traj._csv_header()) + "\n")
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
    traj = random_trajectory(rng, 2, 1, 6, aux_layout=(("w", (2,)),))
    specials = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 0.1, -1 / 3]
    traj.x.ravel()[: len(specials)] = specials
    traj.aux["w"].ravel()[:4] = specials[:4]
    traj.write_csv(tmp_path / "new.csv")
    per_value_csv(traj, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
