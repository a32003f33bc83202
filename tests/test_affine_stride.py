"""The affine-map path advances one record interval per cached power.

`per_step_affine` is the former affine loop, one RK4 map per step, kept
as an oracle. The strided path must agree with it within 1e-12, bit for
bit when every step is recorded, and must abort at the same record time
when an output leaves the validity box.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtracker_lab.dynamics import (
    ZeroControl,
    averaging_system,
    gradient_feedback,
    make_system,
)
from flowtracker_lab.errors import NumericalFailureError
from flowtracker_lab.graphnet import Laplacian, constant_process, random_process
from flowtracker_lab.objectives import Box, custom_table, mirror_pair
from flowtracker_lab.schedules import constant
from flowtracker_lab.simulate import _affine_step_map, integrate

H = 0.01


def per_step_affine(system, law, init, t_end, h, record_every):
    """Records (times, states, y, u) of one affine map per RK4 step."""
    law = law if law is not None else ZeroControl(system.n, system.d)
    coeffs = law.rowwise_affine()
    box = getattr(getattr(law, "family", None), "validity_box", None)
    per_record = round(record_every / h)
    n_steps = round(t_end / h)
    vec = system.pack(init)
    out = ([], [], [], [])

    def record(step):
        t = step * h
        if not np.isfinite(vec).all():
            raise NumericalFailureError("state became non-finite", t)
        y = system.output_flat(vec)
        for rows, value in zip(out, (t, vec, y, law(t, y))):
            rows.append(value)
        if box is not None and not ((y >= box.lo) & (y <= box.hi)).all():
            raise NumericalFailureError("output left the declared gradient-validity box", t)

    record(0)
    starts = [round(t / h) for t in system.process.start_times]
    bounds = [b for b in starts if b < n_steps] + [n_steps]
    step = 0
    for k in range(len(bounds) - 1):
        lap = system.process.laplacians[k].matrix
        mat, off = _affine_step_map(system, system.coupling_matrix(lap), coeffs, h)
        while step < bounds[k + 1]:
            vec = mat @ vec + off
            step += 1
            if step % per_record == 0:
                record(step)
    return tuple(np.array(rows) for rows in out)


@st.composite
def affine_runs(draw):
    """A multi-piece affine run whose dwell is off the record grid."""
    name = draw(st.sampled_from(("averaging", "saddle-point")))
    n = draw(st.integers(2, 5))
    d = draw(st.sampled_from((1, 2)))
    per_record = draw(st.sampled_from((1, 2, 3, 5, 7)))
    dwell_steps = draw(st.integers(2, 30))
    if per_record > 1 and dwell_steps % per_record == 0:
        dwell_steps += 1
    t_end = per_record * draw(st.integers(2, 40)) * H
    seed = draw(st.integers(0, 2**31 - 1))
    process = random_process(
        n, "switching-complete", dwell=dwell_steps * H, horizon=t_end + 1.0, seed=seed, h=H
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = make_system(name, process, d=d, a=draw(st.floats(0.5, 5.0)))
    rng = np.random.default_rng(seed)
    law = None
    if draw(st.booleans()):
        entries = [
            {"center": rng.uniform(-1, 1, d).tolist(), "curvature": rng.uniform(0.2, 2.0)}
            for _ in range(n)
        ]
        law = gradient_feedback(custom_table(entries), constant(rng.uniform(0.1, 1.0)))
    init = system.initial_state(rng.uniform(-1, 1, (n, d)))
    return system, law, init, t_end, per_record * H


@settings(max_examples=60, deadline=None)
@given(affine_runs())
def test_strided_affine_path_matches_per_step_oracle(run):
    system, law, init, t_end, record_every = run
    traj = integrate(system, law, init, t_end=t_end, h=H, record_every=record_every)
    times, states, y, u = per_step_affine(system, law, init, t_end, H, record_every)
    x, aux = system.split(states)
    got = [traj.x, traj.y, traj.u] + [traj.aux[key] for key in aux]
    expect = [x, y, u] + list(aux.values())
    assert traj.n_samples == times.shape[0]
    if round(record_every / H) == 1:
        assert all(np.array_equal(g, e) for g, e in zip(got, expect))
    else:
        assert max(np.abs(g - e).max() for g, e in zip(got, expect)) <= 1e-12


@pytest.mark.parametrize("record_every", [0.001, 0.01, 0.1])
def test_box_violation_at_the_oracle_record_time(record_every):
    # the loop settles at +-0.2, so it leaves [-0.1, 0.1] on the way
    box = Box(np.array([-0.1]), np.array([0.1]))
    system = averaging_system(
        constant_process(Laplacian(np.array([[1.0, -1.0], [-1.0, 1.0]])), 50.0)
    )
    law = gradient_feedback(mirror_pair(box=box), constant(0.5))
    init = system.initial_state(np.zeros((2, 1)))
    with pytest.raises(NumericalFailureError) as oracle:
        per_step_affine(system, law, init, 10.0, 1e-3, record_every)
    with pytest.raises(NumericalFailureError) as got:
        integrate(system, law, init, t_end=10.0, h=1e-3, record_every=record_every)
    assert 0.0 < got.value.time < 10.0
    assert got.value.time == oracle.value.time
