"""The block-coupling system model against hand-written vector fields.

Every system is one coupling matrix over its state blocks. The oracles
below write the four vector fields, and the two closed-loop affine maps,
out by hand as separate code, so the generic model is checked against
an independent statement of each system.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtracker_lab import dynamics
from flowtracker_lab.dynamics import SystemState, gradient_feedback, make_system
from flowtracker_lab.flowcore import rk4_maps
from flowtracker_lab.graphnet import process_from_dict, random_process
from flowtracker_lab.objectives import huberized_quadratic
from flowtracker_lab.schedules import power_law
from flowtracker_lab.simulate import integrate

SYSTEMS = ("averaging", "push-sum", "saddle-point", "spps")
RATIO_BLOCK = {"push-sum": "w", "spps": "v"}


def oracle_deriv(name, a, n, d, lap, vec, u):
    nd = n * d
    if name == "averaging":
        return (u - lap @ vec.reshape(n, d)).ravel()
    if name == "push-sum":
        x = vec[:nd].reshape(n, d)
        return np.concatenate(((u - lap @ x).ravel(), -(lap @ vec[nd:])))
    if name == "saddle-point":
        x = vec[:nd].reshape(n, d)
        w = vec[nd:].reshape(n, d)
        lx = lap @ x
        return np.concatenate(((u - a * lx - lap @ w).ravel(), lx.ravel()))
    x, z, v = vec[:n], vec[n : 2 * n], vec[2 * n :]
    lx = lap @ x
    return np.concatenate((u[:, 0] - a * lx - lap @ z, lx, -(lap @ v)))


def oracle_output(name, n, d, vec):
    if name == "push-sum":
        return vec[: n * d].reshape(n, d) / vec[n * d :][:, None]
    if name == "spps":
        return (vec[:n] / vec[2 * n :])[:, None]
    return vec[: n * d].reshape(n, d)


def oracle_closed_loop(name, a, d, lap, row_scale, row_offset):
    big_l = np.kron(lap, np.eye(d))
    nd = big_l.shape[0]
    if name == "averaging":
        return -big_l + np.diag(np.repeat(row_scale, d)), row_offset.ravel().copy()
    m = np.zeros((2 * nd, 2 * nd))
    m[:nd, :nd] = -a * big_l + np.diag(np.repeat(row_scale, d))
    m[:nd, nd:] = -big_l
    m[nd:, :nd] = big_l
    c = np.zeros(2 * nd)
    c[:nd] = row_offset.ravel()
    return m, c


def oracle_step_map(m, c, h):
    """(R, r) of the RK4 step x -> R x + r of dx/dt = m x + c. With
    F = [[m, c], [0, 0]] on (x, 1), the stage k_i is the matrix that sends
    (x, 1) to the i-th RK4 slope: k_1 = F, k_2 = F (I + h/2 k_1),
    k_3 = F (I + h/2 k_2), k_4 = F (I + h k_3)."""
    size = m.shape[0]
    field = np.zeros((size + 1, size + 1))
    field[:size, :size] = m
    field[:size, size] = c
    eye = np.eye(size + 1)
    k1 = field
    k2 = field @ (eye + (0.5 * h) * k1)
    k3 = field @ (eye + (0.5 * h) * k2)
    k4 = field @ (eye + h * k3)
    step = eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return step[:size, :size], step[:size, size]


@st.composite
def systems(draw, names=SYSTEMS):
    name = draw(st.sampled_from(names))
    n = draw(st.integers(2, 6))
    d = 1 if name == "spps" else draw(st.sampled_from((1, 2)))
    if name in ("averaging", "saddle-point"):
        model = "switching-complete"
    else:
        model = draw(st.sampled_from(("switching-complete", "directed-ring-rotate")))
    seed = draw(st.integers(0, 2**31 - 1))
    a = draw(st.floats(0.5, 20.0))
    process = random_process(n, model, dwell=0.5, horizon=4.0, seed=seed, h=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = make_system(name, process, d=d, a=a)
    return system, a, np.random.default_rng(seed)


def random_state(system, rng):
    aux = {}
    for name, shape in system.aux_layout:
        lo = 0.5 if name == system.ratio else -1.0
        aux[name] = rng.uniform(lo, 1.5, shape)
    return SystemState(rng.uniform(-1, 1, (system.n, system.d)), aux)


@settings(max_examples=80, deadline=None)
@given(systems(), st.floats(0.0, 3.99))
def test_deriv_state_matches_hand_written_field(case, t):
    system, a, rng = case
    n, d = system.n, system.d
    state = random_state(system, rng)
    u = rng.uniform(-1, 1, (n, d))
    lap = system.process.at(t).matrix
    vec = system.pack(state)
    got = system.pack(system.deriv_state(t, state, u))
    expect = oracle_deriv(system.name, a, n, d, lap, vec, u)
    assert np.abs(got - expect).max() <= 1e-12
    assert np.abs(system.output_state(t, state) - oracle_output(system.name, n, d, vec)).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(systems(names=("push-sum", "spps")))
def test_ratio_weight_sums_are_conserved(case):
    system, _, rng = case
    fam = huberized_quadratic(rng.uniform(-1, 1, (system.n, system.d)), radius=2.0)
    law = gradient_feedback(fam, power_law(1.0, 1.0))
    init = system.initial_state(rng.uniform(-1, 1, (system.n, system.d)))
    traj = integrate(system, law, init, t_end=2.0, h=0.01)
    sums = traj.aux[system.ratio].sum(axis=1)
    assert np.abs(sums - system.n).max() <= 1e-10
    state = random_state(system, rng)
    deriv = system.deriv_state(1.0, state, rng.uniform(-1, 1, (system.n, system.d)))
    assert abs(deriv.aux[system.ratio].sum()) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(systems(names=("averaging", "saddle-point")), st.floats(0.0, 3.99))
def test_affine_step_map_is_bit_identical_to_hand_written_loop(case, t):
    system, a, rng = case
    n, d = system.n, system.d
    lap = system.process.at(t).matrix
    row_scale = -rng.uniform(0.1, 1.0, n)
    row_offset = rng.uniform(-1, 1, (n, d))
    h = 0.01
    # the affine path's field: the coupling plus the law's forcing on (state, 1)
    nd = n * d
    field = np.zeros((system.state_size + 1, system.state_size + 1))
    field[:-1, :-1] = system.coupling_matrix(lap)
    forcing = np.zeros_like(field)
    forcing[:nd, :nd] = np.diag(np.repeat(row_scale, d))
    forcing[:nd, -1] = row_offset.ravel()
    field = field + forcing
    step = rk4_maps(field, field, field, h)
    step_mat, step_off = step[:-1, :-1], step[:-1, -1]
    assert np.array_equal(step[-1], np.eye(system.state_size + 1)[-1])
    m, c = oracle_closed_loop(system.name, a, d, lap, row_scale, row_offset)
    expect_mat, expect_off = oracle_step_map(m, c, h)
    assert np.array_equal(step_mat, expect_mat)
    assert np.array_equal(step_off, expect_off)


@st.composite
def table_rows(draw):
    """A row of dynamics.SYSTEMS on a random one-piece process, weight-balanced
    (a positive sum of permutations) where the row needs it."""
    name = draw(st.sampled_from(dynamics.SYSTEM_NAMES))
    row = dynamics.SYSTEMS[name]
    n = draw(st.integers(2, 6))
    d = 1 if row.scalar else draw(st.sampled_from((1, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if row.balance is None:
        weights = rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.6)
    else:
        weights = sum(c * np.eye(n)[rng.permutation(n)] for c in rng.uniform(0.1, 2.0, 3))
    np.fill_diagonal(weights, 0.0)
    process = process_from_dict(
        {"n": n, "pieces": [{"t": 0.0, "weights": weights.tolist()}], "horizon": 1.0}
    )
    assert row.balance is None or process.is_weight_balanced()
    a = draw(st.floats(0.1, 20.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = make_system(name, process, d=d, a=a)
    return system, row, rng


@settings(max_examples=80, deadline=None)
@given(table_rows())
def test_every_row_tracks_the_input_sum(case):
    """1^T L = 0 for every piece, so under any coupling K the x block's agent
    sum moves by sum_i u_i (d/dt xbar = c1 sum_i u_i) and each aux block's
    agent sum stays put; a ratio block couples only to itself, with -1."""
    system, row, rng = case
    n, d = system.n, system.d
    state = random_state(system, rng)
    u = rng.uniform(-1, 1, (n, d))
    deriv = system.deriv_state(0.5, state, u)
    assert system.c1 == 1.0 / n
    assert np.abs(deriv.x.sum(axis=0) - u.sum(axis=0)).max() <= 1e-12
    for name, _ in system.aux_layout:
        assert np.abs(deriv.aux[name].sum(axis=0)).max() <= 1e-12
    if row.ratio is not None:
        r = 1 + [name for name, _ in row.aux].index(row.ratio)
        alone = np.zeros_like(system.coupling)
        alone[r, r] = -1.0
        assert np.array_equal(system.coupling[r], alone[r])
        assert np.array_equal(system.coupling[:, r], alone[:, r])
