"""The affine-map path advances by prefix products of the RK4 step maps.

`per_step_affine` is the former affine loop, one RK4 map per step of a
constant-step law, kept as an oracle. The strided path must agree with
it within 1e-12, bit for bit when every step is recorded, and must abort
at the oracle's time when an output leaves the validity box. Under any
other schedule, on every system, and for huber agents within their
radius the affine path must agree with the generic RK4 loop, reached
through a law with no affine form, within 1e-12, and raise what it
raises when it raises it; outside the radius it hands off to that loop.
On both paths an output that leaves the box between records aborts the
run at the first offending step. The affine path raises nothing itself:
it hands its first faulty step to the generic loop, which raises.
"""

import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtracker_lab import harness, simulate
from flowtracker_lab.dynamics import (
    SYSTEM_NAMES,
    SYSTEMS,
    GradientFeedback,
    ZeroControl,
    averaging_system,
    gradient_feedback,
    make_system,
)
from flowtracker_lab.errors import DegenerateWeightsError, NumericalFailureError
from flowtracker_lab.flowcore import rk4_maps
from flowtracker_lab.graphnet import (
    Laplacian,
    LaplacianProcess,
    constant_process,
    make_laplacian,
    random_process,
)
from flowtracker_lab.objectives import Box, custom_table, logistic_scalar, mirror_pair
from flowtracker_lab.schedules import constant, custom_piecewise, power_law
from flowtracker_lab.simulate import integrate

H = 0.01


def per_step_affine(system, law, init, t_end, h, record_every):
    """Records (times, states, y, u) of one affine map per RK4 step of a
    constant-step law, with finiteness and the box checked at every step."""
    law = law if law is not None else ZeroControl(system.n, system.d)
    scale, offset, schedule = law.rowwise_affine()[:3]
    nd = system.n * system.d
    box = getattr(getattr(law, "family", None), "validity_box", None)
    per_record = round(record_every / h)
    n_steps = round(t_end / h)
    vec = init
    out = ([], [], [], [])

    def record(step):
        t = step * h
        if not np.isfinite(vec).all():
            raise NumericalFailureError("state became non-finite", t)
        y = system.output_flat(vec)
        if box is not None and not ((y >= box.lo) & (y <= box.hi)).all():
            raise NumericalFailureError("output left the declared gradient-validity box", t)
        if step % per_record == 0:
            for rows, value in zip(out, (t, vec, y, law(t, y))):
                rows.append(value)

    record(0)
    starts = [round(t / h) for t in system.process.start_times]
    bounds = [b for b in starts if b < n_steps] + [n_steps]
    step = 0
    for k in range(len(bounds) - 1):
        lap = system.process.laplacians[k].matrix
        # dz/dt = F z on z = (state, 1), F = [[K(L) + diag(a0 scale), a0 offset], [0, 0]]
        field = np.zeros((system.state_size + 1, system.state_size + 1))
        field[:-1, :-1] = system.coupling_matrix(lap)
        field[:nd, :nd] += np.diag(np.repeat(schedule.a0 * scale, system.d))
        field[:nd, -1] = schedule.a0 * offset.ravel()
        step_map = rk4_maps(field, field, field, field, h)
        mat, off = step_map[:-1, :-1], step_map[:-1, -1]
        while step < bounds[k + 1]:
            vec = mat @ vec + off
            step += 1
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


@st.composite
def time_varying_runs(draw):
    """A multi-piece run of quadratic agents under a schedule that is not
    constant, with dwell off the record grid and breakpoints inside steps."""
    name = draw(st.sampled_from(("averaging", "saddle-point")))
    n = draw(st.integers(2, 5))
    d = draw(st.sampled_from((1, 2)))
    per_record = draw(st.sampled_from((1, 2, 3, 5, 7)))
    dwell_steps = draw(st.integers(2, 30))
    if per_record > 1 and dwell_steps % per_record == 0:
        dwell_steps += 1
    t_end = per_record * draw(st.integers(2, 40)) * H
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        schedule = power_law(rng.uniform(0.1, 1.0), rng.uniform(0.0, 2.0))
    else:
        # breakpoints anywhere, most of them inside a step
        starts = np.sort(rng.uniform(0.0, t_end, draw(st.integers(1, 6))))
        schedule = custom_piecewise([0.0, *starts], rng.uniform(0.05, 1.0, len(starts) + 1))
    process = random_process(
        n, "switching-complete", dwell=dwell_steps * H, horizon=t_end + 1.0, seed=seed, h=H
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = make_system(name, process, d=d, a=draw(st.floats(0.5, 5.0)))
    entries = [
        {"center": rng.uniform(-1, 1, d).tolist(), "curvature": rng.uniform(0.2, 2.0)}
        for _ in range(n)
    ]
    law = gradient_feedback(custom_table(entries), schedule)
    init = system.initial_state(rng.uniform(-1, 1, (n, d)))
    return system, law, init, t_end, per_record * H


@settings(max_examples=60, deadline=None)
@given(time_varying_runs())
def test_time_varying_affine_path_matches_generic_path(run):
    system, law, init, t_end, record_every = run
    traj = integrate(system, law, init, t_end=t_end, h=H, record_every=record_every)
    # a plain function has no rowwise_affine, so it takes the generic path
    ref = integrate(
        system, lambda t, y: law(t, y), init, t_end=t_end, h=H, record_every=record_every
    )
    assert traj.meta["path"] == "affine" and ref.meta["path"] == "generic"
    got = [traj.x, traj.y, traj.u] + [traj.aux[key] for key in ref.aux]
    expect = [ref.x, ref.y, ref.u] + list(ref.aux.values())
    assert max(np.abs(g - e).max() for g, e in zip(got, expect)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.one_of(affine_runs(), time_varying_runs()))
def test_stacks_of_a_few_steps_change_nothing(run):
    # a 300-byte budget holds at most 4 step maps, so record intervals
    # split into several chunks and blocks hold a chunk or two
    system, law, init, t_end, record_every = run
    ref = integrate(system, law, init, t_end=t_end, h=H, record_every=record_every)
    with mock.patch.object(simulate, "STACK_BYTES", 300):
        traj = integrate(system, law, init, t_end=t_end, h=H, record_every=record_every)
    got = [traj.x, traj.y, traj.u] + list(traj.aux.values())
    expect = [ref.x, ref.y, ref.u] + list(ref.aux.values())
    assert max(np.abs(g - e).max() for g, e in zip(got, expect)) <= 1e-12


def oscillating_law(form, schedule, box=None):
    """Gradient feedback of two mirrored agents, quadratic or logistic; a
    logistic law has no affine form, so it takes the generic path."""
    if form == "logistic":
        family = replace(logistic_scalar([1.0, -1.0], [1.0, -1.0]), validity_box=box)
    else:
        family = custom_table([{"center": [c]} for c in (1.0, -1.0)], box=box)
    return gradient_feedback(family, schedule)


@pytest.mark.parametrize(
    "form, schedule, path",
    [
        ("logistic", constant(0.5), "generic"),
        ("quadratic", constant(0.5), "affine"),
        ("quadratic", power_law(1.0, 1.0), "affine"),
    ],
)
def test_box_left_between_records_aborts_at_the_first_offending_step(form, schedule, path):
    # a saddle-point pair overshoots on its way to the optimum
    process = constant_process(Laplacian(np.array([[1.0, -1.0], [-1.0, 1.0]])), 20.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = make_system("saddle-point", process, d=1, a=0.5)
    init = system.initial_state(np.zeros((2, 1)))
    # the per-step oracle: every step's output, with no box to stop the run
    every_step = integrate(
        system, oscillating_law(form, schedule), init, t_end=10.0, h=H, record_every=H
    )
    assert every_step.meta["path"] == path
    peak = np.abs(every_step.y).max(axis=(1, 2))
    # a bound the outputs pass between records of 10 steps but at no record
    assert peak.max() > peak[::10].max() + 1e-6
    bound = 0.5 * (peak.max() + peak[::10].max())
    first = int(np.argmax(peak > bound))
    assert first % 10 and peak[(first // 10 + 1) * 10] < bound

    law = oscillating_law(form, schedule, Box(np.array([-bound]), np.array([bound])))
    for record_every in (H, 10 * H, 0.5):
        with pytest.raises(NumericalFailureError, match="validity box") as got:
            integrate(system, law, init, t_end=10.0, h=H, record_every=record_every)
        assert got.value.time == every_step.times[first]


@pytest.mark.parametrize("record_every", [0.5, 5.0, 25.0])
def test_blow_up_aborts_at_the_oracle_step(record_every):
    # h * 20 lies outside RK4's stability region, so the state overflows
    # after some 80 steps; no box, so only the finiteness check can stop it.
    # The oracle is the generic loop: a step whose RK4 stages overflow
    # leaves a non-finite state there, one step before the product of the
    # step maps overflows
    lap = Laplacian(np.array([[10.0, -10.0], [-10.0, 10.0]]))
    system = averaging_system(constant_process(lap, 100.0))
    law = gradient_feedback(custom_table([{"center": [1.0]}, {"center": [-1.0]}]), constant(0.5))
    init = system.initial_state(np.array([[0.5], [0.0]]))
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalFailureError, match="non-finite") as oracle:
            integrate(
                system, lambda t, y: law(t, y), init, t_end=100.0, h=0.5, record_every=record_every
            )
        with pytest.raises(NumericalFailureError, match="non-finite") as got:
            integrate(system, law, init, t_end=100.0, h=0.5, record_every=record_every)
    assert got.value.time == oracle.value.time
    assert 0.0 < got.value.time < 100.0 and got.value.time % 25.0


PRESET_PATHS = {
    "counterexample": "affine",
    "counterexample-diminishing": "affine",
    "pushsum-directed": "affine",
    "averaging-ergodic": "affine",
    "saddlepoint-mincut": "affine",
    "spps-stationary": "affine",
}


def test_every_preset_is_pinned():
    assert sorted(harness.scenario_names()) == sorted(PRESET_PATHS)


@pytest.mark.parametrize("name", sorted(PRESET_PATHS))
def test_every_preset_takes_its_pinned_path(name):
    # the path is chosen from the system and the law alone, so a short run
    # of the preset's own system and law shows which one the preset takes
    cfg = harness.scenario(name)
    law = None if cfg.family is None else gradient_feedback(cfg.family, cfg.schedule)
    t_end = 2 * cfg.record_every
    traj = integrate(
        cfg.system, law, cfg.init_state, t_end=t_end, h=cfg.h, record_every=cfg.record_every
    )
    assert traj.meta["path"] == PRESET_PATHS[name]


class WithoutAffineForm(GradientFeedback):
    """The same law with no affine form, so integrate runs the generic loop
    on it and checks its box there; `seen` keeps the outputs it is called
    on, which the generic loop forms at a step's four stages in order."""

    def __init__(self, family, schedule):
        super().__init__(family, schedule)
        self.seen = []

    def __call__(self, t, y):
        self.seen.append(y.copy())
        return super().__call__(t, y)

    def rowwise_affine(self):
        return None


def draining_process(n, dwell, pieces, rng):
    """Pieces on which agent 0 reads no one and the others read it hard,
    so that its ratio weight drains toward the floor."""
    laps = []
    for _ in range(pieces):
        weights = rng.uniform(0.5, 1.5, (n, n))
        np.fill_diagonal(weights, 0.0)
        weights[0] = 0.0
        weights[:, 0] *= 30.0
        laps.append(make_laplacian(weights))
    return LaplacianProcess(tuple(k * dwell for k in range(pieces)), tuple(laps), pieces * dwell)


@st.composite
def zone_runs(draw):
    """A multi-piece run of any system under huber or quadratic agents,
    with radii a little past each agent's initial distance to its center,
    so that some runs leave the affine zone mid-run. Some draw a box. Some
    stress the run. Under "blow-up" a system without a ratio block gets a
    process scaled until RK4 is unstable, so that its state blows up; a
    ratio system gets one on which agent 0 reads no one and the others
    read it hard, so that its weight drains through the floor. Such a run
    lasts long enough to reach its error, t_end >= 3. Under "box" an
    RK4-stable run gets a box inside the range of its outputs: one the
    outputs leave mid-run, or, where they never pass their initial size,
    one the initial output lies outside."""
    name = draw(st.sampled_from(SYSTEM_NAMES))
    n = draw(st.integers(2, 6))
    d = 1 if SYSTEMS[name].scalar else draw(st.sampled_from((1, 2)))
    per_record = draw(st.sampled_from((1, 2, 5, 10)))
    dwell = draw(st.integers(2, 30)) * H
    stress = draw(st.sampled_from((None, None, "blow-up", "box")))
    fewest = math.ceil(3.0 / (per_record * H)) if stress == "blow-up" else 2
    t_end = per_record * draw(st.integers(fewest, fewest + 18)) * H
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    if stress == "blow-up" and SYSTEMS[name].ratio is not None:
        process = draining_process(n, dwell, math.ceil(t_end / dwell) + 1, rng)
    else:
        model = "switching-complete" if name == "saddle-point" else draw(
            st.sampled_from(("switching-complete", "directed-ring-rotate"))
        )
        process = random_process(n, model, dwell=dwell, horizon=t_end + 1.0, seed=seed, h=H)
        if stress == "blow-up":
            laps = tuple(Laplacian(1000.0 * lap.matrix) for lap in process.laplacians)
            process = LaplacianProcess(process.start_times, laps, process.horizon)
    kind = draw(st.sampled_from(("constant", "power-law", "custom")))
    if kind == "constant":
        schedule = constant(rng.uniform(0.1, 1.0))
    elif kind == "power-law":
        schedule = power_law(rng.uniform(0.1, 1.0), rng.uniform(0.0, 2.0))
    else:
        starts = np.sort(rng.uniform(0.0, t_end, draw(st.integers(1, 6))))
        schedule = custom_piecewise([0.0, *starts], rng.uniform(0.05, 1.0, len(starts) + 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = make_system(name, process, d=d, a=draw(st.floats(0.5, 5.0)))
    x0 = rng.uniform(-1, 1, (n, d))
    entries = []
    for row in x0:
        center = rng.uniform(-1, 1, d)
        entry = {"center": center.tolist(), "curvature": rng.uniform(0.2, 3.0)}
        if draw(st.booleans()):
            reach = float(np.linalg.norm(row - center))
            entry.update(form="huber", radius=reach + rng.uniform(0.01, 0.5))
        entries.append(entry)
    box = None
    if stress == "box":
        # every step's largest output size, on the generic loop
        law = WithoutAffineForm(custom_table(entries), schedule)
        integrate(system, law, system.initial_state(x0), t_end=t_end, h=H, record_every=H)
        peak = np.abs(np.array(law.seen[::4])).max(axis=(1, 2))
        bound = rng.uniform(peak[0], peak.max()) if peak.max() > peak[0] else 0.5 * peak[0]
        box = Box(np.full(d, -bound), np.full(d, bound))
    elif draw(st.booleans()):
        bound = rng.uniform(1.0, 2.0)
        box = Box(np.full(d, -bound), np.full(d, bound))
    family = custom_table(entries, box=box)
    return system, family, schedule, system.initial_state(x0), t_end, per_record * H, stress


def outcome(system, law, init, t_end, record_every):
    """The trajectory, or the type and time of the error the run raised."""
    try:
        with np.errstate(all="ignore"):
            return integrate(system, law, init, t_end=t_end, h=H, record_every=record_every)
    except (DegenerateWeightsError, NumericalFailureError) as exc:
        return type(exc), exc.time


@settings(max_examples=200, deadline=None)
@given(zone_runs())
def test_zone_path_matches_generic_loop_on_every_system(run):
    system, family, schedule, init, t_end, record_every, stress = run
    law = gradient_feedback(family, schedule)
    got = outcome(system, law, init, t_end, record_every)
    plain = WithoutAffineForm(family, schedule)
    ref = outcome(system, plain, init, t_end, record_every)
    if isinstance(ref, tuple):
        assert got == ref
        return
    assert not stress, "a stressed run reaches its error"
    assert got.meta["path"] == "affine" and ref.meta["path"] == "generic"
    arrays = [(got.x, ref.x), (got.y, ref.y), (got.u, ref.u)]
    arrays += [(got.aux[key], ref.aux[key]) for key in ref.aux]
    assert max(np.abs(g - e).max() for g, e in arrays) <= 1e-12
    # the handoff is the first step with a stage output outside the zone
    center, radius = law.rowwise_affine()[3:]
    stages = np.array(plain.seen[: 4 * round(t_end / H)])
    outside = (np.linalg.norm(stages - center, axis=2) > radius).any(axis=1)
    assert got.meta["handoff_step"] == (int(np.argmax(outside)) // 4 if outside.any() else None)


def test_outputs_leaving_the_radius_hand_off_to_the_generic_loop():
    # pushsum-directed started at its centers: the outputs drift past a
    # radius of 0.4 some 50 steps in, and the generic loop finishes the run
    raw = harness.scenario_raw("pushsum-directed")
    raw["family"]["params"]["radius"] = 0.4
    raw["init"] = {"x": raw["family"]["params"]["centers"]}
    raw["t_end"] = 3.0
    cfg = harness.parse_config(raw)
    law = gradient_feedback(cfg.family, cfg.schedule)
    plain = lambda t, y: law(t, y)  # noqa: E731
    traj = integrate(cfg.system, law, cfg.init_state, cfg.t_end, cfg.h, cfg.record_every)
    step = traj.meta["handoff_step"]
    assert traj.meta["path"] == "affine" and 0 < step < 100
    # every step's output up to the handoff lies within the radius
    every = integrate(cfg.system, plain, cfg.init_state, cfg.t_end, cfg.h, cfg.h)
    centers = np.asarray(raw["family"]["params"]["centers"])
    reach = np.linalg.norm(every.y - centers, axis=2).max(axis=1)
    assert (reach[: step + 1] <= 0.4).all() and reach.max() > 0.4
    ref = integrate(cfg.system, plain, cfg.init_state, cfg.t_end, cfg.h, cfg.record_every)
    arrays = [(traj.x, ref.x), (traj.y, ref.y), (traj.u, ref.u), (traj.aux["w"], ref.aux["w"])]
    assert max(np.abs(g - e).max() for g, e in arrays) <= 1e-12


@pytest.mark.parametrize(
    "name, schedule",
    [
        ("averaging", constant(0.5)),
        ("saddle-point", power_law(1.0, 1.0)),
        ("push-sum", constant(0.5)),
        ("spps", power_law(0.8, 0.5)),
    ],
)
def test_four_agent_table_hands_off_at_the_first_step_whose_stage_output_leaves_the_radius(
    name, schedule
):
    model = "switching-complete" if name == "saddle-point" else "directed-ring-rotate"
    process = random_process(4, model, dwell=0.5, horizon=6.0, seed=3, h=H)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = make_system(name, process, d=1, a=5.0)
    centers = np.array([[-0.6], [-0.2], [0.2], [0.6]])
    family = custom_table([{"form": "huber", "center": c, "radius": 0.3} for c in centers])
    law = gradient_feedback(family, schedule)
    seen = []

    def plain(t, y):
        seen.append(y.copy())
        return law(t, y)

    # the generic loop calls the law at a step's four stages in order
    init = system.initial_state(centers)
    integrate(system, plain, init, t_end=5.0, h=H, record_every=0.1)
    reach = np.array([np.linalg.norm(y - centers, axis=1).max() for y in seen])
    traj = integrate(system, law, init, t_end=5.0, h=H, record_every=0.1)
    assert traj.meta["handoff_step"] == int(np.argmax(reach > 0.3)) // 4 > 0


@pytest.mark.parametrize("name, n, seed", [("spps", 4, 5), ("push-sum", 3, 70)])
def test_weight_under_the_floor_as_the_stages_blow_up_is_a_non_finite_state(name, n, seed):
    # the law's gain alpha * curvature / w grows past RK4's stability as w
    # drains, and the state overflows in the step that takes w under the
    # floor; the generic loop's weights are NaN by then, so it reports the
    # non-finite state, and so must the affine path
    rng = np.random.default_rng(seed)
    system = make_system(name, draining_process(n, 0.5, 8, rng), d=1, a=5.0)
    entries = [{"center": [c], "curvature": rng.uniform(0.2, 3.0)} for c in rng.uniform(-1, 1, n)]
    law = gradient_feedback(custom_table(entries), constant(rng.uniform(0.1, 1.0)))
    init = system.initial_state(rng.uniform(-1, 1, (n, 1)))
    ref = outcome(system, lambda t, y: law(t, y), init, 3.0, H)
    assert ref[0] is NumericalFailureError
    assert outcome(system, law, init, 3.0, H) == ref


def boxed_pair_run(schedule):
    """The quadratic saddle-point pair of the box test, boxed between the
    peak of its outputs at records of 10 steps and their peak at steps."""
    process = constant_process(Laplacian(np.array([[1.0, -1.0], [-1.0, 1.0]])), 20.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = make_system("saddle-point", process, d=1, a=0.5)
    init = system.initial_state(np.zeros((2, 1)))
    free = integrate(system, oscillating_law("quadratic", schedule), init, 10.0, H, H)
    peak = np.abs(free.y).max(axis=(1, 2))
    bound = 0.5 * (peak.max() + peak[::10].max())
    law = oscillating_law("quadratic", schedule, Box(np.array([-bound]), np.array([bound])))
    return system, law, init, 10.0, H, 10 * H


def draining_run(name, n, seed):
    """The run of the floor test that overflows as its weight drains."""
    rng = np.random.default_rng(seed)
    system = make_system(name, draining_process(n, 0.5, 8, rng), d=1, a=5.0)
    entries = [{"center": [c], "curvature": rng.uniform(0.2, 3.0)} for c in rng.uniform(-1, 1, n)]
    law = gradient_feedback(custom_table(entries), constant(rng.uniform(0.1, 1.0)))
    return system, law, system.initial_state(rng.uniform(-1, 1, (n, 1))), 3.0, H, H


def blow_up_run():
    """The run of the blow-up test, outside RK4's stability region."""
    lap = Laplacian(np.array([[10.0, -10.0], [-10.0, 10.0]]))
    system = averaging_system(constant_process(lap, 100.0))
    law = gradient_feedback(custom_table([{"center": [1.0]}, {"center": [-1.0]}]), constant(0.5))
    return system, law, system.initial_state(np.array([[0.5], [0.0]])), 100.0, 0.5, 5.0


def outside_start_run():
    """A quadratic pair whose initial output lies outside its box."""
    system, _, init, t_end, h, record_every = boxed_pair_run(constant(0.5))
    law = oscillating_law("quadratic", constant(0.5), Box(np.array([0.5]), np.array([1.0])))
    return system, law, init, t_end, h, record_every


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: boxed_pair_run(constant(0.5)), "validity box"),
        (lambda: boxed_pair_run(power_law(1.0, 1.0)), "validity box"),
        (lambda: draining_run("spps", 4, 5), "non-finite"),
        (lambda: draining_run("push-sum", 3, 70), "non-finite"),
        (blow_up_run, "non-finite"),
        (outside_start_run, "validity box"),
    ],
    ids=["box-constant", "box-power-law", "floor-spps", "floor-push-sum", "blow-up", "start"],
)
def test_the_generic_loop_raises_an_affine_runs_error(make, error):
    # the affine path finds the faulty step and hands it to the generic
    # loop, which redoes it and raises: the step before the error's, or
    # step 0 for a faulty initial state
    system, law, init, t_end, h, record_every = make()
    spy = mock.patch.object(simulate, "_generic_path", wraps=simulate._generic_path)
    with spy as generic, np.errstate(all="ignore"), pytest.raises(NumericalFailureError) as got:
        integrate(system, law, init, t_end=t_end, h=h, record_every=record_every)
    assert error in str(got.value)
    assert generic.call_count == 1
    step = round(got.value.time / h)
    assert generic.call_args.args[3] == max(step - 1, 0)
    assert got.traceback[-1].name == "_generic_path"


@pytest.mark.parametrize("seed", range(16))
def test_handoff_at_the_first_step_whose_stage_output_leaves_the_radius(seed):
    # agents start at their centers and drift past a small radius
    rng = np.random.default_rng(seed)
    name = SYSTEM_NAMES[seed % 4]
    n = 2 + seed % 3
    model = "switching-complete" if name == "saddle-point" else "directed-ring-rotate"
    process = random_process(n, model, dwell=0.5, horizon=4.0, seed=seed, h=H)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = make_system(name, process, d=1, a=5.0)
    centers = rng.uniform(-1, 1, (n, 1))
    entry = {"form": "huber", "curvature": rng.uniform(0.5, 10.0), "radius": rng.uniform(0.05, 0.6)}
    family = custom_table([{**entry, "center": c} for c in centers])
    a0 = rng.uniform(0.3, 1.0)
    law = gradient_feedback(family, constant(a0) if seed // 4 % 2 else power_law(a0, 1.0))
    seen = []

    def plain(t, y):
        seen.append(y.copy())
        return law(t, y)

    # the generic loop calls the law at a step's four stages in order
    init = system.initial_state(centers)
    integrate(system, plain, init, t_end=3.0, h=H, record_every=0.1)
    outside = np.abs(np.array(seen) - centers).max(axis=(1, 2)) > entry["radius"]
    traj = integrate(system, law, init, t_end=3.0, h=H, record_every=0.1)
    expect = int(np.argmax(outside)) // 4 if outside.any() else None
    assert traj.meta["handoff_step"] == expect
