import csv
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import matrix_power
from scipy.linalg import expm

from flowtracker_lab import flowcore
from flowtracker_lab.dynamics import make_system
from flowtracker_lab.errors import InvalidInputError, NumericalFailureError
from flowtracker_lab.flowcore import (
    TAU_FLOW,
    ErgodicityReport,
    FlowMatrix,
    Propagators,
    ergodicity_report,
    rk4_maps,
    transition_matrix,
)
from flowtracker_lab.graphnet import (
    RANDOM_MODELS,
    Laplacian,
    LaplacianProcess,
    constant_process,
    make_laplacian,
    random_process,
)
from flowtracker_lab.simulate import integrate

TWO_NODE = Laplacian(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def two_node_flow_exact(t: float) -> np.ndarray:
    e = np.exp(-2.0 * t)
    return 0.5 * np.array([[1 + e, 1 - e], [1 - e, 1 + e]])


def semigroup_defect(proc, s: float, r: float, t: float, h: float = 1e-3) -> float:
    """Spectral norm of Phi(t,r) Phi(r,s) - Phi(t,s); should be near zero."""
    phi_ts = transition_matrix(proc, s, t, h).Phi
    phi_tr = transition_matrix(proc, r, t, h).Phi
    phi_rs = transition_matrix(proc, s, r, h).Phi
    return float(np.linalg.norm(phi_tr @ phi_rs - phi_ts, 2))


class TestTransitionMatrix:
    def test_constant_two_node_matches_exponential(self):
        proc = constant_process(TWO_NODE, 2.0)
        flow = transition_matrix(proc, 0.0, 1.0, h=1e-3)
        assert np.abs(flow.Phi - two_node_flow_exact(1.0)).max() < 1e-10
        assert flow.Phi[0, 0] == pytest.approx(0.56767, abs=5e-6)
        assert flow.Phi[0, 1] == pytest.approx(0.43233, abs=5e-6)

    def test_t_equals_s_is_identity(self):
        proc = constant_process(TWO_NODE, 2.0)
        flow = transition_matrix(proc, 1.0, 1.0)
        assert np.array_equal(flow.Phi, np.eye(2))

    def test_zero_laplacian_gives_identity(self):
        proc = constant_process(Laplacian(np.zeros((3, 3))), 5.0)
        flow = transition_matrix(proc, 0.0, 3.0)
        assert np.array_equal(flow.Phi, np.eye(3))

    def test_piecewise_matches_exponential_product(self):
        l1 = TWO_NODE
        l2 = Laplacian(np.array([[2.0, -1.0], [-2.0, 1.0]]))
        proc = LaplacianProcess((0.0, 1.0), (l1, l2), 3.0)
        flow = transition_matrix(proc, 0.0, 2.5, h=1e-3)
        oracle = expm(-1.5 * l2.matrix) @ expm(-1.0 * l1.matrix)
        assert np.abs(flow.Phi - oracle).max() < 1e-9

    def test_nonzero_start_time(self):
        l1 = TWO_NODE
        l2 = Laplacian(np.array([[2.0, -1.0], [-2.0, 1.0]]))
        proc = LaplacianProcess((0.0, 1.0), (l1, l2), 3.0)
        flow = transition_matrix(proc, 0.5, 2.0, h=1e-3)
        oracle = expm(-1.0 * l2.matrix) @ expm(-0.5 * l1.matrix)
        assert np.abs(flow.Phi - oracle).max() < 1e-9

    def test_misaligned_switching_rejected(self):
        proc = LaplacianProcess((0.0, 0.0015), (TWO_NODE, TWO_NODE), 1.0)
        with pytest.raises(InvalidInputError):
            transition_matrix(proc, 0.0, 1.0, h=1e-3)

    def test_misaligned_endpoint_rejected(self):
        proc = constant_process(TWO_NODE, 1.0)
        with pytest.raises(InvalidInputError):
            transition_matrix(proc, 0.0, 0.00015, h=1e-4 * 3)

    def test_out_of_range_rejected(self):
        proc = constant_process(TWO_NODE, 1.0)
        with pytest.raises(InvalidInputError):
            transition_matrix(proc, 0.5, 1.5)

    def test_column_sums_preserved(self):
        proc = random_process(4, "directed-ring-rotate", dwell=0.5, horizon=6.0, seed=8)
        for s, t in [(0.0, 2.0), (1.0, 5.5), (0.5, 6.0)]:
            flow = transition_matrix(proc, s, t, h=1e-3)
            assert np.abs(flow.Phi.sum(axis=0) - 1.0).max() <= TAU_FLOW
            assert flow.Phi.min() >= -TAU_FLOW

    def test_weight_balanced_flow_doubly_stochastic(self):
        proc = random_process(3, "switching-complete", dwell=0.5, horizon=4.0, seed=2)
        flow = transition_matrix(proc, 0.0, 3.5, h=1e-3)
        assert np.abs(flow.Phi.sum(axis=1) - 1.0).max() <= TAU_FLOW


class TestDistanceToRankOne:
    def test_two_node_flow_decay_value(self):
        proc = constant_process(TWO_NODE, 2.0)
        flow = transition_matrix(proc, 0.0, 1.0, h=1e-3)
        assert flowcore._distances(flow.Phi) == pytest.approx(np.exp(-2.0), abs=1e-8)

    def test_rank_one_is_zero(self):
        pi = np.array([0.2, 0.3, 0.5])
        m = np.outer(pi, np.ones(3))
        assert flowcore._distances(m) == pytest.approx(0.0, abs=1e-14)

    def test_identity_two_node(self):
        assert flowcore._distances(np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_exact_decay_law_over_time(self):
        proc = constant_process(TWO_NODE, 6.0)
        for t in np.arange(0.5, 5.5, 0.5):
            flow = transition_matrix(proc, 0.0, float(t), h=1e-3)
            assert flowcore._distances(flow.Phi) == pytest.approx(np.exp(-2 * t), abs=1e-8)

    def test_monotone_decay_on_complete_flow(self):
        proc = constant_process(TWO_NODE, 5.0)
        prev = np.inf
        for t in np.arange(0.25, 5.25, 0.25):
            d = flowcore._distances(transition_matrix(proc, 0.0, float(t), h=1e-2).Phi)
            assert d <= prev + 1e-12
            prev = d


class TestSemigroupDefect:
    def test_r_equals_s(self):
        proc = constant_process(TWO_NODE, 2.0)
        assert semigroup_defect(proc, 0.0, 0.0, 1.0, h=1e-3) < 1e-12

    def test_constant_two_node_composition(self):
        proc = constant_process(TWO_NODE, 2.0)
        assert semigroup_defect(proc, 0.0, 0.5, 1.0, h=1e-3) < 1e-10

    def test_zero_laplacian(self):
        proc = constant_process(Laplacian(np.zeros((2, 2))), 2.0)
        assert semigroup_defect(proc, 0.0, 1.0, 2.0) == 0.0

    def test_switching_process(self):
        proc = random_process(3, "switching-complete", dwell=0.5, horizon=4.0, seed=1)
        assert semigroup_defect(proc, 0.0, 1.5, 3.0, h=1e-3) < 1e-10


class TestErgodicityReport:
    def test_two_node_complete_rate(self):
        proc = constant_process(TWO_NODE, 10.0)
        report = ergodicity_report(proc, h=1e-3)
        assert report.rate == pytest.approx(np.exp(-2.0), abs=1e-3)
        assert report.prefactor == pytest.approx(1.0, rel=1e-2)
        assert report.r_squared > 0.999
        assert report.weakly_exponentially_ergodic()

    def test_doubly_stochastic_p_star_exactly_one(self):
        proc = random_process(3, "switching-complete", dwell=0.5, horizon=8.0, seed=4)
        report = ergodicity_report(proc, h=1e-3)
        assert report.p_star == 1.0

    def test_disconnected_process_not_ergodic(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        proc = constant_process(make_laplacian(w), 10.0)
        report = ergodicity_report(proc, h=1e-3)
        assert not report.weakly_exponentially_ergodic()
        if report.rate is not None:
            assert report.rate >= 0.99

    def test_directed_ring_is_ergodic_with_positive_p_star(self):
        proc = random_process(5, "directed-ring-rotate", dwell=0.5, horizon=20.0, seed=6)
        report = ergodicity_report(proc, h=1e-2)
        assert report.weakly_exponentially_ergodic()
        assert report.p_star > 0

    def test_too_few_samples_gives_no_rate(self, monkeypatch):
        # identical columns from the start: all distances at rounding level
        n = 3
        w = np.full((n, n), 5.0)
        np.fill_diagonal(w, 0.0)
        proc = constant_process(make_laplacian(w), 400.0)
        grid = ((0.0,), (100.0, 150.0, 200.0))
        monkeypatch.setattr(flowcore, "_adaptive_grid", lambda props: grid)
        report = ergodicity_report(proc, h=1e-2)
        assert report.rate is None
        assert not report.weakly_exponentially_ergodic()

    def test_report_serialization(self, tmp_path):
        proc = constant_process(TWO_NODE, 10.0)
        report = ergodicity_report(proc, h=1e-2)
        data = report.to_dict()
        assert data["norm"] == "spectral"
        assert len(data["samples"]) == len(data["distances"])
        path = tmp_path / "flow.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "s,t,distance"
        assert len(lines) == len(report.samples) + 1

    @staticmethod
    def write_csv_by_csv_writer(report, path):
        """The former flow_distances.csv writer: one csv.writer row of
        f-strings per sample."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["s", "t", "distance"])
            for (s, t), d in zip(report.samples, report.distances):
                writer.writerow([f"{s:.17g}", f"{t:.17g}", f"{d:.17g}"])

    def test_csv_bytes_match_the_csv_writer(self, tmp_path):
        proc = random_process(5, "directed-ring-rotate", dwell=1.0, horizon=12.0, seed=7, h=1e-2)
        rng = np.random.default_rng(5)
        m = 12_001  # past two stacks of rows
        spans = rng.uniform(0, 50, (m, 2))
        dists = rng.standard_normal(m) * 10.0 ** rng.uniform(-300, 300, m)
        specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-310, 1.0 / 3.0]
        dists[: len(specials)] = specials
        spans[-len(specials) :, 1] = specials
        fabricated = ErgodicityReport(
            tuple(map(tuple, spans.tolist())), tuple(dists.tolist()), None, None, None, 1.0
        )
        for k, report in enumerate([ergodicity_report(proc, h=1e-2), fabricated]):
            report.write_csv(tmp_path / f"new{k}.csv")
            self.write_csv_by_csv_writer(report, tmp_path / f"old{k}.csv")
            new = (tmp_path / f"new{k}.csv").read_bytes()
            assert new.count(b"\r\n") == len(report.samples) + 1
            assert new == (tmp_path / f"old{k}.csv").read_bytes()

    def test_adaptive_grid_within_horizon(self):
        proc = constant_process(TWO_NODE, 10.0)
        starts, spans = flowcore._adaptive_grid(Propagators(proc, 1e-3))
        for s in starts:
            assert 0 <= s <= proc.horizon
        assert all(dt > 0 for dt in spans)

    def test_report_builds_each_piece_propagator_once(self, monkeypatch):
        proc = random_process(6, "directed-ring-rotate", dwell=0.5, horizon=20.0, seed=3)
        built = []
        real = flowcore.rk4_maps

        def counted(f1, f2, f3, f4, h):
            # a stack of k pieces builds k propagators in one call
            built.append(len(f1) if f1.ndim == 3 else 1)
            return real(f1, f2, f3, f4, h)

        monkeypatch.setattr(flowcore, "rk4_maps", counted)
        report = ergodicity_report(proc, h=1e-2)
        pieces = {id(lap) for s, t in report.samples for _, _, lap in proc.segments(s, t)}
        assert len(pieces) > 10
        assert sum(built) == len(pieces)
        assert len(built) < len(pieces)

    def test_shared_propagators_leave_the_report_unchanged(self, monkeypatch):
        proc = random_process(6, "directed-ring-rotate", dwell=0.5, horizon=20.0, seed=3)
        shared = ergodicity_report(proc, h=1e-2)

        class OwnCache(flowcore._FlowIntegrator):
            # a private step grid and cache: every propagator built one at a time
            def __init__(self, props, start):
                super().__init__(flowcore.Propagators(props.process, props.h), start)

        monkeypatch.setattr(flowcore, "_FlowIntegrator", OwnCache)
        own = ergodicity_report(proc, h=1e-2)
        assert own.samples == shared.samples
        assert own.distances == shared.distances
        assert (own.rate, own.p_star) == (shared.rate, shared.p_star)


class TestFlowMatrixValidation:
    def test_rejects_bad_column_sums(self):
        with pytest.raises(Exception):
            FlowMatrix(0.0, 1.0, np.array([[0.5, 0.5], [0.4, 0.4]]))

    def test_rejects_reversed_times(self):
        with pytest.raises(InvalidInputError):
            FlowMatrix(1.0, 0.0, np.eye(2))


# --- properties on random processes ----------------------------------------

H = 1e-2


@st.composite
def processes(draw):
    n = draw(st.integers(2, 6))
    model = draw(st.sampled_from(RANDOM_MODELS))
    dwell = draw(st.sampled_from([0.25, 0.5, 0.75]))
    horizon = draw(st.sampled_from([3.0, 4.5, 6.0]))
    seed = draw(st.integers(0, 2**16))
    b = draw(st.integers(1, n)) if model == "B-window-strongly-connected" else None
    return random_process(n, model, dwell=dwell, horizon=horizon, seed=seed, h=H, B=b)


def per_sample_report(process, h):
    """(grid, samples, distances, p*) of the probe-by-probe, sample-by-sample
    loop with one SVD norm per sample, which the stacked report replaced."""
    powers = {}

    def advance(phi, s, t):
        for lo, hi, lap in process.segments(s, t):
            key = (id(lap), round((hi - lo) / h))
            if key not in powers:
                field = -lap.matrix
                powers[key] = matrix_power(rk4_maps(field, field, field, field, h), key[1])
            phi = powers[key] @ phi
        return phi

    def dist(phi):
        return float(np.linalg.norm(phi - phi.mean(axis=1)[:, None], 2))

    cap = process.horizon / 2
    stride = max(1, int(round(min(0.5, cap / 12) / h)))
    t, dt_max, phi = 0.0, cap, np.eye(process.n)
    while t + stride * h <= cap + 1e-12:
        t_next = round((t + stride * h) / h) * h
        phi, t = advance(phi, t, t_next), t_next
        if dist(phi) < 1e-10:
            dt_max = t
            break
    grid = flowcore._grid(process, h, dt_max)
    samples, dists, p_star = [], [], np.inf
    starts, spans = grid
    for s in starts:
        phi, now = np.eye(process.n), s
        for dt in sorted(spans):
            if s + dt > process.horizon + 1e-12:
                continue
            t = min(s + dt, process.horizon)
            phi, now = advance(phi, now, t), t
            samples.append((s, t))
            dists.append(dist(phi))
            p_star = min(p_star, float((phi @ np.ones(process.n)).min()))
    if abs(p_star - 1.0) <= TAU_FLOW:
        p_star = 1.0
    return grid, samples, dists, p_star


class TestFlowProperties:
    @settings(max_examples=25, deadline=None)
    @given(processes(), st.data())
    def test_flow_is_column_stochastic_and_composes(self, proc, data):
        steps = round(proc.horizon / H)
        s, r, t = sorted(data.draw(st.integers(0, steps)) for _ in range(3))
        s, r, t = s * H, r * H, t * H
        flow = transition_matrix(proc, s, t, h=H)
        assert np.abs(flow.Phi.sum(axis=0) - 1.0).max() <= TAU_FLOW
        assert flow.Phi.min() >= -TAU_FLOW
        assert semigroup_defect(proc, s, r, t, h=H) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 12), st.integers(1, 4), st.integers(0, 14), st.integers(0, 2**16)
    )
    def test_stacked_distance_is_the_spectral_norm(self, n, k, mix, seed):
        # column-stochastic matrices from far from rank one to within 1e-14 of it
        rng = np.random.default_rng(seed)
        noise = rng.uniform(0.0, 1.0, (k, n, n))
        noise /= noise.sum(axis=1, keepdims=True)
        pi = rng.uniform(0.1, 1.0, n)
        mats = (1 - 10.0**-mix) * np.outer(pi / pi.sum(), np.ones(n)) + 10.0**-mix * noise
        got = flowcore._distances(mats)
        for m, d in zip(mats, got):
            want = np.linalg.norm(m - m.mean(axis=1)[:, None], 2)
            assert abs(d - want) <= 1e-12 * want + 1e-300

    @settings(max_examples=20, deadline=None)
    @given(processes())
    def test_report_matches_the_per_sample_loop(self, proc):
        grid, samples, dists, p_star = per_sample_report(proc, H)
        assert flowcore._adaptive_grid(Propagators(proc, H)) == grid
        report = ergodicity_report(proc, h=H)
        assert report.samples == tuple(samples)
        assert report.p_star == p_star
        for got, want in zip(report.distances, dists):
            assert abs(got - want) <= 1e-12 * max(1.0, want)


def taylor_degree_4(a):
    """I + a + a^2/2 + a^3/6 + a^4/24, term by term."""
    out = term = np.eye(len(a))
    for j in range(1, 5):
        term = term @ a / j
        out = out + term
    return out


@st.composite
def one_piece_processes(draw):
    """A random weighted digraph of n <= 8 nodes as a one-piece process."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.6)
    np.fill_diagonal(weights, 0.0)
    return constant_process(make_laplacian(weights), 1.0)


class TestOneKernel:
    """rk4_maps is the one place an RK4 one-step map is formed; these pin it
    to the Taylor polynomial and to a step of the simulator."""

    @settings(max_examples=60, deadline=None)
    @given(one_piece_processes(), st.sampled_from([1e-3, 1e-2, 0.1]))
    def test_constant_field_map_is_the_degree_4_taylor_polynomial(self, proc, h):
        field = -proc.laplacians[0].matrix
        got = rk4_maps(field, field, field, field, h)
        assert np.abs(got - taylor_degree_4(h * field)).max() <= 1e-14

    @settings(max_examples=60, deadline=None)
    @given(one_piece_processes(), st.sampled_from([1e-3, 1e-2, 0.1]))
    def test_flow_step_is_one_simulator_step(self, proc, h):
        # averaging with d = n from x0 = I and no input carries Phi(t, 0)
        n = proc.n
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            system = make_system("averaging", proc, d=n)
        init = system.initial_state(np.eye(n))
        traj = integrate(system, None, init, t_end=h, h=h, record_every=h)
        flow = transition_matrix(proc, 0.0, h, h)
        assert np.abs(flow.Phi - traj.x[1]).max() <= 1e-15


def non_finite(phi):
    phi[0, 0] = np.nan


def negative_entry(phi):
    # keeps the column sum, so only the sign check fails
    phi[1, 0] += phi[0, 0] + 1e-3
    phi[0, 0] = -1e-3


def column_drift(phi):
    phi[0, 0] += 1e-3


class TestStackedChecks:
    @pytest.mark.parametrize(
        "fault, message",
        [
            (non_finite, "non-finite"),
            (negative_entry, "far below zero"),
            (column_drift, "column sums"),
        ],
    )
    def test_first_bad_sample_names_its_time(self, monkeypatch, fault, message):
        proc = random_process(4, "directed-ring-rotate", dwell=0.5, horizon=4.0, seed=5, h=H)
        real = flowcore._FlowIntegrator.flows

        def corrupt(self, targets):
            # samples 4 and 5 of the stack, (2.0, 3.0) and (2.0, 3.5), go bad
            phis = real(self, targets)
            if self.i == round(3.5 / H):
                for phi in phis[1:]:
                    fault(phi)
            return phis

        monkeypatch.setattr(flowcore._FlowIntegrator, "flows", corrupt)
        grid = ((0.0, 2.0), (0.5, 1.0, 1.5))
        monkeypatch.setattr(flowcore, "_adaptive_grid", lambda props: grid)
        with pytest.raises(NumericalFailureError, match=message) as err:
            ergodicity_report(proc, h=H)
        assert err.value.time == pytest.approx(3.0)

    @pytest.mark.parametrize("fault", [non_finite, negative_entry, column_drift])
    def test_bad_probe_names_its_time(self, monkeypatch, fault):
        # probes every 0.5 up to half the horizon; none mixes below DECAY_FLOOR
        proc = random_process(4, "directed-ring-rotate", dwell=0.5, horizon=20.0, seed=5, h=H)
        real = flowcore._FlowIntegrator.flows

        def corrupt(self, targets):
            # the third probe of the first chunk, at t = 1.5, goes bad
            phis = real(self, targets)
            if targets[0] == round(0.5 / H):
                fault(phis[2])
            return phis

        monkeypatch.setattr(flowcore._FlowIntegrator, "flows", corrupt)
        with pytest.raises(NumericalFailureError) as err:
            flowcore._adaptive_grid(Propagators(proc, H))
        assert err.value.time == pytest.approx(1.5)

    def test_switch_alignment_checked_once_per_report(self, monkeypatch):
        proc = random_process(5, "directed-ring-rotate", dwell=0.5, horizon=20.0, seed=6)
        calls = []
        real = flowcore.check_switch_alignment

        def counted(process, h):
            calls.append(h)
            return real(process, h)

        monkeypatch.setattr(flowcore, "check_switch_alignment", counted)
        ergodicity_report(proc, h=1e-2)
        assert calls == [1e-2]


def one_percent_writer(path, header, columns, end, rows):
    """The writer before repeated columns were formatted once: every value
    through %.17g, one % call per stack of `rows` rows."""
    line = ",".join(["%.17g"] * len(header)) + end
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + end)
        for lo in range(0, len(columns[0]), rows):
            stack = np.column_stack([col[lo : lo + rows] for col in columns])
            fh.write(line * len(stack) % tuple(stack.ravel().tolist()))


SPECIAL_FLOATS = (0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 1.0 / 3.0, 1e300)


@st.composite
def tables(draw):
    """One to three tables of one row count: each column a block of one to
    three columns, many of them repeated, within a table or across
    tables, as the same array or a copy, some with their zeros' signs
    flipped, which changes the text but not the values."""
    m = draw(st.integers(0, 13))
    values = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_subnormal=True))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        shape = (m,) if draw(st.booleans()) else (m, draw(st.integers(1, 3)))
        cells = draw(st.lists(values, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
        blocks.append(np.array(cells, dtype=float).reshape(shape))
    picks = st.tuples(st.integers(0, len(blocks) - 1), st.sampled_from(("same", "copy", "sign")))
    out = []
    for _ in range(draw(st.integers(1, 3))):
        columns = []
        for pick, kind in draw(st.lists(picks, min_size=1, max_size=6)):
            block = blocks[pick]
            if kind == "sign":
                block = np.where(block == 0, -block, block)
            columns.append(block.copy() if kind == "copy" else block)
        out.append(columns)
    return out


@settings(max_examples=200, deadline=None)
@given(tables(), st.sampled_from(("\n", "\r\n")), st.integers(1, 5))
def test_write_tables_match_the_one_percent_writer(tmp_path_factory, drawn, end, rows):
    # a stack budget of `rows` rows puts tables on both sides of a stack
    out = tmp_path_factory.mktemp("tables")
    specs = []
    for k, columns in enumerate(drawn):
        width = sum(1 if col.ndim == 1 else col.shape[1] for col in columns)
        specs.append((out / f"new{k}.csv", [f"c{i}" for i in range(width)], columns))
    total = sum(len(header) for _, header, _ in specs)
    with mock.patch.object(flowcore, "STACK_BYTES", 8 * total * rows):
        flowcore.write_tables(specs, end)
    for k, (path, header, columns) in enumerate(specs):
        one_percent_writer(out / f"old{k}.csv", header, columns, end, rows)
        assert path.read_bytes() == (out / f"old{k}.csv").read_bytes()
