import numpy as np
import pytest
from scipy.linalg import expm

from flowtracker_lab import flowcore
from flowtracker_lab.errors import InvalidInputError
from flowtracker_lab.flowcore import (
    TAU_FLOW,
    FlowGrid,
    FlowMatrix,
    default_grid,
    distance_to_rank_one,
    ergodicity_report,
    semigroup_defect,
    transition_matrix,
)
from flowtracker_lab.graphnet import (
    Laplacian,
    LaplacianProcess,
    constant_process,
    make_laplacian,
    random_process,
)

TWO_NODE = Laplacian(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def two_node_flow_exact(t: float) -> np.ndarray:
    e = np.exp(-2.0 * t)
    return 0.5 * np.array([[1 + e, 1 - e], [1 - e, 1 + e]])


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
        assert distance_to_rank_one(flow) == pytest.approx(np.exp(-2.0), abs=1e-8)

    def test_rank_one_is_zero(self):
        pi = np.array([0.2, 0.3, 0.5])
        m = np.outer(pi, np.ones(3))
        assert distance_to_rank_one(m) == pytest.approx(0.0, abs=1e-14)

    def test_identity_two_node(self):
        assert distance_to_rank_one(np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_non_stochastic_rejected(self):
        with pytest.raises(InvalidInputError):
            distance_to_rank_one(np.array([[0.5, 0.2], [0.2, 0.5]]))

    def test_exact_decay_law_over_time(self):
        proc = constant_process(TWO_NODE, 6.0)
        for t in np.arange(0.5, 5.5, 0.5):
            flow = transition_matrix(proc, 0.0, float(t), h=1e-3)
            assert distance_to_rank_one(flow) == pytest.approx(np.exp(-2 * t), abs=1e-8)

    def test_monotone_decay_on_complete_flow(self):
        proc = constant_process(TWO_NODE, 5.0)
        prev = np.inf
        for t in np.arange(0.25, 5.25, 0.25):
            d = distance_to_rank_one(transition_matrix(proc, 0.0, float(t), h=1e-2))
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

    def test_too_few_samples_gives_no_rate(self):
        # identical columns from the start: all distances at rounding level
        n = 3
        w = np.full((n, n), 5.0)
        np.fill_diagonal(w, 0.0)
        proc = constant_process(make_laplacian(w), 400.0)
        grid = FlowGrid((0.0,), (100.0, 150.0, 200.0))
        report = ergodicity_report(proc, h=1e-2, grid=grid)
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

    def test_default_grid_within_horizon(self):
        proc = constant_process(TWO_NODE, 10.0)
        grid = default_grid(proc, h=1e-3)
        for s in grid.s_values:
            assert 0 <= s <= proc.horizon
        assert all(dt > 0 for dt in grid.dt_values)

    def test_report_builds_each_piece_propagator_once(self, monkeypatch):
        proc = random_process(6, "directed-ring-rotate", dwell=0.5, horizon=20.0, seed=3)
        calls = []
        real = flowcore.taylor_polynomial

        def counted(a, *args, **kwargs):
            calls.append(a)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(flowcore, "taylor_polynomial", counted)
        report = ergodicity_report(proc, h=1e-2)
        pieces = {id(lap) for s, t in report.samples for _, _, lap in proc.segments(s, t)}
        assert len(pieces) > 10
        assert len(calls) == len(pieces)

    def test_shared_propagators_leave_the_report_unchanged(self, monkeypatch):
        proc = random_process(6, "directed-ring-rotate", dwell=0.5, horizon=20.0, seed=3)
        shared = ergodicity_report(proc, h=1e-2)

        class OwnCache(flowcore._FlowIntegrator):
            def __init__(self, process, s, h, powers=None):
                super().__init__(process, s, h)

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
