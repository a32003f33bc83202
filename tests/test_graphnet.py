import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowtracker_lab import graphnet, harness
from flowtracker_lab.errors import InvalidInputError
from flowtracker_lab.graphnet import (
    Laplacian,
    LaplacianProcess,
    constant_process,
    integrated_min_cut,
    make_laplacian,
    min_cut,
    process_from_dict,
    random_process,
)

TWO_NODE = np.array([[1.0, -1.0], [-1.0, 1.0]])


def three_cycle_weights(values=(1.0, 1.0, 1.0)):
    # edges (0,1), (1,2), (2,0): each agent reads its successor
    w = np.zeros((3, 3))
    w[0, 1], w[1, 2], w[2, 0] = values
    return w


def naive_cut(a: np.ndarray, subset) -> float:
    """Independent weighted-cut oracle: total weight leaving the subset."""
    n = a.shape[0]
    return sum(a[i, j] for i in subset for j in range(n) if j not in subset)


def naive_min_cut(a: np.ndarray) -> float:
    n = a.shape[0]
    best = np.inf
    for r in range(1, n):
        for subset in itertools.combinations(range(n), r):
            best = min(best, naive_cut(a, subset))
    return best


def enumerated_min_cut(a: np.ndarray) -> float:
    """Vectorised exhaustive oracle: every nonempty proper subset at once."""
    n = a.shape[0]
    if n == 1:
        return 0.0
    masks = np.arange(1, (1 << n) - 1, dtype=np.int64)
    member = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
    # cut(S) = sum_{i in S, j not in S} A[i, j]
    return max(float(((member @ a) * (1.0 - member)).sum(axis=1).min()), 0.0)


@st.composite
def weighted_digraphs(draw):
    """Weight matrices of random, empty, disconnected, single-cycle and
    complete digraphs; weights mix a few repeated values (ties) with floats."""
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["random", "empty", "disconnected", "cycle", "complete"]))
    weights = draw(
        arrays(float, (n, n), elements=st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.01, 10.0))
    )
    if shape == "random":
        mask = draw(arrays(bool, (n, n)))
    elif shape == "empty":
        mask = np.zeros((n, n), dtype=bool)
    elif shape == "disconnected":
        # no edge leads from the tail block back into the head block
        split = draw(st.integers(0, n))
        mask = draw(arrays(bool, (n, n)))
        mask[split:, :split] = False
    elif shape == "cycle":
        order = draw(st.permutations(range(n)))
        mask = np.zeros((n, n), dtype=bool)
        mask[order, np.roll(order, -1)] = True
    else:
        mask = np.ones((n, n), dtype=bool)
    w = np.where(mask, weights, 0.0)
    np.fill_diagonal(w, 0.0)
    return w


def ring(n: int, skip: int, rng: np.random.Generator) -> np.ndarray:
    w = np.zeros((n, n))
    w[np.arange(n), (np.arange(n) + skip) % n] = rng.uniform(0.5, 1.5, n)
    return w


def full_scan_segments(process: LaplacianProcess, t0: float, t1: float) -> list:
    """Oracle: clip every piece to [t0, t1] and keep the nonempty ones."""
    bounds = [*process.start_times, process.horizon]
    out = []
    for k, lap in enumerate(process.laplacians):
        lo, hi = max(bounds[k], t0), min(bounds[k + 1], t1)
        if hi > lo:
            out.append((lo, hi, lap))
    return out


def reachable(adj: np.ndarray, start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        i = stack.pop()
        for j in np.nonzero(adj[i])[0]:
            if j not in seen:
                seen.add(int(j))
                stack.append(int(j))
    return seen


def strongly_connected(adj: np.ndarray) -> bool:
    n = adj.shape[0]
    return all(len(reachable(adj, i)) == n for i in range(n))


class TestMakeLaplacian:
    def test_two_node_complete(self):
        lap = make_laplacian([[0, 1], [1, 0]])
        assert np.array_equal(lap.matrix, TWO_NODE)

    def test_all_zero_weights(self):
        lap = make_laplacian(np.zeros((3, 3)))
        assert np.array_equal(lap.matrix, np.zeros((3, 3)))

    def test_directed_three_cycle(self):
        lap = make_laplacian(three_cycle_weights())
        assert np.allclose(np.diagonal(lap.matrix), 1.0)
        for j in range(3):
            col = lap.matrix[:, j]
            assert np.count_nonzero(col == -1.0) == 1

    def test_columns_sum_to_zero_random(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            w = rng.uniform(0, 2, (n, n))
            np.fill_diagonal(w, 0.0)
            lap = make_laplacian(w)
            assert np.abs(lap.matrix.sum(axis=0)).max() < 1e-12

    def test_edge_weights_become_laplacian(self):
        # edges (0, 1) of weight 1 and (1, 2) of weight 2
        lap = make_laplacian([[0, 1, 0], [0, 0, 2], [0, 0, 0]])
        assert lap.matrix[0, 1] == -1.0
        assert lap.matrix[2, 2] == 2.0
        assert np.array_equal(np.diagonal(lap.matrix), [0.0, 1.0, 2.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInputError):
            make_laplacian([[0, -1], [1, 0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(InvalidInputError):
            make_laplacian([[1, 1], [1, 0]])

    def test_positive_offdiagonal_rejected_in_validator(self):
        with pytest.raises(InvalidInputError):
            Laplacian(np.array([[1.0, 1.0], [-1.0, -1.0]]))


class TestWeightBalance:
    def test_symmetric_is_balanced(self):
        assert constant_process(Laplacian(TWO_NODE), 1.0).is_weight_balanced()

    def test_unit_cycle_is_balanced(self):
        lap = make_laplacian(three_cycle_weights())
        # hand oracle: row sums
        assert all(abs(sum(lap.matrix[i])) < 1e-12 for i in range(3))
        assert constant_process(lap, 1.0).is_weight_balanced()

    def test_unbalanced_example(self):
        lap = Laplacian(np.array([[1.0, -2.0], [-1.0, 2.0]]))
        assert sum(lap.matrix[0]) == -1.0
        assert not constant_process(lap, 1.0).is_weight_balanced()

    def test_nonuniform_cycle_not_balanced(self):
        lap = make_laplacian(three_cycle_weights((1.0, 2.0, 3.0)))
        assert not constant_process(lap, 1.0).is_weight_balanced()

    def test_switching_complete_pieces_annihilate_the_uniform_vector(self):
        proc = random_process(4, "switching-complete", dwell=0.5, horizon=2.0, seed=1)
        assert proc.is_weight_balanced()
        assert np.abs(proc.matrices @ np.full(4, 0.25)).max() < 1e-12


class TestNullVectors:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_a_cycle_reweighted_by_pi_annihilates_pi(self, n, data):
        # the construction of the spps-stationary preset: agent i reads
        # agent j with weight 1 / pi_j along a directed cycle
        pi = data.draw(arrays(float, n, elements=st.floats(0.05, 1.0)))
        order = data.draw(st.permutations(range(n)))
        w = np.zeros((n, n))
        for i, j in zip(order, order[1:] + order[:1]):
            w[i, j] = 1.0 / pi[j]
        assert np.abs(make_laplacian(w).matrix @ pi).max() <= 1e-12

    def test_a_directed_pair_annihilates_the_weights_it_reads(self):
        # agent 0 reads agent 1 with weight 1, agent 1 reads agent 0 with 2
        lap = make_laplacian([[0.0, 1.0], [2.0, 0.0]])
        assert np.array_equal(lap.matrix @ np.array([1.0, 2.0]), [0.0, 0.0])
        assert np.abs(lap.matrix @ np.array([2.0, 1.0])).max() > 0.5


class TestCutValue:
    def test_complement_cut_is_negated_weight_cut(self):
        rng = np.random.default_rng(4)
        w = rng.uniform(0, 1, (4, 4))
        np.fill_diagonal(w, 0.0)
        lap = make_laplacian(w)
        a = lap.weight_matrix()
        for r in range(1, 4):
            for subset in itertools.combinations(range(4), r):
                comp = sorted(set(range(4)) - set(subset))
                cv = lap.matrix[np.ix_(subset, comp)].sum()
                assert cv <= 1e-12
                assert cv == pytest.approx(-naive_cut(a, subset), abs=1e-12)


class TestMinCut:
    def test_two_node_complete(self):
        lap = Laplacian(TWO_NODE)
        assert min_cut(lap) == pytest.approx(naive_min_cut(lap.weight_matrix())) == 1.0

    def test_zero_laplacian(self):
        assert min_cut(Laplacian(np.zeros((4, 4)))) == 0.0

    def test_three_cycle_unit(self):
        lap = make_laplacian(three_cycle_weights())
        assert min_cut(lap) == pytest.approx(1.0)
        assert naive_min_cut(lap.weight_matrix()) == pytest.approx(1.0)

    def test_matches_naive_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            w = rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.6)
            np.fill_diagonal(w, 0.0)
            lap = make_laplacian(w)
            assert min_cut(lap) == pytest.approx(naive_min_cut(w), abs=1e-12)

    def test_disconnected_graph_has_zero_cut(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        assert min_cut(make_laplacian(w)) == 0.0

    def test_strongly_connected_positive(self):
        rng = np.random.default_rng(9)
        w = rng.uniform(0.5, 1.5, (5, 5))
        np.fill_diagonal(w, 0.0)
        assert min_cut(make_laplacian(w)) > 0

    def test_no_size_cap(self):
        # n = 25 was refused by the exhaustive search this replaced
        assert min_cut(make_laplacian(np.zeros((25, 25)))) == 0.0
        # complete unit-weight digraph: cut(S) = |S| (n - |S|), least at n - 1
        w = np.ones((40, 40))
        np.fill_diagonal(w, 0.0)
        assert min_cut(make_laplacian(w)) == 39.0

    @settings(max_examples=150, deadline=None)
    @given(weighted_digraphs())
    def test_matches_enumeration(self, w):
        want = enumerated_min_cut(w)
        assert abs(min_cut(make_laplacian(w)) - want) <= 1e-12 * want

    @pytest.mark.parametrize("n", [25, 64, 256])
    def test_directed_rings(self, n):
        rng = np.random.default_rng(n)
        for skip in (1, 2, 3, 5, n - 1):
            w = ring(n, skip, rng)
            # one Hamiltonian cycle: every cut crosses an edge, and the
            # singleton at the lightest edge's tail crosses only that one
            want = w.sum(axis=1).min() if math.gcd(skip, n) == 1 else 0.0
            assert min_cut(make_laplacian(w)) == want


class TestIntegratedMinCut:
    def test_constant_complete_window(self):
        proc = constant_process(Laplacian(TWO_NODE), horizon=4.0)
        assert integrated_min_cut(proc, 0.0, 2.0) == pytest.approx(2.0)

    def test_alternating_empty_complete(self):
        zero = Laplacian(np.zeros((2, 2)))
        comp = Laplacian(TWO_NODE)
        proc = LaplacianProcess((0.0, 1.0, 2.0, 3.0), (zero, comp, zero, comp), 4.0)
        assert integrated_min_cut(proc, 0.0, 2.0) == pytest.approx(1.0)
        assert integrated_min_cut(proc, 1.0, 2.0) == pytest.approx(1.0)

    def test_zero_window(self):
        proc = constant_process(Laplacian(TWO_NODE), horizon=1.0)
        assert integrated_min_cut(proc, 0.5, 0.0) == 0.0

    def test_window_beyond_horizon_rejected(self):
        proc = constant_process(Laplacian(TWO_NODE), horizon=1.0)
        with pytest.raises(InvalidInputError):
            integrated_min_cut(proc, 0.5, 1.0)

    def test_last_window_of_a_long_horizon_accepted(self):
        # the min-cut-window check's last start on t_end = 1e5 with T = 0.1,
        # whose window ends 1e-11 past the horizon by rounding
        proc = constant_process(Laplacian(TWO_NODE), horizon=1e5)
        t0 = float(np.arange(0.0, 1e5 - 0.1 + 1e-9, 0.05)[-1])
        assert t0 + 0.1 > 1e5
        assert integrated_min_cut(proc, t0, 0.1) == pytest.approx(0.1)

    def test_shared_cuts_cut_each_piece_once(self, monkeypatch):
        proc = random_process(4, "directed-ring-rotate", dwell=0.5, horizon=4.0, seed=1)
        calls = []
        monkeypatch.setattr(graphnet, "min_cut", lambda lap: calls.append(lap) or min_cut(lap))
        cuts: dict[int, float] = {}
        shared = [integrated_min_cut(proc, t0, 1.0, cuts=cuts) for t0 in np.arange(0, 3.1, 0.5)]
        assert len(calls) == len(proc.laplacians)
        monkeypatch.undo()
        assert shared == [integrated_min_cut(proc, t0, 1.0) for t0 in np.arange(0, 3.1, 0.5)]


class TestSegments:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_full_scan(self, data):
        gaps = data.draw(
            st.lists(st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.01, 2.0), min_size=1, max_size=12)
        )
        starts = tuple(float(t) for t in np.cumsum([0.0, *gaps[:-1]]))
        horizon = starts[-1] + gaps[-1]
        laps = tuple(Laplacian(np.zeros((2, 2))) for _ in starts)
        proc = LaplacianProcess(starts, laps, horizon)
        point = st.sampled_from([*starts, horizon]) | st.floats(0.0, horizon)
        t0, t1 = sorted((data.draw(point), data.draw(point)))
        got = list(proc.segments(t0, t1))
        want = full_scan_segments(proc, t0, t1)
        assert [(lo, hi) for lo, hi, _ in got] == [(lo, hi) for lo, hi, _ in want]
        assert all(a is b for (_, _, a), (_, _, b) in zip(got, want))


class TestRandomProcess:
    def test_deterministic_for_fixed_seed(self):
        a = random_process(2, "switching-complete", dwell=0.5, horizon=2.0, seed=7)
        b = random_process(2, "switching-complete", dwell=0.5, horizon=2.0, seed=7)
        for la, lb in zip(a.laplacians, b.laplacians):
            assert np.array_equal(la.matrix, lb.matrix)

    def test_ring_rotate_edge_count(self):
        proc = random_process(3, "directed-ring-rotate", dwell=0.5, horizon=3.0, seed=0)
        for lap in proc.laplacians:
            assert np.count_nonzero(lap.weight_matrix()) == 3

    def test_ring_rotate_not_weight_balanced(self):
        proc = random_process(5, "directed-ring-rotate", dwell=0.5, horizon=5.0, seed=2)
        assert not proc.is_weight_balanced()

    def test_window_model_union_strongly_connected(self):
        b = 3
        proc = random_process(
            5, "B-window-strongly-connected", dwell=0.5, horizon=10.0, seed=5, B=b
        )
        laps = proc.laplacians
        for k in range(len(laps) - b + 1):
            union = sum(lap.weight_matrix() for lap in laps[k : k + b])
            assert strongly_connected(union > 0)

    def test_each_piece_valid(self):
        proc = random_process(4, "directed-ring-rotate", dwell=0.25, horizon=2.0, seed=3)
        for lap in proc.laplacians:
            assert np.abs(lap.matrix.sum(axis=0)).max() < 1e-12

    def test_misaligned_dwell_rejected(self):
        with pytest.raises(InvalidInputError):
            random_process(3, "switching-complete", dwell=0.0015, horizon=1.0, seed=0, h=1e-3)
        # 0.0015 / 1e-3 = 1.5 steps

    def test_unknown_model_rejected(self):
        with pytest.raises(InvalidInputError):
            random_process(3, "nope", dwell=0.5, horizon=1.0, seed=0)

    @pytest.mark.parametrize("n, horizon", [(3, 1e300), (2, 1e6), (10**300, 5.0)])
    def test_process_past_the_size_cap_rejected_before_it_is_built(self, n, horizon):
        with pytest.raises(InvalidInputError, match="cap"):
            random_process(n, "switching-complete", dwell=0.5, horizon=horizon, seed=0)

    def test_size_cap_leaves_room_for_the_largest_built_process(self):
        # the benchmark's flow workload builds 120 pieces at n = 64, the
        # pushsum-directed preset 2000 pieces at n = 5
        for pieces, n in ((120, 64), (2000, 5)):
            floats = pieces * (n * n + graphnet.PIECE_OVERHEAD)
            assert 20 * floats <= graphnet.MAX_PROCESS_FLOATS

    def test_piece_cap_leaves_room_for_the_largest_built_process(self):
        # pushsum-directed builds the most pieces of any preset, test or
        # benchmark workload
        pieces = len(harness.scenario("pushsum-directed").process.laplacians)
        assert pieces == 2000
        assert 20 * pieces <= graphnet.MAX_PROCESS_PIECES

    def test_process_past_the_piece_cap_rejected_before_it_is_built(self):
        # within the float cap: 2 agents hold 36 floats a piece
        pieces = graphnet.MAX_PROCESS_PIECES + 1
        assert pieces * (4 + graphnet.PIECE_OVERHEAD) <= graphnet.MAX_PROCESS_FLOATS
        with pytest.raises(InvalidInputError, match="piece cap"):
            random_process(2, "switching-complete", dwell=0.5, horizon=0.5 * pieces, seed=0)


class TestSerialization:
    def test_round_trip(self):
        data = {
            "n": 2,
            "pieces": [
                {"t": 0.0, "weights": [[0.0, 1.0], [1.0, 0.0]]},
                {"t": 0.5, "weights": [[0.0, 2.0], [0.0, 0.0]]},
            ],
            "horizon": 2.0,
        }
        back = process_from_dict(data)
        assert back.start_times == (0.0, 0.5)
        assert back.horizon == 2.0
        for piece, lap in zip(data["pieces"], back.laplacians):
            assert lap.weight_matrix().tolist() == piece["weights"]

    def test_weights_are_the_disk_format(self):
        data = {"n": 2, "pieces": [{"t": 0.0, "weights": [[0, 1], [1, 0]]}], "horizon": 1.0}
        assert np.array_equal(process_from_dict(data).matrices[0], TWO_NODE)

    def test_malformed_rejected(self):
        with pytest.raises(InvalidInputError):
            process_from_dict({"n": 2, "pieces": [], "horizon": 1.0})
