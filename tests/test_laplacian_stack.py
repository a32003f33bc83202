"""A process as one validated (m, n, n) stack: the batched generators match
the piece-by-piece ones bit for bit, the one validator judges a stack as
the per-piece rules judge its pieces, identical pieces share their work,
and a build allocates little beyond the stack it keeps."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtracker_lab import flowcore, graphnet, harness
from flowtracker_lab.errors import InvalidInputError
from flowtracker_lab.graphnet import (
    LAPLACIAN_RULES,
    RANDOM_MODELS,
    TAU_STRUCT,
    Laplacian,
    LaplacianProcess,
    check_switch_alignment,
    integrated_min_cut,
    make_laplacian,
    min_cut,
    random_process,
    steps_in_span,
)


def loop_random_process(n, model, dwell, horizon, seed, B=None):
    """(start times, Laplacian stack) of the piece-by-piece generator that
    random_process replaced, kept as its oracle."""
    rng = np.random.default_rng(seed)
    times, laps = [], []
    for k in range(max(1, math.ceil(horizon / dwell - 1e-12))):
        if model == "switching-complete":
            s = rng.uniform(0.5, 1.5, size=(n, n))
            w = 0.5 * (s + s.T)
            np.fill_diagonal(w, 0.0)
        elif model == "directed-ring-rotate":
            skip = 1 + (k % (n - 1)) if n > 2 else 1
            w = np.zeros((n, n))
            for i in range(n):
                w[i, (i + skip) % n] = rng.uniform(0.5, 1.5)
        else:
            w = np.zeros((n, n))
            for i in range(n):
                if i % B == k % B:
                    w[i, (i + 1) % n] = rng.uniform(0.5, 1.5)
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, n - 1))
            j = j if j < i else j + 1
            w[i, j] = max(w[i, j], rng.uniform(0.5, 1.5))
        lap = -w
        np.fill_diagonal(lap, w.sum(axis=0))
        times.append(k * dwell)
        laps.append(lap)
    return tuple(times), np.stack(laps)


SPECS = [
    (n, model, B)
    for n in (2, 5, 64)
    for model in RANDOM_MODELS
    for B in ((1, 2, 3) if model == "B-window-strongly-connected" else (None,))
    if B is None or B <= n
]


@pytest.mark.parametrize("n, model, B", SPECS)
@pytest.mark.parametrize("seed", [0, 11])
def test_random_process_matches_the_piece_by_piece_generator_bit_for_bit(n, model, B, seed):
    horizon = 8.0 if n == 64 else 30.0
    proc = random_process(n, model, dwell=0.5, horizon=horizon, seed=seed, B=B)
    times, stack = loop_random_process(n, model, 0.5, horizon, seed, B)
    assert proc.start_times == times
    assert proc.matrices.tobytes() == stack.tobytes()


def per_piece_rule(m: np.ndarray) -> int | None:
    """The first rule a matrix breaks, by the checks of the former
    per-piece Laplacian constructor, kept as the oracle; None if none."""
    if not np.all(np.isfinite(m)):
        return 0
    off = m.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off > 0):
        return 1
    if np.any(np.abs(m.sum(axis=0)) > TAU_STRUCT):
        return 2
    if np.any(np.diag(m) < 0):
        return 3
    return None


CORRUPTIONS = st.sampled_from(["nan", "inf", "-inf", "positive", "nudge", "drain", "none"])


@st.composite
def stacks(draw):
    """A stack of Laplacians of random weights, some with one piece corrupted."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 5))
    weights = draw(
        st.lists(
            st.floats(0.0, 3.0) | st.just(0.0), min_size=m * n * n, max_size=m * n * n
        )
    )
    w = np.array(weights).reshape(m, n, n)
    w[:, np.arange(n), np.arange(n)] = 0.0
    stack = np.stack([make_laplacian(piece).matrix for piece in w])
    k = draw(st.integers(0, m - 1))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    corruption = draw(CORRUPTIONS)
    if corruption in ("nan", "inf", "-inf"):
        stack[k, i, j] = float(corruption)
    elif corruption == "positive" and i != j:
        stack[k, i, j] = draw(st.floats(1e-300, 10.0))
    elif corruption == "nudge":
        # within or beyond the column-sum tolerance
        stack[k, i, j] += draw(st.sampled_from([1e-12, -5e-11, 2e-10, -1e-6, 1.0]))
    elif corruption == "drain":
        # column j's entries all a little below zero: within the column-sum
        # tolerance, but with a negative diagonal
        stack[k, :, j] = -draw(st.sampled_from([1e-300, 1e-12, 4e-11])) / n
    return stack


@settings(max_examples=300, deadline=None)
@given(stacks())
def test_the_stack_validator_judges_each_piece_as_the_per_piece_rules_do(stack):
    rules = [per_piece_rule(piece) for piece in stack]
    times = tuple(0.5 * k for k in range(len(stack)))
    bad = [k for k, rule in enumerate(rules) if rule is not None]
    for k, piece in enumerate(stack):
        if rules[k] is None:
            Laplacian(piece)
        else:
            with pytest.raises(InvalidInputError):
                Laplacian(piece)
    if not bad:
        proc = LaplacianProcess(times, stack.copy(), 0.5 * len(stack))
        assert np.array_equal(proc.matrices, stack)
        return
    rule = LAPLACIAN_RULES[rules[bad[0]]].split("{")[0]
    with pytest.raises(InvalidInputError) as err:
        LaplacianProcess(times, stack.copy(), 0.5 * len(stack))
    assert str(err.value).startswith(f"piece {bad[0]}: {rule}")


def test_a_negative_diagonal_names_its_piece():
    # every entry -4e-11: off-diagonals <= 0 and columns within TAU_STRUCT of 0
    stack = np.stack([make_laplacian([[0, 1], [1, 0]]).matrix] * 2 + [np.full((2, 2), -4e-11)])
    with pytest.raises(InvalidInputError, match="piece 2: diagonal entries must be nonnegative"):
        LaplacianProcess((0.0, 1.0, 2.0), stack, 3.0)


def test_zero_diagonal_weights_name_their_piece():
    w = np.zeros((3, 2, 2))
    w[2, 1, 1] = 1.0
    with pytest.raises(InvalidInputError, match="piece 2: weights must have a zero diagonal"):
        pieces = [{"t": float(k), "weights": piece.tolist()} for k, piece in enumerate(w)]
        graphnet.process_from_dict({"n": 2, "pieces": pieces, "horizon": 3.0})


class TestStack:
    def test_a_stack_is_taken_over_read_only_without_a_copy(self):
        stack = np.stack([make_laplacian([[0, 1], [2, 0]]).matrix] * 3)
        proc = LaplacianProcess((0.0, 1.0, 2.0), stack, 3.0)
        assert proc.matrices is stack
        assert not proc.matrices.flags.writeable
        for k, lap in enumerate(proc.laplacians):
            assert np.shares_memory(lap.matrix, proc.matrices)
            assert np.array_equal(lap.matrix, stack[k])

    def test_laplacians_are_stacked_and_validated_once_more(self):
        a = make_laplacian([[0, 1], [2, 0]])
        b = make_laplacian([[0, 3], [1, 0]])
        proc = LaplacianProcess((0.0, 1.0, 2.0), (a, b, a), 3.0)
        assert np.array_equal(proc.matrices, np.stack([a.matrix, b.matrix, a.matrix]))
        assert proc.distinct == (0, 1, 0)
        assert proc.laplacians[0] is proc.laplacians[2] is not proc.laplacians[1]

    def test_pieces_of_two_sizes_rejected(self):
        pieces = (Laplacian(np.zeros((2, 2))), Laplacian(np.zeros((3, 3))))
        with pytest.raises(InvalidInputError, match="same agent count"):
            LaplacianProcess((0.0, 1.0), pieces, 2.0)

    def test_identity_is_bitwise(self):
        # -0.0 and 0.0 are equal values but different pieces
        zero = np.zeros((1, 2, 2))
        proc = LaplacianProcess((0.0, 1.0), np.concatenate([zero, -zero]), 2.0)
        assert proc.distinct == (0, 1)

    def test_spps_stationary_has_two_distinct_pieces(self):
        proc = harness.scenario("spps-stationary").process
        assert len(proc.start_times) == 600
        assert sorted(set(proc.distinct)) == [0, 1]
        assert proc.distinct[:4] == (0, 1, 0, 1)
        assert len({id(lap) for lap in proc.laplacians}) == 2

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("name", ["averaging-ergodic", "pushsum-directed", "saddlepoint-mincut"])
    def test_each_random_preset_has_only_distinct_pieces(self, name):
        proc = harness.scenario(name).process
        assert proc.distinct == tuple(range(len(proc.start_times)))


def alternating_process(pieces: int) -> LaplacianProcess:
    a = make_laplacian([[0, 1, 0], [0, 0, 2], [3, 0, 0]])
    b = make_laplacian([[0, 2, 2], [1, 0, 1], [1, 1, 0]])
    return LaplacianProcess(
        tuple(0.5 * k for k in range(pieces)), (a, b) * (pieces // 2), 0.5 * pieces
    )


def test_min_cut_windows_cut_each_distinct_piece_once(monkeypatch):
    proc = alternating_process(12)
    calls = []
    monkeypatch.setattr(graphnet, "min_cut", lambda lap: calls.append(lap) or min_cut(lap))
    cuts: dict[int, float] = {}
    got = [integrated_min_cut(proc, t0, 1.5, cuts=cuts) for t0 in np.arange(0, 4.6, 0.5)]
    assert len(calls) == 2
    monkeypatch.undo()
    a, b = (min_cut(lap) for lap in proc.laplacians[:2])
    # a window of 1.5 from a multiple of 1 covers a, b, a; from an odd
    # multiple of 0.5, b, a, b
    want = [0.5 * (2 * a + b) if k % 2 == 0 else 0.5 * (a + 2 * b) for k in range(len(got))]
    assert got == pytest.approx(want)


def test_flow_propagators_are_built_once_per_distinct_piece(monkeypatch):
    proc = alternating_process(40)
    built = []
    real = flowcore.rk4_maps

    def counted(f1, f2, f3, f4, h):
        built.append(len(f1) if f1.ndim == 3 else 1)
        return real(f1, f2, f3, f4, h)

    monkeypatch.setattr(flowcore, "rk4_maps", counted)
    report = flowcore.ergodicity_report(proc, h=1e-2)
    assert len(report.samples) > 10
    assert sum(built) == 2


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 400), min_size=0, max_size=8),
    st.sampled_from([1e-3, 0.01, 0.1, 0.25, 0.3]),
    st.sampled_from([1e-3, 0.01, 0.02, 0.1, 0.07]),
)
def test_switch_alignment_applies_the_step_rule_to_every_switch(gaps, dwell, h):
    times = tuple(float(t) for t in np.cumsum([0.0, *(g * dwell for g in gaps)]))
    proc = LaplacianProcess(times, np.zeros((len(times), 2, 2)), times[-1] + 1.0)
    try:
        want = [0] + [steps_in_span(t, h, f"switching time {t}") for t in times[1:]]
    except InvalidInputError as exc:
        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(exc))}$"):
            check_switch_alignment(proc, h)
        return
    assert check_switch_alignment(proc, h) == want


@pytest.mark.parametrize("model", RANDOM_MODELS)
def test_a_build_allocates_little_beyond_the_stack_it_keeps(model):
    # the weights are drawn, symmetrized, negated and validated in place;
    # a copy of the stack anywhere would pass this bound
    args = dict(n=64, model=model, dwell=0.5, horizon=60.0, seed=1, B=2)
    random_process(**args)
    tracemalloc.start()
    try:
        proc = random_process(**args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * proc.matrices.nbytes
