import numpy as np
import pytest
import scipy.stats

import oracles
from lela import DegenerateInputError, DenseMatrix, ParameterError
from lela import rng as lrng
from lela.sampling import (
    SampleSet,
    build_plan,
    build_product_plan,
    draw_bernoulli,
    draw_multinomial,
    materialize_product_samples,
)
from oracles import saturating_sample_count


def test_plan_identity_hand_values():
    # m = 4 on the 2x2 identity: diagonal cells get intensity
    # 4 * ((1+1)/(2*4*2) + 1/(2*2)) = 1.5 (clipped to 1), off-diagonal 0.5
    M = DenseMatrix(np.eye(2))
    plan = build_plan(M, 4)
    assert abs(oracles.intensity(plan, 0, 0) - 1.5) < 1e-12
    assert abs(oracles.intensity(plan, 0, 1) - 0.5) < 1e-12
    assert oracles.inclusion_probability(plan, 0, 0) == 1.0
    assert abs(oracles.inclusion_probability(plan, 0, 1) - 0.5) < 1e-12


def test_plan_rejects_zero_budget():
    with pytest.raises(ParameterError):
        build_plan(DenseMatrix(np.eye(2)), 0)


def test_plan_rejects_all_zero_matrix():
    with pytest.raises(DegenerateInputError):
        build_plan(DenseMatrix(np.zeros((3, 3))), 5)


def test_plan_intensities_sum_to_m():
    arr = np.random.default_rng(0).standard_normal((10, 8))
    M = DenseMatrix(arr)
    plan = build_plan(M, 40)
    total = sum(oracles.intensity(plan, i, j) for i in range(10) for j in range(8))
    clipped = sum(oracles.inclusion_probability(plan, i, j) for i in range(10) for j in range(8))
    assert abs(total - 40.0) <= 1e-10 * 40.0
    assert clipped <= 40.0 + 1e-12


def test_plan_row_marginal_sums_to_one():
    arr = np.random.default_rng(1).standard_normal((12, 7))
    plan = build_plan(DenseMatrix(arr), 30)
    assert abs(plan.row_marginal.sum() - 1.0) <= 1e-12


def test_bernoulli_saturation_includes_everything():
    arr = np.random.default_rng(2).standard_normal((6, 5))
    M = DenseMatrix(arr)
    m = saturating_sample_count(M)
    S = draw_bernoulli(build_plan(M, m), seed=3)
    assert S.size == 30
    assert np.all(S.weights == 1.0)
    assert np.allclose(S.vals, arr[S.rows, S.cols])


def test_bernoulli_deterministic():
    M = DenseMatrix(np.random.default_rng(3).standard_normal((9, 7)))
    plan = build_plan(M, 25)
    a = draw_bernoulli(plan, seed=11)
    b = draw_bernoulli(plan, seed=11)
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.cols, b.cols)
    assert np.array_equal(a.vals, b.vals)
    assert np.array_equal(a.weights, b.weights)


def test_bernoulli_inclusion_frequencies_within_four_stderr():
    arr = np.random.default_rng(4).standard_normal((10, 10))
    M = DenseMatrix(arr)
    plan = build_plan(M, 30)
    probs = np.vstack([plan.inclusion_probabilities_row(i) for i in range(10)])
    n_draws = 800
    hits = np.zeros((10, 10))
    for t in range(n_draws):
        S = draw_bernoulli(plan, seed=t)
        hits[S.rows, S.cols] += 1
    freq = hits / n_draws
    stderr = np.sqrt(probs * (1 - probs) / n_draws)
    # saturated cells have zero variance and must always be present
    assert np.all(freq[probs >= 1.0] == 1.0)
    mask = probs < 1.0
    assert np.all(np.abs(freq[mask] - probs[mask]) <= 4 * stderr[mask] + 1e-12)


class _ChoiceRecorder:
    """Stand-in for one row's generator that logs each raw (row, column) draw."""

    def __init__(self, gen, row, log):
        self._gen, self._row, self._log = gen, row, log

    def choice(self, *args, **kwargs):
        draws = self._gen.choice(*args, **kwargs)
        self._log.extend((self._row, int(j)) for j in draws)
        return draws


def record_row_draws(monkeypatch):
    """Log every column the multinomial sampler draws, before deduplication."""
    log = []
    stream = lrng.stream

    def recording_stream(seed, *path):
        gen = stream(seed, *path)
        if path[0] == lrng.TAG_ROW_DRAWS:
            return _ChoiceRecorder(gen, int(path[1]), log)
        return gen

    monkeypatch.setattr(lrng, "stream", recording_stream)
    return log


def test_multinomial_single_row_law_chisquare(monkeypatch):
    arr = np.abs(np.random.default_rng(5).standard_normal((1, 8))) + 0.2
    M = DenseMatrix(arr)
    plan = build_plan(M, 40)
    stats = plan.stats
    weights = 0.5 * stats.col_sq_norms / stats.fro_sq + 0.5 * np.abs(arr[0]) / stats.l11
    law = weights / weights.sum()
    log = record_row_draws(monkeypatch)
    for t in range(50):
        draw_multinomial(plan, seed=t)
    assert len(log) == 50 * 40  # every draw is logged, all from the single row
    assert all(i == 0 for i, _ in log)
    counts = np.bincount([j for _, j in log], minlength=8)
    _, p = scipy.stats.chisquare(counts, law * len(log))
    assert p > 0.001


def test_multinomial_weights_are_reciprocal_bernoulli_probabilities():
    arr = np.random.default_rng(6).standard_normal((8, 6))
    M = DenseMatrix(arr)
    plan = build_plan(M, 20)
    S = draw_multinomial(plan, seed=9)
    for i, j, w in zip(S.rows, S.cols, S.weights):
        assert abs(w - 1.0 / oracles.inclusion_probability(plan, i, j)) <= 1e-12 * w


def test_multinomial_saturated_weights_are_one():
    arr = np.random.default_rng(7).standard_normal((5, 4))
    M = DenseMatrix(arr)
    m = saturating_sample_count(M)
    S = draw_multinomial(build_plan(M, m), seed=1)
    assert np.all(S.weights == 1.0)


def test_multinomial_no_duplicates_and_in_range():
    arr = np.random.default_rng(8).standard_normal((20, 15))
    M = DenseMatrix(arr)
    S = draw_multinomial(build_plan(M, 400), seed=2)
    pairs = set(zip(S.rows.tolist(), S.cols.tolist()))
    assert len(pairs) == S.size
    assert S.rows.min() >= 0 and S.rows.max() < 20
    assert S.cols.min() >= 0 and S.cols.max() < 15


def test_multinomial_deterministic():
    M = DenseMatrix(np.random.default_rng(9).standard_normal((14, 11)))
    plan = build_plan(M, 60)
    a = draw_multinomial(plan, seed=21)
    b = draw_multinomial(plan, seed=21)
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.cols, b.cols)
    assert np.array_equal(a.weights, b.weights)


def test_weighted_reconstruction_unbiased():
    arr = np.random.default_rng(10).standard_normal((15, 15))
    M = DenseMatrix(arr)
    plan = build_plan(M, 60)
    probs = np.vstack([plan.inclusion_probabilities_row(i) for i in range(15)])
    n_draws = 2000
    acc = np.zeros((15, 15))
    for t in range(n_draws):
        S = draw_bernoulli(plan, seed=t)
        R = np.zeros((15, 15))
        R[S.rows, S.cols] = S.vals * S.weights
        acc += R
    mean = acc / n_draws
    var = (1.0 / probs - 1.0) * arr**2  # per-cell variance of the weighted value
    stderr = np.sqrt(var / n_draws)
    assert np.abs(mean - arr).max() <= 5 * max(stderr.max(), 1e-12)


def test_sample_counter_budget():
    arr = np.random.default_rng(11).standard_normal((40, 30))
    M = DenseMatrix(arr)
    S = draw_multinomial(build_plan(M, 300), seed=0)
    nnz = np.count_nonzero(arr)
    budget = 4 * (nnz + 300 * np.ceil(np.log2(30)))
    assert 0 < oracles.multinomial_work(S, 300) <= budget


def test_product_plan_identity_hand_values():
    A = DenseMatrix(np.eye(2))
    B = DenseMatrix(np.eye(2))
    plan = build_product_plan(A, B, 4)
    for i in range(2):
        for j in range(2):
            assert abs(oracles.intensity(plan, i, j) - 2.0) < 1e-12
            assert oracles.inclusion_probability(plan, i, j) == 1.0


def test_product_plan_rejects_zero_matrix():
    with pytest.raises(DegenerateInputError):
        build_product_plan(DenseMatrix(np.zeros((2, 3))), DenseMatrix(np.ones((3, 2))), 4)


def test_product_plan_rejects_dimension_mismatch():
    with pytest.raises(ParameterError):
        build_product_plan(DenseMatrix(np.ones((2, 3))), DenseMatrix(np.ones((2, 3))), 4)


def test_product_plan_intensities_sum_to_two_m():
    g = np.random.default_rng(12)
    A = DenseMatrix(g.standard_normal((6, 3)))
    B = DenseMatrix(g.standard_normal((3, 5)))
    plan = build_product_plan(A, B, 30)
    total = sum(oracles.intensity(plan, i, j) for i in range(6) for j in range(5))
    assert abs(total - 60.0) <= 1e-10 * 60.0


def test_product_samples_saturated_identity():
    A = DenseMatrix(np.eye(2))
    B = DenseMatrix(np.eye(2))
    S = materialize_product_samples(build_product_plan(A, B, 4), seed=0)
    assert S.size == 4
    assert np.all(S.weights == 1.0)
    dense = np.zeros((2, 2))
    dense[S.rows, S.cols] = S.vals
    assert np.array_equal(dense, np.eye(2))


def test_product_sample_values_match_dense_product():
    g = np.random.default_rng(13)
    A = DenseMatrix(g.standard_normal((8, 4)))
    B = DenseMatrix(g.standard_normal((4, 8)))
    S = materialize_product_samples(build_product_plan(A, B, 40), seed=5)
    dense = A.data @ B.data
    truth = dense[S.rows, S.cols]
    assert np.all(np.abs(S.vals - truth) <= 1e-12 * np.maximum(np.abs(truth), 1.0))


def test_product_samples_deterministic():
    g = np.random.default_rng(14)
    A = DenseMatrix(g.standard_normal((5, 3)))
    B = DenseMatrix(g.standard_normal((3, 6)))
    plan = build_product_plan(A, B, 12)
    s1 = materialize_product_samples(plan, seed=8)
    s2 = materialize_product_samples(plan, seed=8)
    assert np.array_equal(s1.rows, s2.rows)
    assert np.array_equal(s1.vals, s2.vals)


def test_sampleset_rejects_duplicates():
    with pytest.raises(ParameterError):
        SampleSet(3, 3, [0, 0], [1, 1], [1.0, 2.0], [1.0, 1.0])


def test_sampleset_rejects_unsorted_duplicates():
    with pytest.raises(ParameterError):
        SampleSet(3, 3, [1, 0, 1], [2, 0, 2], [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])


@pytest.mark.parametrize("rows, cols", [([2, 0, 1, 0], [1, 3, 0, 1]), ([0, 0, 1, 2], [3, 1, 0, 1])])
def test_sampleset_sorts_unsorted_input(rows, cols):
    vals = 10.0 * np.array(rows) + np.array(cols)
    S = SampleSet(3, 4, rows, cols, vals, vals + 1.0)
    assert S.rows.tolist() == [0, 0, 1, 2]
    assert S.cols.tolist() == [1, 3, 0, 1]
    assert S.vals.tolist() == [1.0, 3.0, 10.0, 21.0]
    assert S.weights.tolist() == [2.0, 4.0, 11.0, 22.0]


def test_weighted_operator_bitwise_equal_to_coo_matrix():
    g = np.random.default_rng(17)
    M = DenseMatrix(g.standard_normal((23, 17)))
    S = draw_bernoulli(build_plan(M, 150), seed=3)
    ref = oracles.weighted_coo_csr(S)
    op = S.weighted_operator()
    x = np.asfortranarray(g.standard_normal((17, 3)))
    y = g.standard_normal((23, 3))
    assert np.array_equal(op.mv(x).view(np.int64), (ref @ x).view(np.int64))
    assert np.array_equal(op.rmv(y).view(np.int64), (ref.T @ y).view(np.int64))


def test_sampleset_rejects_bad_weight():
    with pytest.raises(ParameterError):
        SampleSet(2, 2, [0], [0], [1.0], [0.0])


def test_inclusion_probabilities_in_unit_interval():
    arr = np.random.default_rng(16).standard_normal((9, 7))
    M = DenseMatrix(arr)
    for m in (5, 50, 500):
        plan = build_plan(M, m)
        for i in range(9):
            p = plan.inclusion_probabilities_row(i)
            assert np.all(p > 0.0) and np.all(p <= 1.0)
