import numpy as np
import pytest
import scipy.stats

import oracles
from lela import DegenerateInputError, DenseMatrix, ParameterError
from lela import rng as lrng
from lela import sampling
from lela.distpca import PARTITION_POLICIES, CommLedger, dist_sample, partition_rows
from lela.sampling import (
    SampleSet,
    build_plan,
    build_product_plan,
    draw_bernoulli,
    draw_multinomial,
    materialize_product_samples,
)
from oracles import coo_sample_set, row_ids, saturating_sample_count


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
    row_marginal, _ = oracles.multinomial_tables(plan)
    assert abs(row_marginal.sum() - 1.0) <= 1e-12


def test_bernoulli_saturation_includes_everything():
    arr = np.random.default_rng(2).standard_normal((6, 5))
    M = DenseMatrix(arr)
    m = saturating_sample_count(M)
    S = draw_bernoulli(build_plan(M, m), seed=3)
    assert S.size == 30
    assert np.all(S.weights == 1.0)
    assert np.allclose(S.vals, arr[row_ids(S), S.cols])


def test_bernoulli_deterministic():
    M = DenseMatrix(np.random.default_rng(3).standard_normal((9, 7)))
    plan = build_plan(M, 25)
    a = draw_bernoulli(plan, seed=11)
    b = draw_bernoulli(plan, seed=11)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.cols, b.cols)
    assert np.array_equal(a.vals, b.vals)
    assert np.array_equal(a.weights, b.weights)


def test_bernoulli_inclusion_frequencies_within_four_stderr():
    arr = np.random.default_rng(4).standard_normal((10, 10))
    M = DenseMatrix(arr)
    plan = build_plan(M, 30)
    probs = plan.law.block(0, 10)
    n_draws = 800
    hits = np.zeros((10, 10))
    for t in range(n_draws):
        S = draw_bernoulli(plan, seed=t)
        hits[row_ids(S), S.cols] += 1
    freq = hits / n_draws
    stderr = np.sqrt(probs * (1 - probs) / n_draws)
    # saturated cells have zero variance and must always be present
    assert np.all(freq[probs >= 1.0] == 1.0)
    mask = probs < 1.0
    assert np.all(np.abs(freq[mask] - probs[mask]) <= 4 * stderr[mask] + 1e-12)


class _RandomRecorder:
    """Stand-in for one row's generator that logs the uniforms it hands out."""

    def __init__(self, gen, row, log):
        self._gen, self._row, self._log = gen, row, log

    def random(self, *args, **kwargs):
        u = self._gen.random(*args, **kwargs)
        self._log.append((self._row, u.copy()))
        return u


def record_row_uniforms(monkeypatch):
    """Log every uniform the multinomial sampler draws for its columns."""
    log = []
    row_streams = lrng.row_streams

    def recording_row_streams(seed, tag, rows):
        streams = row_streams(seed, tag, rows)
        if tag == lrng.TAG_ROW_DRAWS:
            return (_RandomRecorder(g, int(i), log) for i, g in zip(rows, streams))
        return streams

    monkeypatch.setattr(lrng, "row_streams", recording_row_streams)
    return log


def test_multinomial_single_row_law_chisquare(monkeypatch):
    arr = np.abs(np.random.default_rng(5).standard_normal((1, 8))) + 0.2
    M = DenseMatrix(arr)
    plan = build_plan(M, 40)
    stats = plan.stats
    weights = 0.5 * stats.col_sq_norms / stats.fro_sq + 0.5 * np.abs(arr[0]) / stats.l11
    law = weights / weights.sum()
    cdf = np.cumsum(law)
    cdf /= cdf[-1]
    log = record_row_uniforms(monkeypatch)
    drawn = []
    for t in range(50):
        log.clear()
        S = draw_multinomial(plan, seed=t)
        assert all(i == 0 for i, _ in log)  # every draw is from the single row
        cols = np.searchsorted(cdf, np.concatenate([u for _, u in log]), side="right")
        assert np.array_equal(S.cols, np.unique(cols))
        drawn.append(cols)
    drawn = np.concatenate(drawn)
    assert drawn.size == 50 * 40  # every draw is logged
    counts = np.bincount(drawn, minlength=8)
    _, p = scipy.stats.chisquare(counts, law * drawn.size)
    assert p > 0.001


def test_multinomial_weights_are_reciprocal_bernoulli_probabilities():
    arr = np.random.default_rng(6).standard_normal((8, 6))
    M = DenseMatrix(arr)
    plan = build_plan(M, 20)
    S = draw_multinomial(plan, seed=9)
    for i, j, w in zip(row_ids(S), S.cols, S.weights):
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
    rows = row_ids(S)
    pairs = set(zip(rows.tolist(), S.cols.tolist()))
    assert len(pairs) == S.size
    assert rows.min() >= 0 and rows.max() < 20
    assert S.cols.min() >= 0 and S.cols.max() < 15


def test_multinomial_deterministic():
    M = DenseMatrix(np.random.default_rng(9).standard_normal((14, 11)))
    plan = build_plan(M, 60)
    a = draw_multinomial(plan, seed=21)
    b = draw_multinomial(plan, seed=21)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.cols, b.cols)
    assert np.array_equal(a.weights, b.weights)


def test_weighted_reconstruction_unbiased():
    arr = np.random.default_rng(10).standard_normal((15, 15))
    M = DenseMatrix(arr)
    plan = build_plan(M, 60)
    probs = plan.law.block(0, 15)
    n_draws = 2000
    acc = np.zeros((15, 15))
    for t in range(n_draws):
        S = draw_bernoulli(plan, seed=t)
        R = np.zeros((15, 15))
        R[row_ids(S), S.cols] = S.vals * S.weights
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
    dense[row_ids(S), S.cols] = S.vals
    assert np.array_equal(dense, np.eye(2))


def test_product_sample_values_match_dense_product():
    g = np.random.default_rng(13)
    A = DenseMatrix(g.standard_normal((8, 4)))
    B = DenseMatrix(g.standard_normal((4, 8)))
    S = materialize_product_samples(build_product_plan(A, B, 40), seed=5)
    dense = A.data @ B.data
    truth = dense[row_ids(S), S.cols]
    assert np.all(np.abs(S.vals - truth) <= 1e-12 * np.maximum(np.abs(truth), 1.0))


def test_product_samples_deterministic():
    g = np.random.default_rng(14)
    A = DenseMatrix(g.standard_normal((5, 3)))
    B = DenseMatrix(g.standard_normal((3, 6)))
    plan = build_product_plan(A, B, 12)
    s1 = materialize_product_samples(plan, seed=8)
    s2 = materialize_product_samples(plan, seed=8)
    assert np.array_equal(s1.indptr, s2.indptr)
    assert np.array_equal(s1.vals, s2.vals)


def test_sparse_product_fill_is_bitwise_the_oracle():
    # about 4% of each block's cells kept, under the 1/16 rule: every block
    # takes the per-row path, whose GEMVs sum as the oracle's do
    g = np.random.default_rng(15)
    A = DenseMatrix(g.standard_normal((200, 37)))
    B = DenseMatrix(g.standard_normal((37, 1000)))
    plan = build_product_plan(A, B, 200 * 1000 // 50)
    got = materialize_product_samples(plan, seed=3)
    for start, stop in sampling.row_blocks(200, 1000):
        ks = row_ids(got)[got.indptr[start]:got.indptr[stop]]
        assert sampling.GEMM_FILL_RATIO * ks.size < (ks[-1] + 1 - ks[0]) * 1000
    assert_bitwise_equal(got, oracles.materialize_product_samples(plan, seed=3))


def test_sampleset_rejects_duplicates():
    with pytest.raises(ParameterError, match="rise strictly"):
        coo_sample_set(3, 3, [0, 0], [1, 1], [1.0, 2.0], [1.0, 1.0])


def test_sampleset_rejects_unsorted_duplicates():
    with pytest.raises(ParameterError, match="rise strictly"):
        coo_sample_set(3, 3, [1, 0, 1], [2, 0, 2], [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])


def test_weighted_csr_bitwise_equal_to_coo_matrix():
    g = np.random.default_rng(17)
    M = DenseMatrix(g.standard_normal((23, 17)))
    S = draw_bernoulli(build_plan(M, 150), seed=3)
    ref = oracles.weighted_coo_csr(S)
    csr = S.weighted_csr()
    x = np.asfortranarray(g.standard_normal((17, 3)))
    y = g.standard_normal((23, 3))
    assert np.array_equal((csr @ x).view(np.int64), (ref @ x).view(np.int64))
    assert np.array_equal((csr.T @ y).view(np.int64), (ref.T @ y).view(np.int64))


def test_by_col_is_a_view_of_the_by_row_layout():
    M = DenseMatrix(np.random.default_rng(17).standard_normal((23, 17)))
    S = draw_bernoulli(build_plan(M, 150), seed=3)
    by_row, by_col = S.by_row(), S.by_col()
    for built, view in ((by_row.w, by_col.w), (by_row.wy, by_col.wy)):
        assert (built.format, view.format) == ("csr", "csc")
        assert view.shape == (17, 23)
        for part in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(built, part), getattr(view, part))
    # the layout wraps the held arrays: by_row() copies none of them
    assert np.shares_memory(by_row.w.indptr, S.indptr)
    assert np.shares_memory(by_row.w.indices, S.cols)
    assert np.shares_memory(by_row.w.data, S.weights)


def test_observed_cols_are_the_distinct_columns():
    g = np.random.default_rng(18)
    rows = np.repeat(np.arange(30), 4)
    cols = np.concatenate([g.choice(40, 4, replace=False) for _ in range(30)])
    sets = [
        SampleSet(3, 5, [0, 0, 0, 0], [], [], []),
        SampleSet(3, 5, [0, 1, 1, 2], [4, 4], [1.0, 2.0], [1.0, 1.0]),
        coo_sample_set(30, 40, rows, cols, g.standard_normal(120), 1.0 + g.random(120)),
    ]
    for S in sets:
        got = S.observed_cols()
        assert got.dtype == np.intp and np.array_equal(got, np.unique(S.cols))


def test_sampleset_rejects_bad_weight():
    with pytest.raises(ParameterError):
        SampleSet(2, 2, [0, 1, 1], [0], [1.0], [0.0])


@pytest.mark.parametrize(
    "indptr, cols, vals, message",
    [
        ([0, 1, 2], [0], [1.0, 2.0], "identical lengths"),
        ([0, 2], [0, 1], [1.0, 2.0], "row pointer"),  # n entries, not n + 1
        ([1, 1, 2], [0, 1], [1.0, 2.0], "row pointer"),  # does not start at 0
        ([0, 2, 1], [0], [1.0], "row pointer"),  # falls, from 0 to the entry count
        ([0, 1, 1], [0, 1], [1.0, 2.0], "row pointer"),  # ends short of the entry count
        ([0, 1, 2], [0, 3], [1.0, 2.0], "column index out of range"),
        ([0, 1, 2], [-1, 0], [1.0, 2.0], "column index out of range"),
        ([0, 2, 2], [2, 1], [1.0, 2.0], "rise strictly"),  # a column falls within row 0
    ],
)
def test_sampleset_rejects_malformed_entries(indptr, cols, vals, message):
    with pytest.raises(ParameterError, match=message):
        SampleSet(2, 3, indptr, cols, vals, np.ones(len(vals)))


def test_inclusion_probabilities_in_unit_interval():
    arr = np.random.default_rng(16).standard_normal((9, 7))
    M = DenseMatrix(arr)
    for m in (5, 50, 500):
        plan = build_plan(M, m)
        p = plan.law.block(0, 9)
        assert p.shape == (9, 7)
        assert np.all(p > 0.0) and np.all(p <= 1.0)


# Shapes of the bitwise oracle comparison: single cells, rows and columns, a
# 40-row matrix whose 32-row default blocks leave an 8-row remainder, and a
# row longer than a default block, so that every block holds one row.
ORACLE_SHAPES = [(1, 1), (1, 7), (3, 1), (37, 11), (40, 2000), (2, sampling.BLOCK_CELLS + 3)]


def assert_bitwise_equal(a, b):
    for field in ("indptr", "cols", "vals", "weights"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype and x.shape == y.shape, field
        assert x.tobytes() == y.tobytes(), field


def assert_product_fill_matches(got, want, a, b):
    """``got``, the product fill, against ``want``, the row-at-a-time oracle.

    Cells and weights are the oracle's bit for bit.  Per sampler block, a
    block under the density rule has the oracle's values bit for bit; a block
    at or above it reads one GEMM over its kept rows' span, and each value
    lies within the dot-product rounding bound 2 gamma_k sum_l |a_il| |b_lj|
    of the oracle's, gamma_k = k u / (1 - k u).
    """
    for field in ("indptr", "cols", "weights"):
        x, y = getattr(got, field), getattr(want, field)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field
    k, d = b.shape
    ku = k * np.finfo(float).eps / 2
    rows = row_ids(got)
    for start, stop in sampling.row_blocks(got.n, d):
        sel = slice(got.indptr[start], got.indptr[stop])
        ks, js, vals, ref = rows[sel], got.cols[sel], got.vals[sel], want.vals[sel]
        if not ks.size:
            continue
        lo, hi = ks[0], ks[-1] + 1
        if sampling.GEMM_FILL_RATIO * ks.size < (hi - lo) * d:
            assert vals.tobytes() == ref.tobytes()
            continue
        assert vals.tobytes() == (a[lo:hi] @ b)[ks - lo, js].tobytes()
        bound = 2 * ku / (1 - ku) * (np.abs(a[lo:hi]) @ np.abs(b))[ks - lo, js]
        assert np.all(np.abs(vals - ref) <= bound)


def _budgets(n, d):
    # lean (leaves rows without a multinomial draw), medium and saturating
    return (max(1, n * d // 50), max(1, n * d // 4), 2 * n * d)


@pytest.mark.parametrize("block_cells", [None, 1])
@pytest.mark.parametrize("shape", ORACLE_SHAPES)
@pytest.mark.parametrize("kind", ["bernoulli", "multinomial", "product", "distpca"])
def test_blocked_samplers_bitwise_equal_to_rowwise_oracles(monkeypatch, kind, shape, block_cells):
    if block_cells is not None:
        monkeypatch.setattr(sampling, "BLOCK_CELLS", block_cells)
    n, d = shape
    g = np.random.default_rng(n * 1009 + d)
    arr = g.standard_normal((n, d)) * (g.random((n, d)) < 0.8)
    arr[0, 0] = 1.0  # never all zero
    M = DenseMatrix(arr)
    for m in _budgets(n, d):
        for seed in (0, 5):
            if kind == "distpca":
                for policy in PARTITION_POLICIES:
                    s = min(3, n)
                    shards = partition_rows(M, s, policy, seed=seed)
                    ref_shards = partition_rows(M, s, policy, seed=seed)
                    ledger, ref_ledger = CommLedger(), CommLedger()
                    dist_sample(shards, m, ledger, seed=seed)
                    oracles.dist_sample(ref_shards, m, ref_ledger, seed=seed)
                    for sh, ref in zip(shards, ref_shards):
                        assert_bitwise_equal(sh.local_samples, ref.local_samples)
                    assert ledger.totals_by_kind == ref_ledger.totals_by_kind
                continue
            if kind == "product":
                k = 37  # long enough for a change of summation order to show
                A = DenseMatrix(g.standard_normal((n, k)))
                B = DenseMatrix(g.standard_normal((k, d)))
                plan = build_product_plan(A, B, m)
                new, ref = materialize_product_samples, oracles.materialize_product_samples
                audited = (A, B)
            else:
                plan = build_plan(M, m)
                if kind == "bernoulli":
                    new, ref = draw_bernoulli, oracles.draw_bernoulli
                else:
                    new, ref = draw_multinomial, oracles.draw_multinomial
                audited = (M,)
            before = [X.pass_count for X in audited]
            got = new(plan, seed=seed)
            mid = [X.pass_count for X in audited]
            want = ref(plan, seed=seed)
            after = [X.pass_count for X in audited]
            if kind == "product":
                assert_product_fill_matches(got, want, A.data, B.data)
            else:
                assert_bitwise_equal(got, want)
            assert [b - a for a, b in zip(before, mid)] == [b - a for a, b in zip(mid, after)]
