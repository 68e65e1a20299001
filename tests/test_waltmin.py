import numpy as np
import pytest
import scipy.sparse

import lela.sampling as lela_sampling
import lela.waltmin as lela_waltmin
import oracles
from lela import DegenerateInputError, DenseMatrix, Factorization, ParameterError
from lela.linalg import Grouping, topk_svd
from lela.sampling import SampleSet, build_plan, draw_bernoulli
from lela.waltmin import (
    TRIM_FACTOR,
    als_half_step,
    initialize,
    waltmin,
)
from oracles import objective


def full_sample_set(arr, weights=None):
    n, d = arr.shape
    rows, cols = np.meshgrid(np.arange(n), np.arange(d), indexing="ij")
    rows, cols = rows.ravel(), cols.ravel()
    w = np.ones(rows.size) if weights is None else weights
    return oracles.coo_sample_set(n, d, rows, cols, arr[rows, cols], w)


def trim_scores(arr):
    """The row scores a sampling plan of arr hands to the solver."""
    return build_plan(DenseMatrix(arr), 1).row_trim_scores()


def trimmed_rows(S, scores, r, seed):
    """The rows the trimming rule zeroes in ``topk_svd``'s untrimmed factor."""
    U, _ = topk_svd(S.weighted_csr(), r, seed=seed)
    return np.flatnonzero(np.linalg.norm(U, axis=1) >= TRIM_FACTOR * scores)


def gapped_matrix(n, d, r, seed, tail=0.05):
    g = np.random.default_rng(seed)
    U = oracles.modified_gram_schmidt(g.standard_normal((n, min(n, d))))
    V = oracles.modified_gram_schmidt(g.standard_normal((d, min(n, d))))
    sigma = np.concatenate([np.linspace(3.0, 2.0, r), tail * np.linspace(1.0, 0.1, min(n, d) - r)])
    return U @ np.diag(sigma) @ V.T, sigma


def test_initialize_fully_observed_rank_one():
    g = np.random.default_rng(3)
    u = g.standard_normal(12)
    v = g.standard_normal(9)
    arr = np.outer(u, v)
    S, scores = full_sample_set(arr), trim_scores(arr)
    u0 = initialize(S, scores, 1, seed=0)
    assert trimmed_rows(S, scores, 1, seed=0).size == 0
    uu = u / np.linalg.norm(u)
    assert abs(abs(uu @ u0[:, 0]) - 1.0) <= 1e-10


def _heavy_row_setup(seed):
    """Row 0 of M is tiny, but its samples carry huge weights, so the
    reweighted operator concentrates on it and the trimming rule fires:
    the initial factor's row-0 norm approaches 1 while 4 |M^0| / |M|_F
    stays far below it."""
    g = np.random.default_rng(seed)
    arr = g.standard_normal((8, 6))
    arr[0] *= 0.01
    weights = np.ones(48)
    weights[:6] = 1.0e4  # row-major full sample set puts row 0 first
    S = full_sample_set(arr, weights=weights)
    return arr, trim_scores(arr), S


def test_initialize_trims_row_with_tiny_score():
    arr, scores, S = _heavy_row_setup(4)
    assert TRIM_FACTOR * scores[0] < 1.0  # the bar is reachable
    u0 = initialize(S, scores, 2, seed=1)
    trimmed = trimmed_rows(S, scores, 2, seed=1)
    assert 0 in trimmed.tolist()
    # hand check of the rule on the untrimmed factor of the same operator
    U, _ = topk_svd(S.weighted_csr(), 2, seed=1)
    assert np.linalg.norm(U[0]) >= TRIM_FACTOR * scores[0]
    # trimmed rows are exactly zero before QR; QR leaves only rounding noise
    assert np.abs(u0[trimmed]).max() <= 1e-12


def test_initialize_trimming_idempotent():
    arr, scores, S = _heavy_row_setup(5)
    u0 = initialize(S, scores, 2, seed=2)
    assert trimmed_rows(S, scores, 2, seed=2).size > 0
    trimmed_again = u0.copy()
    norms = np.linalg.norm(trimmed_again, axis=1)
    trimmed_again[norms >= TRIM_FACTOR * scores] = 0.0
    assert np.array_equal(trimmed_again, u0)


def test_initialize_deterministic():
    arr = np.random.default_rng(6).standard_normal((7, 7))
    scores = trim_scores(arr)
    S = full_sample_set(arr)
    a = initialize(S, scores, 3, seed=5)
    b = initialize(S, scores, 3, seed=5)
    assert np.array_equal(a, b)


def test_initialize_all_rows_trimmed_is_degenerate():
    arr = np.random.default_rng(7).standard_normal((5, 5))
    with pytest.raises(DegenerateInputError):
        initialize(full_sample_set(arr), np.zeros(5), 2, seed=0)


def test_initialize_empty_set_is_degenerate():
    empty = SampleSet(3, 3, [0, 0, 0, 0], [], [], [])
    with pytest.raises(DegenerateInputError):
        initialize(empty, trim_scores(np.eye(3)), 1, seed=0)


def test_half_step_rank_one_exact():
    g = np.random.default_rng(8)
    u = g.standard_normal(10)
    v = g.standard_normal(7)
    arr = np.outer(u, v)
    S = full_sample_set(arr)
    fixed = (u / np.linalg.norm(u)).reshape(-1, 1)
    V_new = als_half_step(fixed, S.by_col())
    assert np.allclose(V_new[:, 0], np.linalg.norm(u) * v, atol=1e-10)


def test_half_step_zero_factor_gives_zero():
    arr = np.random.default_rng(9).standard_normal((6, 4))
    S = full_sample_set(arr)
    V_new = als_half_step(np.zeros((6, 2)), S.by_col())
    assert np.array_equal(V_new, np.zeros((4, 2)))


def test_half_step_never_increases_objective():
    g = np.random.default_rng(10)
    arr = g.standard_normal((12, 10))
    M = DenseMatrix(arr)
    plan = build_plan(M, 70)
    S = draw_bernoulli(plan, seed=4)
    U = g.standard_normal((12, 2))
    before = objective(S, Factorization(U, np.zeros((10, 2))))
    V_new = als_half_step(U, S.by_col())
    after = objective(S, Factorization(U, V_new))
    assert after <= before + 1e-12 * max(before, 1.0)
    U_new = als_half_step(V_new, S.by_row())
    assert objective(S, Factorization(U_new, V_new)) <= after + 1e-12 * max(after, 1.0)


def test_half_step_matches_public_ls_solver():
    g = np.random.default_rng(11)
    arr = g.standard_normal((9, 6))
    M = DenseMatrix(arr)
    S = draw_bernoulli(build_plan(M, 30), seed=1)
    U = g.standard_normal((9, 2))
    V_new = als_half_step(U, S.by_col())
    rows = oracles.row_ids(S)
    for j in range(6):
        targets = [
            (S.weights[k], S.vals[k], U[rows[k]]) for k in np.flatnonzero(S.cols == j)
        ]
        assert np.allclose(V_new[j], oracles.solve_weighted_row_ls(targets, 2), atol=1e-10)


def test_half_step_reports_unobserved():
    # only column 0 and rows 0 and 1 are observed
    S = SampleSet(4, 3, [0, 1, 2, 2, 2], [0, 0], [1.0, 2.0], [1.0, 1.0])
    V_new = als_half_step(np.eye(4)[:, :2], S.by_col())
    assert np.flatnonzero(np.any(V_new != 0.0, axis=1)).tolist() == [0]
    U_new = als_half_step(np.eye(3)[:, :2], S.by_row())
    assert np.flatnonzero(np.any(U_new != 0.0, axis=1)).tolist() == [0, 1]


def test_waltmin_full_data_matches_truncated_svd():
    arr, sigma = gapped_matrix(30, 20, 2, seed=12)
    S = full_sample_set(arr)
    F = waltmin(S, trim_scores(arr), 2, 3, seed=0)
    U, s, Vt = np.linalg.svd(arr)
    truth = (U[:, :2] * s[:2]) @ Vt[:2]
    assert oracles.spectral_norm_dense(F.u @ F.v.T - truth) <= 1e-6


def test_waltmin_rejects_zero_iterations():
    arr = np.random.default_rng(12).standard_normal((5, 4))
    with pytest.raises(ParameterError):
        waltmin(full_sample_set(arr), trim_scores(arr), 2, 0)


def test_waltmin_scaling_invariance():
    g = np.random.default_rng(13)
    arr = g.standard_normal((15, 12))
    M = DenseMatrix(arr)
    plan = build_plan(M, 140)
    S = draw_bernoulli(plan, seed=2)
    scaled = SampleSet(S.n, S.d, S.indptr, S.cols, 7.5 * S.vals, S.weights)
    F1 = waltmin(S, plan.row_trim_scores(), 3, 4, seed=5)
    F2 = waltmin(scaled, trim_scores(7.5 * arr), 3, 4, seed=5)
    P1, P2 = F1.u @ F1.v.T, F2.u @ F2.v.T
    assert np.all(np.abs(P2 - 7.5 * P1) <= 1e-10 * np.maximum(np.abs(7.5 * P1), 1.0))


def test_waltmin_output_rank_exact():
    arr = np.random.default_rng(14).standard_normal((10, 8))
    M = DenseMatrix(arr)
    plan = build_plan(M, 60)
    S = draw_bernoulli(plan, seed=3)
    for r in (1, 2, 4):
        F = waltmin(S, plan.row_trim_scores(), r, 2, seed=0)
        assert F.rank == r
        assert F.shape == (10, 8)


def test_waltmin_objective_trace_nonincreasing_reuse(monkeypatch):
    arr = np.random.default_rng(15).standard_normal((14, 12))
    M = DenseMatrix(arr)
    plan = build_plan(M, 130)
    S = draw_bernoulli(plan, seed=6)
    trace = []

    def traced_half_step(fixed, layout, eig_floor=0.0):
        # the training objective after every half step, read from outside;
        # the column step's layout is the CSC transpose of the row one
        factor = als_half_step(fixed, layout, eig_floor=eig_floor)
        u, v = (fixed, factor) if layout.w.format == "csc" else (factor, fixed)
        trace.append(objective(S, Factorization(u, v)))
        return factor

    monkeypatch.setattr(lela_waltmin, "als_half_step", traced_half_step)
    waltmin(S, plan.row_trim_scores(), 2, 6, seed=1)
    assert len(trace) == 12
    scale = max(trace[0], 1.0)
    assert all(b <= a + 1e-12 * scale for a, b in zip(trace, trace[1:]))


def test_waltmin_rounds_stop_at_their_fixed_point(monkeypatch):
    # iterations is a cap: a run stops once a round leaves U in place, so a
    # larger cap returns the same bits
    arr, _ = gapped_matrix(30, 20, 2, seed=12)
    plan = build_plan(DenseMatrix(arr), 400)
    S = draw_bernoulli(plan, seed=2)
    layouts = []

    def counted_half_step(fixed, layout, eig_floor=0.0):
        layouts.append(layout.w.format)
        return als_half_step(fixed, layout, eig_floor=eig_floor)

    monkeypatch.setattr(lela_waltmin, "als_half_step", counted_half_step)
    waltmin(S, plan.row_trim_scores(), 2, 50, seed=0)
    rounds = len(layouts) // 2
    assert 1 < rounds < 50
    F = waltmin(S, plan.row_trim_scores(), 2, rounds, seed=0)
    G = waltmin(S, plan.row_trim_scores(), 2, rounds + 20, seed=0)
    assert np.array_equal(F.u, G.u) and np.array_equal(F.v, G.v)
    layouts.clear()
    waltmin(S, plan.row_trim_scores(), 2, 1, seed=0)
    assert layouts == ["csc", "csr"]  # one round: the V half step, then the U one


def test_waltmin_reuse_builds_one_layout(monkeypatch):
    arr = np.random.default_rng(18).standard_normal((14, 11))
    plan = build_plan(DenseMatrix(arr), 120)
    S = draw_bernoulli(plan, seed=2)
    built = []

    def counted_grouping(w, wy):
        built.append((w.format, w.shape))
        return Grouping(w, wy)

    monkeypatch.setattr(lela_sampling, "Grouping", counted_grouping)
    waltmin(S, plan.row_trim_scores(), 2, 4, seed=1)
    # one by-row CSR pair; each of the 4 column half steps wraps its CSC transposes
    assert built == [("csr", (14, 11))] + [("csc", (11, 14))] * 4


def test_half_steps_build_no_sparse_matrix(monkeypatch):
    arr = np.random.default_rng(19).standard_normal((20, 16))
    plan = build_plan(DenseMatrix(arr), 200)
    real_csr = scipy.sparse.csr_matrix
    built = []

    def counted_csr(*args, **kwargs):
        built.append(1)
        return real_csr(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse, "csr_matrix", counted_csr)
    counts = []
    for iterations in (1, 3):
        S = draw_bernoulli(plan, seed=2)
        built.clear()
        waltmin(S, plan.row_trim_scores(), 5, iterations, seed=1)
        counts.append(len(built))
    # the layouts are built on first use; every later half step reuses them
    assert counts[0] == counts[1]
    assert S.weighted_csr() is S.weighted_csr()


def test_waltmin_exact_recovery_bernoulli():
    n = d = 100
    r = 2
    m = int(25 * n * r * np.log(n))
    ok = 0
    for seed in range(3):
        g = np.random.default_rng(100 + seed)
        U = oracles.modified_gram_schmidt(g.standard_normal((n, r)))
        V = oracles.modified_gram_schmidt(g.standard_normal((d, r)))
        arr = U @ V.T
        M = DenseMatrix(arr)
        plan = build_plan(M, m)
        S = draw_bernoulli(plan, seed=seed)
        F = waltmin(S, plan.row_trim_scores(), r, 20, seed=seed)
        rel = np.linalg.norm(arr - F.u @ F.v.T) / np.linalg.norm(arr)
        ok += rel <= 1e-3
    assert ok == 3


def test_initialization_quality_on_sampled_rank_r():
    # distance to the true left factor stays below 1/2 for nearly all seeds
    n = d = 100
    r = 2
    m = int(25 * n * r * np.log(n))
    good = 0
    trials = 20
    for seed in range(trials):
        g = np.random.default_rng(200 + seed)
        U = oracles.modified_gram_schmidt(g.standard_normal((n, r)))
        V = oracles.modified_gram_schmidt(g.standard_normal((d, r)))
        arr = U @ V.T
        M = DenseMatrix(arr)
        plan = build_plan(M, m)
        S = draw_bernoulli(plan, seed=seed)
        u0 = initialize(S, plan.row_trim_scores(), r, seed=seed)
        u_perp = np.eye(n) - U @ U.T
        dist = oracles.spectral_norm_dense(u_perp @ u0)
        good += dist <= 0.5
    assert good >= 0.9 * trials


def test_objective_trivial_cases():
    arr = np.random.default_rng(18).standard_normal((6, 5))
    S = full_sample_set(arr, weights=np.full(30, 2.0))
    q, rmat = np.linalg.qr(arr)
    exact = Factorization(q, rmat.T)
    assert objective(S, exact) <= 1e-18
    zero = Factorization(np.zeros((6, 2)), np.zeros((5, 2)))
    naive = sum(2.0 * arr[i, j] ** 2 for i in range(6) for j in range(5))
    assert abs(objective(S, zero) - naive) <= 1e-10 * naive


def test_objective_matches_naive_loop():
    g = np.random.default_rng(19)
    arr = g.standard_normal((7, 6))
    M = DenseMatrix(arr)
    S = draw_bernoulli(build_plan(M, 25), seed=7)
    F = Factorization(g.standard_normal((7, 2)), g.standard_normal((6, 2)))
    naive = 0.0
    rows = oracles.row_ids(S)
    for k in range(S.size):
        pred = F.u[rows[k]] @ F.v[S.cols[k]]
        naive += S.weights[k] * (S.vals[k] - pred) ** 2
    assert abs(objective(S, F) - naive) <= 1e-10 * naive

