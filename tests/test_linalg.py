import numpy as np
import pytest

import oracles
from lela import (
    DegenerateInputError,
    DenseMatrix,
    Factorization,
    LinearOperator,
    ParameterError,
    compute_stats,
    low_rank_diff_spectral_norm,
    qr_orthonormalize,
    spectral_error,
    topk_svd,
)
from lela.linalg import pseudo_solve_spd_batch


def dense_op(arr):
    return LinearOperator(*arr.shape, lambda x: arr @ x, lambda y: arr.T @ y)


def test_dense_matrix_rejects_nonfinite():
    with pytest.raises(DegenerateInputError):
        DenseMatrix([[1.0, np.nan]])
    with pytest.raises(DegenerateInputError):
        DenseMatrix([[np.inf], [0.0]])


def test_dense_matrix_is_column_major_and_frozen():
    M = DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
    assert M.data.flags.f_contiguous
    assert not M.data.flags.writeable
    assert M.shape == (2, 2)


def test_stats_identity():
    stats = compute_stats(DenseMatrix(np.eye(2)))
    assert np.allclose(stats.row_sq_norms, [1.0, 1.0])
    assert stats.fro_sq == 2.0
    assert stats.l11 == 2.0
    assert stats.nnz == 2


def test_stats_three_four_five_row():
    stats = compute_stats(DenseMatrix([[3.0, 4.0]]))
    assert np.allclose(stats.row_sq_norms, [25.0])
    assert np.allclose(stats.col_sq_norms, [9.0, 16.0])
    assert stats.l11 == 7.0


def test_stats_match_naive_double_loop():
    arr = np.random.default_rng(0).standard_normal((7, 5))
    stats = compute_stats(DenseMatrix(arr))
    row_sq, col_sq, row_l1, fro_sq, l11, nnz = oracles.naive_stats(arr)
    assert np.allclose(stats.row_sq_norms, row_sq, rtol=1e-12)
    assert np.allclose(stats.col_sq_norms, col_sq, rtol=1e-12)
    assert np.allclose(stats.row_l1, row_l1, rtol=1e-12)
    assert abs(stats.fro_sq - fro_sq) <= 1e-12 * fro_sq
    assert abs(stats.l11 - l11) <= 1e-12 * l11
    assert stats.nnz == nnz


def test_stats_cross_sums_agree():
    for seed in range(5):
        arr = np.random.default_rng(seed).standard_normal((9, 4))
        stats = compute_stats(DenseMatrix(arr))
        assert abs(stats.row_sq_norms.sum() - stats.fro_sq) <= 1e-12 * stats.fro_sq
        assert abs(stats.col_sq_norms.sum() - stats.fro_sq) <= 1e-12 * stats.fro_sq
        assert abs(stats.row_l1.sum() - stats.l11) <= 1e-12 * stats.l11


def test_topk_svd_diagonal():
    dec = topk_svd(dense_op(np.diag([3.0, 2.0, 1.0])), 2, iters=60, seed=0)
    assert np.allclose(dec.sigma_star, [3.0, 2.0], atol=1e-10)
    assert abs(dec.kappa - 1.5) < 1e-9


def test_topk_svd_rank_one():
    g = np.random.default_rng(1)
    u = g.standard_normal(8)
    v = g.standard_normal(6)
    dec = topk_svd(dense_op(np.outer(u, v)), 1, iters=60, seed=0)
    sigma = np.linalg.norm(u) * np.linalg.norm(v)
    assert abs(dec.sigma_star[0] - sigma) <= 1e-10 * sigma
    uu = u / np.linalg.norm(u)
    sign = np.sign(uu @ dec.u_star[:, 0])
    assert np.allclose(dec.u_star[:, 0] * sign, uu, atol=1e-10)
    assert np.allclose(dec.v_star[:, 0] * sign, v / np.linalg.norm(v), atol=1e-10)


def test_topk_svd_matches_jacobi_oracle():
    arr = np.random.default_rng(3).standard_normal((20, 15))
    dec = topk_svd(dense_op(arr), 4, iters=200, seed=1)
    _, sigma, _ = oracles.jacobi_svd(arr)
    assert np.all(np.abs(dec.sigma_star - sigma[:4]) <= 1e-6 * sigma[:4])


def test_topk_svd_ordered_and_orthonormal():
    arr = np.random.default_rng(4).standard_normal((15, 12))
    dec = topk_svd(dense_op(arr), 5, iters=150, seed=2)
    assert np.all(np.diff(dec.sigma_star) <= 1e-12)
    assert np.allclose(dec.u_star.T @ dec.u_star, np.eye(5), atol=1e-10)
    assert np.allclose(dec.v_star.T @ dec.v_star, np.eye(5), atol=1e-10)


def test_topk_svd_weyl_under_perturbation():
    g = np.random.default_rng(5)
    U = oracles.modified_gram_schmidt(g.standard_normal((30, 3)))
    V = oracles.modified_gram_schmidt(g.standard_normal((20, 3)))
    sigma = np.array([5.0, 4.0, 3.0])
    E = g.standard_normal((30, 20))
    E *= (1e-3 * sigma[-1]) / oracles.spectral_norm_dense(E)
    arr = U @ np.diag(sigma) @ V.T + E
    dec = topk_svd(dense_op(arr), 3, iters=200, seed=0)
    norm_e = oracles.spectral_norm_dense(E)
    assert np.all(np.abs(dec.sigma_star - sigma) <= norm_e + 1e-9)


def test_topk_svd_rejects_bad_rank():
    op = dense_op(np.eye(3))
    with pytest.raises(ParameterError):
        topk_svd(op, 4)
    with pytest.raises(ParameterError):
        topk_svd(op, 0)


def test_topk_svd_deterministic():
    arr = np.random.default_rng(6).standard_normal((12, 9))
    a = topk_svd(dense_op(arr), 3, iters=40, seed=9)
    b = topk_svd(dense_op(arr), 3, iters=40, seed=9)
    assert np.array_equal(a.u_star, b.u_star)
    assert np.array_equal(a.sigma_star, b.sigma_star)
    assert np.array_equal(a.v_star, b.v_star)


def test_qr_orthonormal_input_unchanged_up_to_sign():
    Q0 = oracles.modified_gram_schmidt(np.random.default_rng(7).standard_normal((10, 3)))
    Q = qr_orthonormalize(Q0)
    signs = np.sign(np.einsum("ij,ij->j", Q, Q0))
    assert np.allclose(Q * signs, Q0, atol=1e-12)


def test_qr_diagonal_input():
    Q = qr_orthonormalize(np.array([[2.0, 0.0], [0.0, 3.0]]))
    assert np.allclose(np.abs(Q), np.eye(2), atol=1e-14)


def test_qr_matches_gram_schmidt_projector():
    X = np.random.default_rng(8).standard_normal((10, 3))
    Q = qr_orthonormalize(X)
    G = oracles.modified_gram_schmidt(X)
    assert np.allclose(Q.T @ Q, np.eye(3), atol=1e-12)
    assert np.allclose(Q @ Q.T, G @ G.T, atol=1e-10)


def test_qr_rank_deficient_names_column():
    X = np.ones((5, 2))
    with pytest.raises(DegenerateInputError, match="column 1"):
        qr_orthonormalize(X)


def test_solve_ls_single_target():
    assert np.allclose(oracles.solve_weighted_row_ls([(1.0, 5.0, [1.0])], 1), [5.0])


def test_solve_ls_orthogonal_regressors():
    x = oracles.solve_weighted_row_ls([(1.0, 1.0, [1.0, 0.0]), (1.0, 2.0, [0.0, 1.0])], 2)
    assert np.allclose(x, [1.0, 2.0])


def test_solve_ls_matches_2x2_inverse_oracle():
    g = np.random.default_rng(9)
    targets = [(float(g.uniform(0.5, 2.0)), float(g.standard_normal()), g.standard_normal(2))
               for _ in range(6)]
    x = oracles.solve_weighted_row_ls(targets, 2)
    assert np.allclose(x, oracles.weighted_ls_2x2(targets), atol=1e-10)


def test_solve_ls_empty_returns_zero():
    assert np.array_equal(oracles.solve_weighted_row_ls([], 3), np.zeros(3))


def test_solve_ls_rejects_nonpositive_weight():
    with pytest.raises(ParameterError):
        oracles.solve_weighted_row_ls([(0.0, 1.0, [1.0])], 1)


def test_solve_ls_stationarity_residual():
    g = np.random.default_rng(10)
    for r, k in ((2, 6), (3, 10), (4, 2)):  # k < r exercises the singular path
        targets = [(float(g.uniform(0.1, 3.0)), float(g.standard_normal()), g.standard_normal(r))
                   for _ in range(k)]
        x = oracles.solve_weighted_row_ls(targets, r)
        B = sum(w * np.outer(gv, gv) for w, _, gv in targets)
        z = sum(w * y * gv for w, y, gv in targets)
        res = np.linalg.norm(B @ x - z)
        bound = 1e-9 * (oracles.spectral_norm_dense(B) * np.linalg.norm(x) + np.linalg.norm(z))
        assert res <= bound


def test_pseudo_solve_zero_matrix():
    assert np.array_equal(oracles.pseudo_solve_spd(np.zeros((2, 2)), np.zeros(2)), np.zeros(2))


def test_pseudo_solve_batch_matches_single():
    g = np.random.default_rng(11)
    Bs, zs = [], []
    for _ in range(5):
        X = g.standard_normal((6, 3))
        Bs.append(X.T @ X)
        zs.append(g.standard_normal(3))
    batch = pseudo_solve_spd_batch(np.array(Bs), np.array(zs), eig_floor=0.0)
    for k in range(5):
        assert np.allclose(batch[k], oracles.pseudo_solve_spd(Bs[k], zs[k]), atol=1e-12)


def test_spectral_error_exact_factorization_is_zero():
    arr = np.random.default_rng(12).standard_normal((8, 5))
    q, rmat = np.linalg.qr(arr)
    F = Factorization(q, rmat.T)  # exact full-rank factorization of arr
    assert spectral_error(DenseMatrix(arr), F, iters=50, seed=0) <= 1e-10


def test_spectral_error_zero_factor_gives_matrix_norm():
    arr = np.random.default_rng(13).standard_normal((12, 9))
    M = DenseMatrix(arr)
    est = spectral_error(M, Factorization(np.zeros((12, 2)), np.zeros((9, 2))), iters=300, seed=0)
    truth = oracles.spectral_norm_dense(arr)
    assert abs(est - truth) <= 1e-6 * truth


def test_spectral_error_matches_dense_oracle_on_residual():
    g = np.random.default_rng(14)
    arr = g.standard_normal((30, 20))
    U = g.standard_normal((30, 3))
    V = g.standard_normal((20, 3))
    est = spectral_error(DenseMatrix(arr), Factorization(U, V), iters=300, seed=1)
    truth = oracles.spectral_norm_dense(arr - U @ V.T)
    assert abs(est - truth) <= 1e-6 * truth


def test_spectral_error_monotone_nondecreasing_in_iters():
    # the estimate is a Rayleigh lower bound rising toward the true norm
    g = np.random.default_rng(15)
    M = DenseMatrix(g.standard_normal((25, 18)))
    F = Factorization(g.standard_normal((25, 2)), g.standard_normal((18, 2)))
    vals = [spectral_error(M, F, iters=k, seed=7) for k in (1, 2, 5, 10, 40, 120)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    truth = oracles.spectral_norm_dense(M.data - F.dense())
    assert all(v <= truth * (1 + 1e-9) for v in vals)


def test_low_rank_diff_spectral_norm_matches_dense():
    g = np.random.default_rng(16)
    F1 = Factorization(g.standard_normal((14, 3)), g.standard_normal((11, 3)))
    F2 = Factorization(g.standard_normal((14, 2)), g.standard_normal((11, 2)))
    got = low_rank_diff_spectral_norm(F1, F2)
    truth = oracles.spectral_norm_dense(F1.dense() - F2.dense())
    assert abs(got - truth) <= 1e-10 * max(truth, 1.0)


def test_factorization_shape_validation():
    with pytest.raises(ParameterError):
        Factorization(np.zeros((3, 2)), np.zeros((4, 3)))
