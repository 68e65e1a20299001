import numpy as np
import pytest
import scipy.sparse

import lela.linalg as lela_linalg
import lela.sampling as sampling
import oracles
from lela import DegenerateInputError, DenseMatrix, Factorization, ParameterError
from lela.linalg import (
    low_rank_diff_spectral_norm,
    pseudo_solve_spd_batch,
    qr_orthonormalize,
    spectral_error,
    topk_svd,
)
from lela.sampling import compute_stats


def test_dense_matrix_rejects_nonfinite():
    with pytest.raises(DegenerateInputError):
        DenseMatrix([[1.0, np.nan]])
    with pytest.raises(DegenerateInputError):
        DenseMatrix([[np.inf], [0.0]])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DenseMatrix([1.0, 2.0]), "two-dimensional"),
        (lambda: DenseMatrix(np.zeros((0, 3))), "at least one row and column"),
        (lambda: DenseMatrix(np.zeros((3, 0))), "at least one row and column"),
        (lambda: Factorization(np.ones(4), np.ones((3, 1))), "two-dimensional"),
        (lambda: Factorization(np.ones((4, 1)), np.ones((3, 1, 1))), "two-dimensional"),
        (
            lambda: spectral_error(
                DenseMatrix(np.ones((4, 3))), Factorization(np.ones((3, 1)), np.ones((3, 1)))
            ),
            "does not match the matrix",
        ),
        (
            lambda: low_rank_diff_spectral_norm(
                Factorization(np.ones((4, 1)), np.ones((3, 1))),
                Factorization(np.ones((4, 1)), np.ones((4, 1))),
            ),
            "matching shapes",
        ),
    ],
)
def test_linalg_refuses_malformed_input(build, message):
    with pytest.raises(ParameterError, match=message):
        build()


def test_dense_matrix_is_row_major_and_frozen():
    M = DenseMatrix(np.asfortranarray([[1.0, 2.0], [3.0, 4.0]]))
    assert M.data.flags.c_contiguous
    assert not M.data.flags.writeable
    assert M.shape == (2, 2)


def test_dense_matrix_copies_its_input():
    arr = np.arange(6.0).reshape(2, 3)  # already C-ordered float64
    M = DenseMatrix(arr)
    arr[1, 2] = -1.0
    assert M.data[1, 2] == 5.0
    assert not np.shares_memory(M.data, arr)


@pytest.mark.parametrize("shape", [(1, 1), (70, 2000), (3, sampling.BLOCK_CELLS + 3)])
def test_blocked_stats_match_the_whole_array_pass(shape):
    # 70 rows leave a 6-row remainder after two 32-row blocks at d = 2000;
    # a row longer than BLOCK_CELLS makes every block one row
    a = np.random.default_rng(shape[0]).standard_normal(shape)
    stats = compute_stats(DenseMatrix(a))
    row_sq = np.vecdot(a, a)
    row_l1 = np.abs(a).sum(axis=1)
    assert stats.row_sq_norms.tobytes() == row_sq.tobytes()
    assert stats.row_l1.tobytes() == row_l1.tobytes()
    assert np.allclose(stats.col_sq_norms, np.einsum("ij,ij->j", a, a), rtol=1e-13, atol=0.0)
    assert stats.fro_sq == float(row_sq.sum())
    assert stats.l11 == float(row_l1.sum())


def test_stats_identity():
    stats = compute_stats(DenseMatrix(np.eye(2)))
    assert np.allclose(stats.row_sq_norms, [1.0, 1.0])
    assert stats.fro_sq == 2.0
    assert stats.l11 == 2.0


def test_stats_three_four_five_row():
    stats = compute_stats(DenseMatrix([[3.0, 4.0]]))
    assert np.allclose(stats.row_sq_norms, [25.0])
    assert np.allclose(stats.col_sq_norms, [9.0, 16.0])
    assert stats.l11 == 7.0


def test_stats_match_naive_double_loop():
    arr = np.random.default_rng(0).standard_normal((7, 5))
    stats = compute_stats(DenseMatrix(arr))
    row_sq, col_sq, row_l1, fro_sq, l11 = oracles.naive_stats(arr)
    assert np.allclose(stats.row_sq_norms, row_sq, rtol=1e-12)
    assert np.allclose(stats.col_sq_norms, col_sq, rtol=1e-12)
    assert np.allclose(stats.row_l1, row_l1, rtol=1e-12)
    assert abs(stats.fro_sq - fro_sq) <= 1e-12 * fro_sq
    assert abs(stats.l11 - l11) <= 1e-12 * l11


def test_stats_cross_sums_agree():
    for seed in range(5):
        arr = np.random.default_rng(seed).standard_normal((9, 4))
        stats = compute_stats(DenseMatrix(arr))
        assert abs(stats.row_sq_norms.sum() - stats.fro_sq) <= 1e-12 * stats.fro_sq
        assert abs(stats.col_sq_norms.sum() - stats.fro_sq) <= 1e-12 * stats.fro_sq
        assert abs(stats.row_l1.sum() - stats.l11) <= 1e-12 * stats.l11


def test_topk_svd_diagonal():
    _, s = topk_svd(np.diag([3.0, 2.0, 1.0]), 2, seed=0)
    assert np.allclose(s, [3.0, 2.0], atol=1e-10)
    assert abs(s[0] / s[-1] - 1.5) < 1e-9


def test_topk_svd_rank_one():
    g = np.random.default_rng(1)
    u = g.standard_normal(8)
    v = g.standard_normal(6)
    U, s = topk_svd(np.outer(u, v), 1, seed=0)
    sigma = np.linalg.norm(u) * np.linalg.norm(v)
    assert abs(s[0] - sigma) <= 1e-10 * sigma
    uu = u / np.linalg.norm(u)
    sign = np.sign(uu @ U[:, 0])
    assert np.allclose(U[:, 0] * sign, uu, atol=1e-10)


def test_topk_svd_matches_jacobi_oracle():
    arr = np.random.default_rng(3).standard_normal((20, 15))
    _, s = topk_svd(arr, 4, seed=1)
    _, sigma, _ = oracles.jacobi_svd(arr)
    assert np.all(np.abs(s - sigma[:4]) <= 1e-6 * sigma[:4])


def test_topk_svd_ordered_and_orthonormal():
    arr = np.random.default_rng(4).standard_normal((15, 12))
    U, s = topk_svd(arr, 5, seed=2)
    assert np.all(np.diff(s) <= 1e-12)
    assert np.allclose(U.T @ U, np.eye(5), atol=1e-10)


def test_topk_svd_weyl_under_perturbation():
    g = np.random.default_rng(5)
    U = oracles.modified_gram_schmidt(g.standard_normal((30, 3)))
    V = oracles.modified_gram_schmidt(g.standard_normal((20, 3)))
    sigma = np.array([5.0, 4.0, 3.0])
    E = g.standard_normal((30, 20))
    E *= (1e-3 * sigma[-1]) / oracles.spectral_norm_dense(E)
    arr = U @ np.diag(sigma) @ V.T + E
    _, s = topk_svd(arr, 3, seed=0)
    norm_e = oracles.spectral_norm_dense(E)
    assert np.all(np.abs(s - sigma) <= norm_e + 1e-9)


def test_topk_svd_rejects_bad_rank():
    with pytest.raises(ParameterError):
        topk_svd(np.eye(3), 4)
    with pytest.raises(ParameterError):
        topk_svd(np.eye(3), 0)


def test_topk_svd_deterministic():
    arr = np.random.default_rng(6).standard_normal((12, 9))
    Ua, sa = topk_svd(arr, 3, seed=9)
    Ub, sb = topk_svd(arr, 3, seed=9)
    assert np.array_equal(Ua, Ub)
    assert np.array_equal(sa, sb)


def subspace_sine(V, W):
    """Sine of the largest principal angle between range(V) and range(W)."""
    return np.linalg.norm(W - V @ (V.T @ W), 2)


def low_rank_plus_noise(seed, sigma, n=60, d=40):
    """U diag(sigma) V^T plus Gaussian noise of spectral norm 1."""
    g = np.random.default_rng(seed)
    U = oracles.modified_gram_schmidt(g.standard_normal((n, len(sigma))))
    V = oracles.modified_gram_schmidt(g.standard_normal((d, len(sigma))))
    E = g.standard_normal((n, d))
    E *= 1.0 / oracles.spectral_norm_dense(E)
    return U @ np.diag(sigma) @ V.T + E


@pytest.mark.parametrize("sparse", [False, True])
def test_topk_svd_without_stop_is_the_fixed_iteration_kernel(monkeypatch, svd_iterations, sparse):
    arr = low_rank_plus_noise(10, [6.0, 5.0, 4.0])
    A = scipy.sparse.csr_matrix(arr * (np.abs(arr) > 0.1)) if sparse else arr
    monkeypatch.setattr(lela_linalg, "SVD_STEP_TOL", 0.0)
    U, s = topk_svd(A, 3, seed=3)
    assert svd_iterations() == lela_linalg.SVD_MAX_ITERS
    U_ref, s_ref = oracles.topk_svd_fixed(A, 3, 100, seed=3)
    assert np.array_equal(U, U_ref)
    assert np.array_equal(s, s_ref)


def test_topk_svd_stops_early_on_gapped_matrix(svd_iterations):
    r = 3
    arr = low_rank_plus_noise(11, [6.0, 5.0, 4.0])
    U, _ = topk_svd(arr, r, seed=0)
    assert svd_iterations() <= lela_linalg.SVD_MAX_ITERS // 4
    W, s, _ = np.linalg.svd(arr)
    rho = (s[r] / s[r - 1]) ** 2
    assert subspace_sine(U, W[:, :r]) <= lela_linalg.SVD_STEP_TOL / (1.0 - rho)


def test_topk_svd_stops_early_on_a_gap_past_the_rank(svd_iterations):
    # s_4 / s_3 = 0.98: a block of width r would converge at 0.96 per step
    # and run the cap; the gap after s_5 = s_{r+2} lets the block of r + 2 stop
    r = 3
    arr = low_rank_plus_noise(11, [6.0, 5.0, 4.0, 3.9, 3.85])
    W, s, _ = np.linalg.svd(arr)
    assert s[r] / s[r - 1] >= 0.95
    U, _ = topk_svd(arr, r, seed=0)
    assert svd_iterations() <= lela_linalg.SVD_MAX_ITERS // 4
    b = r + lela_linalg.SVD_OVERSAMPLE
    rho = (s[b] / s[r - 1]) ** 2
    assert subspace_sine(U, W[:, :r]) <= lela_linalg.SVD_STEP_TOL / (1.0 - rho)


def test_topk_svd_runs_the_cap_without_a_gap(svd_iterations):
    # r = 2 and a block of 4: s_5 / s_2 = 0.99 sits at the block's edge
    g = np.random.default_rng(12)
    U = oracles.modified_gram_schmidt(g.standard_normal((30, 8)))
    V = oracles.modified_gram_schmidt(g.standard_normal((20, 8)))
    sigma = np.array([3.0, 2.0, 1.995, 1.99, 1.98, 1.0, 0.5, 0.25])
    topk_svd(U @ np.diag(sigma) @ V.T, 2, seed=0)
    assert svd_iterations() == lela_linalg.SVD_MAX_ITERS


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


@pytest.mark.parametrize("r", [1, 3, 5])
def test_normal_equations_bitwise_equal_to_loop(r):
    g = np.random.default_rng(20 + r)
    n, d = 9, 7
    observed = g.random((n, d)) < 0.6
    observed[5, :] = False  # row 5 gets no observations
    observed[:, 5] = False  # and so does column 5
    observed[4, :3] = observed[:3, 4] = True
    rows, cols = np.nonzero(observed)
    order = g.permutation(rows.size)  # coo_sample_set sorts them back
    w = 1.0 / g.uniform(0.05, 1.0, rows.size)
    y = g.standard_normal(rows.size)
    S = oracles.coo_sample_set(n, d, rows[order], cols[order], y[order], w[order])
    rows = oracles.row_ids(S)
    u = g.standard_normal((n, r))
    v = g.standard_normal((d, r))
    u[4, 0] = v[4, 0] = -0.0
    # the oracle adds each group's observations in sample order
    for layout, fixed, group, other, out_dim in (
        (S.by_row(), v, rows, S.cols, n),
        (S.by_col(), u, S.cols, rows, d),
    ):
        B, z = layout.normal_equations(fixed)
        B_ref, z_ref = oracles.normal_equations_loop(
            group, fixed, other, S.weights, S.vals, out_dim
        )
        assert np.array_equal(B.view(np.int64), B_ref.view(np.int64))
        assert np.array_equal(z.view(np.int64), z_ref.view(np.int64))
        assert not B[5].any() and not z[5].any()


def _spd_with_spectrum(g, lam):
    Q = np.linalg.qr(g.standard_normal((lam.size, lam.size)))[0]
    return (Q * lam) @ Q.T


def _mixed_stack(g, eig_floor, r=4):
    """Well-conditioned systems plus one each at the edges of the solve rule."""
    top = np.array([1.3, 1.1, 0.9])
    Bs = [_spd_with_spectrum(g, g.uniform(0.5, 2.0, r)) for _ in range(5)]
    # tau = max(1e-10 * trace / r, eig_floor); the Cholesky gate adds
    # 1e-8 * trace / r.  The smallest eigenvalue sits half way into that
    # margin (kept), or 1e-6 below tau (dropped).
    for c in (0.5e-8, -1e-6):
        if eig_floor > 0.0:
            lam_min = eig_floor + c * (top.sum() + eig_floor) / r
        else:  # solve lam_min = (1e-10 + c) * (top.sum() + lam_min) / r
            c = max(c, -0.5e-10)
            lam_min = (1e-10 + c) * top.sum() / (r - 1e-10 - c)
        Bs.append(_spd_with_spectrum(g, np.append(top, lam_min)))
    X = g.standard_normal((r, 2))
    Bs.append(X @ X.T)  # rank 2
    Bs.append(np.zeros((r, r)))
    B = np.array(Bs)
    z = np.einsum("kij,kj->ki", B, g.standard_normal((len(Bs), r)))
    z[-1] = g.standard_normal(r)
    return B, z


@pytest.mark.parametrize("eig_floor", [0.07, 0.0])
def test_pseudo_solve_batch_mixed_stack_matches_eigen_oracle(eig_floor):
    B, z = _mixed_stack(np.random.default_rng(30), eig_floor)
    x = pseudo_solve_spd_batch(B, z, eig_floor=eig_floor)
    kept = []
    for k in range(B.shape[0]):
        ref = oracles.pseudo_solve_spd(B[k], z[k], eig_floor=eig_floor)
        lam, Q = np.linalg.eigh(B[k])
        keep = lam > max(1e-10 * np.trace(B[k]) / B.shape[1], eig_floor)
        kept.append(int(keep.sum()))
        # dropped directions carry nothing; the kept part matches the oracle
        # to 1e-12 relative, times the condition number of the kept block
        assert np.abs(Q[:, ~keep].T @ x[k]).max(initial=0.0) <= 1e-12, k
        cond = lam[keep].max() / lam[keep].min() if keep.any() else 1.0
        assert np.linalg.norm(x[k] - ref) <= 1e-12 * cond * max(1.0, np.linalg.norm(ref)), k
    assert kept == [4] * 6 + [3, 2, 0]
    assert not x[-1].any()


def test_pseudo_solve_batch_all_clear_stack_skips_eigh(monkeypatch):
    eigh = np.linalg.eigh
    rows = []

    def counting_eigh(a, *args, **kwargs):
        rows.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    g = np.random.default_rng(31)
    B = np.array([_spd_with_spectrum(g, g.uniform(0.5, 2.0, 5)) for _ in range(50)])
    z = g.standard_normal((50, 5))
    x = pseudo_solve_spd_batch(B, z, eig_floor=0.07)
    assert rows == []
    assert np.allclose(np.einsum("kij,kj->ki", B, x), z, rtol=0.0, atol=1e-12)
    # a mixed stack eigendecomposes only the systems that fail both gates:
    # the zero system has every eigenvalue below the floor, so it gets +0.0
    B_mixed, z_mixed = _mixed_stack(g, 0.07)
    x_mixed = pseudo_solve_spd_batch(B_mixed, z_mixed, eig_floor=0.07)
    assert rows == [3]
    assert x_mixed[-1].tobytes() == np.zeros(4).tobytes()
    # so does a stack whose spectra all lie under the floor
    B_low = np.array([_spd_with_spectrum(g, g.uniform(0.0, 0.06, 5)) for _ in range(20)])
    x_low = pseudo_solve_spd_batch(B_low, g.standard_normal((20, 5)), eig_floor=0.07)
    assert rows == [3]
    assert x_low.tobytes() == np.zeros((20, 5)).tobytes()


def test_spectral_error_exact_factorization_is_zero():
    arr = np.random.default_rng(12).standard_normal((8, 5))
    q, rmat = np.linalg.qr(arr)
    F = Factorization(q, rmat.T)  # exact full-rank factorization of arr
    assert spectral_error(DenseMatrix(arr), F, seed=0) <= 1e-10


def test_spectral_error_zero_factor_gives_matrix_norm():
    arr = np.random.default_rng(13).standard_normal((12, 9))
    M = DenseMatrix(arr)
    est = spectral_error(M, Factorization(np.zeros((12, 2)), np.zeros((9, 2))), seed=0)
    truth = oracles.spectral_norm_dense(arr)
    assert abs(est - truth) <= 1e-6 * truth


def test_spectral_error_matches_dense_oracle_on_residual():
    g = np.random.default_rng(14)
    arr = g.standard_normal((30, 20))
    U = g.standard_normal((30, 3))
    V = g.standard_normal((20, 3))
    est = spectral_error(DenseMatrix(arr), Factorization(U, V), seed=1)
    truth = oracles.spectral_norm_dense(arr - U @ V.T)
    assert abs(est - truth) <= 1e-6 * truth
    # the estimate is a Ritz value, a lower bound on the true norm
    assert est <= truth * (1 + 1e-9)


def test_spectral_error_exact_when_top_residual_values_nearly_tie():
    # The residual's top singular values are 1 and 0.995: a single power
    # vector contracts the rest by only 0.995^2 per iteration, and 200 of them
    # under-read this residual by 4e-6 to 3.3e-4 (seeds 0-4).  A block as wide
    # as the rank converges at (s_6/s_1)^2 < 0.36 per iteration.
    g = np.random.default_rng(17)
    n, d, r = 300, 200, 5
    U = np.linalg.qr(g.standard_normal((n, d)))[0]
    V = np.linalg.qr(g.standard_normal((d, d)))[0]
    sigma = np.concatenate([np.full(r, 2.0), [1.0, 0.995], np.linspace(0.6, 0.01, d - r - 2)])
    M = DenseMatrix((U * sigma) @ V.T)
    F = Factorization(U[:, :r] * sigma[:r], V[:, :r])
    truth = oracles.spectral_norm_dense(M.data - F.u @ F.v.T)
    for seed in range(5):
        est = spectral_error(M, F, seed=seed)
        assert abs(est - truth) <= 1e-12 * truth


def test_low_rank_diff_spectral_norm_matches_dense():
    g = np.random.default_rng(16)
    F1 = Factorization(g.standard_normal((14, 3)), g.standard_normal((11, 3)))
    F2 = Factorization(g.standard_normal((14, 2)), g.standard_normal((11, 2)))
    got = low_rank_diff_spectral_norm(F1, F2)
    truth = oracles.spectral_norm_dense(F1.u @ F1.v.T - F2.u @ F2.v.T)
    assert abs(got - truth) <= 1e-10 * max(truth, 1.0)


def test_factorization_shape_validation():
    with pytest.raises(ParameterError):
        Factorization(np.zeros((3, 2)), np.zeros((4, 3)))
