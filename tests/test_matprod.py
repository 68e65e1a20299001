import numpy as np
import pytest
import tracemalloc

import oracles
from lela import (
    DenseMatrix,
    Factorization,
    ParameterError,
    ProductTask,
    build_product_plan,
    low_rank_diff_spectral_norm,
    lowrank_covariance,
    lowrank_product,
    make_adversarial_product,
    materialize_product_samples,
    stagewise_product_baseline,
)


def saturating_product_m(A, B):
    plan = build_product_plan(A, B, 1)
    per_cell = np.add.outer(
        plan.row_sq_norms_a / (plan.n2 * plan.fro_sq_a),
        plan.col_sq_norms_b / (plan.n1 * plan.fro_sq_b),
    )
    return int(np.ceil(1.0 / per_cell.min())) + 1


def test_rank_one_product_recovery():
    g = np.random.default_rng(0)
    u = g.standard_normal((20, 1))
    v = g.standard_normal((1, 20))
    A, B = DenseMatrix(u), DenseMatrix(v)
    m = saturating_product_m(A, B)
    F = lowrank_product(ProductTask(a=A, b=B, rank=1, m=m, iterations=4, seed=1))
    truth = u @ v
    assert np.linalg.norm(F.dense() - truth) <= 1e-8 * np.linalg.norm(truth)


def test_random_product_error_bound():
    hits = 0
    trials = 20
    for t in range(trials):
        g = np.random.default_rng(300 + t)
        A = DenseMatrix(g.standard_normal((60, 20)))
        B = DenseMatrix(g.standard_normal((20, 60)))
        prod = A.data @ B.data
        U, s, Vt = np.linalg.svd(prod)
        spectral_gap = s[5]
        fro_gap = np.sqrt(np.sum(s[5:] ** 2))
        F = lowrank_product(ProductTask(a=A, b=B, rank=5, m=16 * 60 * 5, iterations=10, seed=t))
        err = oracles.spectral_norm_dense(prod - F.dense())
        hits += err <= spectral_gap + 0.5 * fro_gap
    assert hits >= 18


def test_product_deterministic():
    g = np.random.default_rng(1)
    A = DenseMatrix(g.standard_normal((12, 6)))
    B = DenseMatrix(g.standard_normal((6, 12)))
    task = ProductTask(a=A, b=B, rank=2, m=400, iterations=4, seed=9)
    F1, F2 = lowrank_product(task), lowrank_product(task)
    assert np.array_equal(F1.u, F2.u)
    assert np.array_equal(F1.v, F2.v)


def test_product_task_validation():
    A = DenseMatrix(np.ones((4, 3)))
    B = DenseMatrix(np.ones((3, 5)))
    with pytest.raises(ParameterError):
        ProductTask(a=A, b=DenseMatrix(np.ones((4, 5))), rank=1, m=10, iterations=1)
    with pytest.raises(ParameterError):
        ProductTask(a=A, b=B, rank=5, m=10, iterations=1)
    with pytest.raises(ParameterError):
        ProductTask(a=A, b=B, rank=1, m=0, iterations=1)


def test_covariance_exact_low_rank():
    g = np.random.default_rng(2)
    Q = oracles.modified_gram_schmidt(g.standard_normal((15, 2)))
    Y = DenseMatrix(Q @ np.diag([3.0, 2.0]))
    m = saturating_product_m(Y, DenseMatrix(Y.data.T))
    F = lowrank_covariance(Y, 2, m, iterations=4, seed=3)
    truth = Q @ np.diag([9.0, 4.0]) @ Q.T
    assert np.linalg.norm(F.dense() - truth) <= 1e-8 * np.linalg.norm(truth)


def test_covariance_near_symmetric_when_converged():
    g = np.random.default_rng(3)
    Y = DenseMatrix(g.standard_normal((25, 6)))
    m = saturating_product_m(Y, DenseMatrix(Y.data.T))
    F = lowrank_covariance(Y, 2, m, iterations=8, seed=4)
    dense = F.dense()
    assert np.abs(dense - dense.T).max() <= 1e-6 * np.linalg.norm(dense)


def test_covariance_symmetrize_flag():
    g = np.random.default_rng(4)
    Y = DenseMatrix(g.standard_normal((18, 5)))
    F = lowrank_covariance(Y, 2, 1200, iterations=5, seed=5, symmetrize=True)
    dense = F.dense()
    assert np.abs(dense - dense.T).max() <= 1e-9 * max(np.abs(dense).max(), 1.0)


def test_covariance_deterministic():
    Y = DenseMatrix(np.random.default_rng(5).standard_normal((14, 5)))
    F1 = lowrank_covariance(Y, 2, 700, iterations=4, seed=6)
    F2 = lowrank_covariance(Y, 2, 700, iterations=4, seed=6)
    assert np.array_equal(F1.u, F2.u)


def test_stagewise_identity_product():
    n = 6
    A = DenseMatrix(np.eye(n))
    B = DenseMatrix(np.eye(n))
    F = stagewise_product_baseline(A, B, n, 20 * n * n * n, iterations=4, seed=7)
    assert np.linalg.norm(F.dense() - np.eye(n)) <= 1e-8 * np.sqrt(n)


def test_stagewise_loses_on_adversarial_instance():
    for t in range(3):
        A, B, truth = make_adversarial_product(60, 3, seed=40 + t)
        m = 10 * 60 * 3
        direct = lowrank_product(ProductTask(a=A, b=B, rank=3, m=m, iterations=8, seed=t))
        staged = stagewise_product_baseline(A, B, 3, m, iterations=8, seed=t)
        err_direct = low_rank_diff_spectral_norm(truth, direct)
        err_staged = low_rank_diff_spectral_norm(truth, staged)
        assert err_direct < 0.5 * err_staged


def test_adversarial_construction_structure():
    A, B, truth = make_adversarial_product(40, 2, seed=8)
    prod = A.data @ B.data
    assert np.allclose(prod, truth.dense(), atol=1e-12)
    assert np.linalg.matrix_rank(A.data, tol=1e-8) == 4
    assert np.linalg.matrix_rank(B.data, tol=1e-8) == 4
    assert np.linalg.matrix_rank(prod, tol=1e-8) == 2
    # top row space of A is orthogonal to top column space of B
    _, _, vt_a = np.linalg.svd(A.data)
    u_b, _, _ = np.linalg.svd(B.data)
    overlap = vt_a[:2] @ u_b[:, :2]
    assert np.abs(overlap).max() <= 1e-10


def test_product_never_materializes_dense_product():
    # 1500 x 6 times 6 x 1500: the dense product would be 18 MB, the factored
    # path should stay well under that
    g = np.random.default_rng(9)
    A = DenseMatrix(g.standard_normal((1500, 6)))
    B = DenseMatrix(g.standard_normal((6, 1500)))
    task = ProductTask(a=A, b=B, rank=2, m=30000, iterations=3, seed=1)
    tracemalloc.start()
    lowrank_product(task)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 9_000_000


def test_sampled_values_exact_on_product_path():
    g = np.random.default_rng(10)
    A = DenseMatrix(g.standard_normal((10, 4)))
    B = DenseMatrix(g.standard_normal((4, 9)))
    plan = build_product_plan(A, B, 50)
    S = materialize_product_samples(plan, seed=2)
    dense = A.data @ B.data
    truth = dense[S.rows, S.cols]
    assert np.all(np.abs(S.vals - truth) <= 1e-12 * np.maximum(np.abs(truth), 1.0))


def test_transpose_symmetry_statistics():
    # approximating A @ B and transposing the approximation of B.T @ A.T give
    # statistically indistinguishable errors over paired seeds
    import lela

    errs_fwd, errs_rev = [], []
    for t in range(20):
        g = np.random.default_rng(900 + t)
        A = DenseMatrix(g.standard_normal((30, 10)))
        B = DenseMatrix(g.standard_normal((10, 24)))
        prod = A.data @ B.data
        m = 8 * 30 * 2
        F = lowrank_product(ProductTask(a=A, b=B, rank=2, m=m, iterations=6, seed=t))
        errs_fwd.append(oracles.spectral_norm_dense(prod - F.dense()))
        At = DenseMatrix(B.data.T)
        Bt = DenseMatrix(A.data.T)
        G = lowrank_product(ProductTask(a=At, b=Bt, rank=2, m=m, iterations=6, seed=t))
        errs_rev.append(oracles.spectral_norm_dense(prod - G.dense().T))
    fwd, rev = np.array(errs_fwd), np.array(errs_rev)
    assert abs(fwd.mean() - rev.mean()) <= fwd.std() + rev.std()
