import numpy as np
import pytest
import tracemalloc

import lela.linalg as lela_linalg
import lela.rng as lela_rng
import lela.sampling as lela_sampling
import lela.waltmin as lela_waltmin
import oracles
from lela import (
    DenseMatrix,
    Factorization,
    ParameterError,
    ProductTask,
    lowrank_covariance,
    lowrank_product,
    make_adversarial_product,
    stagewise_product_baseline,
)
from lela.linalg import low_rank_diff_spectral_norm
from lela.sampling import build_product_plan, materialize_product_samples


def saturating_product_m(A, B):
    law = build_product_plan(A, B, 1).law
    per_cell = np.add.outer(law.row_terms, law.col_terms) / law.norm_scale
    return int(np.ceil(1.0 / per_cell.min())) + 1


def test_rank_one_product_recovery():
    g = np.random.default_rng(0)
    u = g.standard_normal((20, 1))
    v = g.standard_normal((1, 20))
    A, B = DenseMatrix(u), DenseMatrix(v)
    m = saturating_product_m(A, B)
    F = lowrank_product(ProductTask(a=A, b=B, rank=1, m=m, iterations=4, seed=1))
    truth = u @ v
    assert np.linalg.norm(F.u @ F.v.T - truth) <= 1e-8 * np.linalg.norm(truth)


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
        err = oracles.spectral_norm_dense(prod - F.u @ F.v.T)
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


def test_product_with_init_stop_matches_fixed_iteration_init(monkeypatch, svd_iterations):
    g = np.random.default_rng(40)
    A = DenseMatrix(
        g.standard_normal((80, 5)) @ g.standard_normal((5, 30)) + 0.1 * g.standard_normal((80, 30))
    )
    B = DenseMatrix(
        g.standard_normal((30, 5)) @ g.standard_normal((5, 70)) + 0.1 * g.standard_normal((30, 70))
    )
    task = ProductTask(a=A, b=B, rank=3, m=16 * 80 * 3, iterations=10, seed=0)
    F = lowrank_product(task)
    assert svd_iterations() < lela_linalg.SVD_MAX_ITERS  # the stop fired
    monkeypatch.setattr(
        lela_waltmin, "topk_svd", lambda S, r, seed: oracles.topk_svd_fixed(S, r, 100, seed)
    )
    G = lowrank_product(task)
    zero = Factorization(np.zeros_like(G.u), np.zeros_like(G.v))
    assert low_rank_diff_spectral_norm(F, G) <= 1e-6 * low_rank_diff_spectral_norm(G, zero)


def test_product_task_validation():
    A = DenseMatrix(np.ones((4, 3)))
    B = DenseMatrix(np.ones((3, 5)))
    with pytest.raises(ParameterError):
        ProductTask(a=A, b=DenseMatrix(np.ones((4, 5))), rank=1, m=10, iterations=1)
    with pytest.raises(ParameterError):
        ProductTask(a=A, b=B, rank=5, m=10, iterations=1)
    with pytest.raises(ParameterError):
        ProductTask(a=A, b=B, rank=1, m=0, iterations=1)


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda A, B: ProductTask(a=A, b=B, rank=1, m=10, iterations=0),
            "iteration count must be at least 1",
        ),
        (lambda A, B: stagewise_product_baseline(A, A, 1, 10, 1), "inner dimensions disagree"),
        (lambda A, B: stagewise_product_baseline(B, B, 1, 10, 1), "inner dimensions disagree"),
    ],
)
def test_matprod_refuses_bad_parameters(build, message):
    A = DenseMatrix(np.ones((4, 3)))
    B = DenseMatrix(np.ones((3, 5)))
    with pytest.raises(ParameterError, match=message):
        build(A, B)


def test_covariance_exact_low_rank():
    g = np.random.default_rng(2)
    Q = oracles.modified_gram_schmidt(g.standard_normal((15, 2)))
    Y = DenseMatrix(Q @ np.diag([3.0, 2.0]))
    m = saturating_product_m(Y, DenseMatrix(Y.data.T))
    F = lowrank_covariance(Y, 2, m, iterations=4, seed=3)
    truth = Q @ np.diag([9.0, 4.0]) @ Q.T
    assert np.linalg.norm(F.u @ F.v.T - truth) <= 1e-8 * np.linalg.norm(truth)


def test_covariance_near_symmetric_when_converged():
    g = np.random.default_rng(3)
    Y = DenseMatrix(g.standard_normal((25, 6)))
    m = saturating_product_m(Y, DenseMatrix(Y.data.T))
    F = lowrank_covariance(Y, 2, m, iterations=8, seed=4)
    dense = F.u @ F.v.T
    assert np.abs(dense - dense.T).max() <= 1e-6 * np.linalg.norm(dense)


def test_covariance_symmetrize_flag():
    g = np.random.default_rng(4)
    Y = DenseMatrix(g.standard_normal((18, 5)))
    F = lowrank_covariance(Y, 2, 1200, iterations=5, seed=5, symmetrize=True)
    dense = F.u @ F.v.T
    assert np.abs(dense - dense.T).max() <= 1e-9 * max(np.abs(dense).max(), 1.0)


def test_covariance_symmetrize_is_the_top_r_part_of_the_symmetrized_output():
    for n, seed in ((18, 6), (40, 7)):
        Y = DenseMatrix(np.random.default_rng(seed).standard_normal((n, 6)))
        E = lowrank_covariance(Y, 3, 15 * n, iterations=5, seed=seed)
        P = E.u @ E.v.T
        F = lowrank_covariance(Y, 3, 15 * n, iterations=5, seed=seed, symmetrize=True)
        u, s, vt = np.linalg.svd(0.5 * (P + P.T))
        ref = (u[:, :3] * s[:3]) @ vt[:3]
        assert np.abs(F.u @ F.v.T - ref).max() <= 1e-12 * np.abs(ref).max()


def test_covariance_deterministic():
    Y = DenseMatrix(np.random.default_rng(5).standard_normal((14, 5)))
    F1 = lowrank_covariance(Y, 2, 700, iterations=4, seed=6)
    F2 = lowrank_covariance(Y, 2, 700, iterations=4, seed=6)
    assert np.array_equal(F1.u, F2.u)


def test_covariance_is_the_product_of_y_and_its_transpose():
    # the experiment grid runs covariance cells as this product
    Y = DenseMatrix(np.random.default_rng(8).standard_normal((30, 12)))
    F = lowrank_covariance(Y, 2, 400, iterations=4, seed=9)
    task = ProductTask(a=Y, b=DenseMatrix(Y.data.T), rank=2, m=400, iterations=4, seed=9)
    G = lowrank_product(task)
    assert np.array_equal(F.u, G.u) and np.array_equal(F.v, G.v)


def test_stagewise_identity_product():
    n = 6
    A = DenseMatrix(np.eye(n))
    B = DenseMatrix(np.eye(n))
    F = stagewise_product_baseline(A, B, n, 20 * n * n * n, iterations=4, seed=7)
    assert np.linalg.norm(F.u @ F.v.T - np.eye(n)) <= 1e-8 * np.sqrt(n)


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
    assert np.allclose(prod, truth.u @ truth.v.T, atol=1e-12)
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


def test_dense_product_budget_fills_by_blocks():
    # 7% of every cell kept: each 43-row block takes one GEMM over its rows, so
    # the fill never holds more than one block of the 18 MB dense product; the
    # peak, about 5.6 MB, is the ~157k kept cells while the sampler joins its
    # blocks one field at a time, their column ids already in the set's index
    # dtype (7.4 MB when it joined int64 ids, 11.7 MB when it joined all
    # fields at once)
    g = np.random.default_rng(9)
    A = DenseMatrix(np.where(g.random((1500, 6)) < 0.5, -1.0, 1.0))
    B = DenseMatrix(np.where(g.random((6, 1500)) < 0.5, -1.0, 1.0))
    m = 78_750  # equal row and column norms: every cell has p = 2m / 1500^2 = 0.07
    task = ProductTask(a=A, b=B, rank=2, m=m, iterations=3, seed=1)
    S = materialize_product_samples(
        build_product_plan(A, B, m), seed=lela_rng.derive_seed(task.seed, lela_rng.TAG_PRODUCT)
    )
    for start, stop in lela_sampling.row_blocks(1500, 1500):
        kept = S.indptr[stop] - S.indptr[start]
        assert lela_sampling.GEMM_FILL_RATIO * kept >= (stop - start) * 1500
    tracemalloc.start()
    lowrank_product(task)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 7_000_000


def test_sampled_values_exact_on_product_path():
    g = np.random.default_rng(10)
    A = DenseMatrix(g.standard_normal((10, 4)))
    B = DenseMatrix(g.standard_normal((4, 9)))
    plan = build_product_plan(A, B, 50)
    S = materialize_product_samples(plan, seed=2)
    dense = A.data @ B.data
    truth = dense[oracles.row_ids(S), S.cols]
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
        errs_fwd.append(oracles.spectral_norm_dense(prod - F.u @ F.v.T))
        At = DenseMatrix(B.data.T)
        Bt = DenseMatrix(A.data.T)
        G = lowrank_product(ProductTask(a=At, b=Bt, rank=2, m=m, iterations=6, seed=t))
        errs_rev.append(oracles.spectral_norm_dense(prod - G.v @ G.u.T))
    fwd, rev = np.array(errs_fwd), np.array(errs_rev)
    assert abs(fwd.mean() - rev.mean()) <= fwd.std() + rev.std()
