import numpy as np
import pytest

import lela.driver as lela_driver
import lela.sampling as sampling
import oracles
from lela import (
    DenseMatrix,
    Factorization,
    ParameterError,
    evaluate,
    gen_powerlaw,
)
from lela import lela as run_lela
from lela.driver import oracle_gaps, streaming_fro_error
from oracles import saturating_sample_count


def gapped_instance(n, d, r, seed, tail=0.2):
    g = np.random.default_rng(seed)
    U = oracles.modified_gram_schmidt(g.standard_normal((n, min(n, d))))
    V = oracles.modified_gram_schmidt(g.standard_normal((d, min(n, d))))
    k = min(n, d)
    sigma = np.concatenate([np.linspace(4.0, 3.0, r), tail * np.linspace(1.0, 0.1, k - r)])
    return DenseMatrix(U @ np.diag(sigma) @ V.T), sigma


def scored(M, report, seed, want_oracle=False):
    """The errors a caller gets for a report, scored with the run's own seed."""
    return evaluate(M, report.factorization, seed=seed, want_oracle=want_oracle)


def test_pipeline_takes_exactly_two_passes(monkeypatch):
    # the two passes are the whole cost: scoring the result is left to evaluate()
    def refuse(*args, **kwargs):
        raise AssertionError("lela() scored its own result")

    for name in ("spectral_error", "streaming_fro_error", "oracle_gaps"):
        monkeypatch.setattr(lela_driver, name, refuse)
    for mode in ("multinomial", "bernoulli"):
        M = DenseMatrix(np.random.default_rng(0).standard_normal((30, 20)))
        report = run_lela(M, 2, 300, 3, mode=mode, seed=1)
        assert report.passes_over_M == 2


def test_report_norm_ordering_and_sample_count():
    M = DenseMatrix(np.random.default_rng(1).standard_normal((25, 18)))
    report = run_lela(M, 2, 250, 3, seed=2)
    bundle = scored(M, report, seed=2)
    assert bundle.fro_err >= bundle.spectral_err - 1e-9
    assert report.sample_count > 0
    assert bundle.oracle_spectral is None


def test_saturated_run_matches_truncated_svd():
    M, sigma = gapped_instance(40, 30, 2, seed=3)
    m = saturating_sample_count(M)
    report = run_lela(M, 2, m, 3, mode="bernoulli", seed=4)
    bundle = scored(M, report, seed=4, want_oracle=True)
    # saturated sampling sees every entry with weight one, so the result is
    # the best rank-2 approximation up to solver tolerance
    assert abs(bundle.spectral_err - bundle.oracle_spectral) <= 1e-6 * bundle.oracle_spectral
    assert bundle.spectral_err >= bundle.oracle_spectral - 1e-9


def test_error_floor_holds():
    M = DenseMatrix(np.random.default_rng(5).standard_normal((30, 22)))
    report = run_lela(M, 3, 400, 4, seed=6)
    bundle = scored(M, report, seed=6, want_oracle=True)
    assert bundle.spectral_err >= bundle.oracle_spectral - 1e-9
    assert bundle.fro_err >= bundle.oracle_fro - 1e-9


def test_evaluate_with_truncated_svd_candidate():
    M, sigma = gapped_instance(30, 24, 3, seed=7)
    U, s, Vt = np.linalg.svd(M.data)
    F = Factorization(U[:, :3] * s[:3], Vt[:3].T)
    bundle = evaluate(M, F, seed=1)
    assert abs(bundle.spectral_err - bundle.oracle_spectral) <= 1e-8 * bundle.oracle_spectral
    assert abs(bundle.fro_err - bundle.oracle_fro) <= 1e-8 * bundle.oracle_fro


def test_evaluate_zero_factor_gives_frobenius_norm():
    arr = np.random.default_rng(8).standard_normal((12, 9))
    M = DenseMatrix(arr)
    bundle = evaluate(M, Factorization(np.zeros((12, 2)), np.zeros((9, 2))), want_oracle=False)
    truth = np.linalg.norm(arr)
    assert abs(bundle.fro_err - truth) <= 1e-10 * truth


def test_streaming_fro_matches_naive_loop(monkeypatch):
    # 9000 rows span three row blocks of 4000, the last one partial
    n, d = 9000, 3
    monkeypatch.setattr(sampling, "BLOCK_CELLS", 12_000)
    assert [b - a for a, b in sampling.row_blocks(n, d)] == [4000, 4000, 1000]
    g = np.random.default_rng(9)
    arr = g.standard_normal((n, d))
    M = DenseMatrix(arr)
    F = Factorization(g.standard_normal((n, 2)), g.standard_normal((d, 2)))
    naive = 0.0
    dense = F.u @ F.v.T
    for i in range(n):
        for j in range(d):
            naive += (arr[i, j] - dense[i, j]) ** 2
    naive = np.sqrt(naive)
    assert abs(streaming_fro_error(M, F) - naive) <= 1e-10 * naive


def test_oracle_guard_refuses_large_input(monkeypatch):
    M = DenseMatrix(np.ones((2001, 2001)))
    with pytest.raises(ParameterError):
        oracle_gaps(M, 2)

    # evaluate() refuses before it scores the residual
    def refuse(*args, **kwargs):
        raise AssertionError("evaluate() scored before checking the oracle size")

    monkeypatch.setattr(lela_driver, "spectral_error", refuse)
    F = Factorization(np.zeros((2001, 2)), np.zeros((2001, 2)))
    with pytest.raises(ParameterError):
        evaluate(M, F, want_oracle=True)


@pytest.mark.parametrize("u_rows, v_rows", [(3, 3), (4, 4), (5, 2)])
def test_streaming_fro_error_refuses_a_shape_mismatch(u_rows, v_rows):
    M = DenseMatrix(np.ones((4, 3)))
    F = Factorization(np.ones((u_rows, 1)), np.ones((v_rows, 1)))
    with pytest.raises(ParameterError, match="does not match the matrix"):
        streaming_fro_error(M, F)


def test_monotone_improvement_in_budget():
    n = d = 80
    r = 3
    M_r, _ = gen_powerlaw(n, d, r, 0.0, seed=10)
    medians = []
    for mult in (4, 8, 16, 32):
        errs = []
        for seed in range(10):
            rep = run_lela(M_r, r, mult * n * r, 6, mode="bernoulli", seed=seed)
            errs.append(scored(M_r, rep, seed=seed).spectral_err)
        medians.append(np.median(errs))
    assert all(b <= a + 1e-12 for a, b in zip(medians, medians[1:]))


def test_reports_deterministic():
    M = DenseMatrix(np.random.default_rng(11).standard_normal((20, 15)))
    r1 = run_lela(M, 2, 150, 3, seed=13)
    r2 = run_lela(M, 2, 150, 3, seed=13)
    assert np.array_equal(r1.factorization.u, r2.factorization.u)
    assert np.array_equal(r1.factorization.v, r2.factorization.v)
    b1, b2 = scored(M, r1, seed=13), scored(M, r2, seed=13)
    assert b1.spectral_err == b2.spectral_err
    assert b1.fro_err == b2.fro_err
    assert r1.sample_count == r2.sample_count


def test_parameter_validation():
    M = DenseMatrix(np.eye(4))
    with pytest.raises(ParameterError):
        run_lela(M, 0, 10, 2)
    with pytest.raises(ParameterError):
        run_lela(M, 5, 10, 2)
    with pytest.raises(ParameterError):
        run_lela(M, 2, 0, 2)
    with pytest.raises(ParameterError):
        run_lela(M, 2, 10, 0)
    with pytest.raises(ParameterError):
        run_lela(M, 2, 10, 2, mode="bogus")
    assert M.pass_count == 0
