"""Acceptance suite: one test per release criterion, each printing a verdict line.

Statistical thresholds were calibrated once against this implementation and
are frozen here; run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion PASS/FAIL lines.
"""
import time

import numpy as np
import pytest

import oracles
from lela import (
    DenseMatrix,
    Factorization,
    ProductTask,
    add_noise,
    build_plan,
    communication_bound,
    compute_stats,
    draw_bernoulli,
    draw_multinomial,
    gaussian_projection_baseline,
    gen_powerlaw,
    initialize,
    low_rank_diff_spectral_norm,
    lowrank_product,
    objective,
    run_distpca,
    saturating_sample_count,
    stagewise_product_baseline,
)
from lela import lela as run_lela
from lela import rng as lrng
from lela.distpca import partition_rows, dist_sample, CommLedger
from lela.driver import streaming_fro_error
from lela.linalg import orthonormal_columns
from lela.sampling import OpCounter
from lela.waltmin import als_half_step


def _verdict(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_exact_recovery():
    # n = d = 200, r = 3, incoherent, noiseless, m = 25 n r ln n, T = 20,
    # reuse mode, element-wise Bernoulli sampling: relative Frobenius error
    # <= 1e-3 in at least 18 of 20 seeds, under 30 s total
    start = time.perf_counter()
    n = d = 200
    r = 3
    m = int(25 * n * r * np.log(n))
    hits = 0
    worst = 0.0
    for seed in range(20):
        M, _ = gen_powerlaw(n, d, r, 0.0, seed=1000 + seed)
        rep = run_lela(M, r, m, 20, mode="bernoulli", seed=seed)
        # |M|_F = sqrt(r) by construction
        rel = streaming_fro_error(M, rep.factorization) / np.sqrt(r)
        worst = max(worst, rel)
        hits += rel <= 1e-3
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "exact recovery",
        hits >= 18 and elapsed < 30.0,
        f"hits={hits}/20 worst={worst:.2e} time={elapsed:.1f}s",
    )


def test_criterion_02_concentration_scaling():
    # reweighted sampled matrix concentrates: quadrupling m from 8nr to 32nr
    # shrinks the median spectral deviation by a factor inside [1.6, 2.6]
    start = time.perf_counter()
    n = d = 300
    r = 2
    ratios = {}
    for alpha in (0.0, 1.0):
        M_r, _ = gen_powerlaw(n, d, r, alpha, seed=11)
        M = add_noise(M_r, 0.1, seed=12)
        medians = {}
        for m in (8 * n * r, 32 * n * r):
            plan = build_plan(M, m)
            devs = []
            for t in range(20):
                S = draw_bernoulli(plan, seed=t)
                R = S.weighted_csr().toarray()
                devs.append(
                    oracles.spectral_norm_dense(R - M.data) / np.sqrt(plan.stats.fro_sq)
                )
            medians[m] = float(np.median(devs))
        ratios[alpha] = medians[8 * n * r] / medians[32 * n * r]
    elapsed = time.perf_counter() - start
    ok = all(1.6 <= v <= 2.6 for v in ratios.values()) and elapsed < 60.0
    _verdict(
        2,
        "concentration scaling",
        ok,
        f"ratios alpha0={ratios[0.0]:.3f} alpha1={ratios[1.0]:.3f} time={elapsed:.1f}s",
    )


def _figure_one_medians(alpha, trials=20):
    n = d = 500
    r = 5
    noise_levels = (0.01, 0.05, 0.1)
    m_grid = [k * n * r for k in (4, 8, 16, 32)]
    cells = {}
    for noise_idx, noise in enumerate(noise_levels):
        for m in m_grid:
            l = m // n
            lela_errs, gauss_errs = [], []
            for t in range(trials):
                iseed = lrng.derive_seed(77, int(alpha * 10), noise_idx, t)
                M_r, dec = gen_powerlaw(n, d, r, alpha, seed=iseed)
                truth = Factorization(dec.u_star * dec.sigma_star, dec.v_star)
                M = add_noise(M_r, noise, seed=iseed)
                rep = run_lela(M, r, m, 15, mode="bernoulli", seed=iseed + 1)
                lela_errs.append(low_rank_diff_spectral_norm(truth, rep.factorization))
                G = gaussian_projection_baseline(M, r, l, seed=iseed + 2)
                gauss_errs.append(low_rank_diff_spectral_norm(truth, G))
            cells[(noise, m)] = (float(np.median(lela_errs)), float(np.median(gauss_errs)))
    return cells


@pytest.mark.slow
def test_criterion_03_coherent_trend_beats_projection():
    # coherent instances (alpha = 1): the sampled method's median error vs the
    # true low-rank part must fall strictly below the Gaussian-projection
    # baseline at every (noise, m) grid point
    start = time.perf_counter()
    cells = _figure_one_medians(alpha=1.0)
    elapsed = time.perf_counter() - start
    failing = {
        key: (le, ge) for key, (le, ge) in sorted(cells.items()) if not le < ge
    }
    detail = " ".join(
        f"[noise={k[0]:g},m={k[1]//2500}nr: L={v[0]:.4f} G={v[1]:.4f}]"
        for k, v in sorted(cells.items())
    )
    _verdict(
        3,
        "coherent trend vs projection",
        not failing and elapsed < 600.0,
        f"failing_cells={len(failing)} time={elapsed:.0f}s {detail}",
    )


@pytest.mark.slow
def test_criterion_04_incoherent_trend_parity():
    # incoherent instances (alpha = 0): medians stay within a factor of two of
    # each other at every grid point
    start = time.perf_counter()
    cells = _figure_one_medians(alpha=0.0)
    elapsed = time.perf_counter() - start
    failing = {
        key: (le, ge)
        for key, (le, ge) in cells.items()
        if not (le <= 2.0 * ge and ge <= 2.0 * le)
    }
    detail = " ".join(
        f"[noise={k[0]:g},m={k[1]//2500}nr: L={v[0]:.4f} G={v[1]:.4f}]"
        for k, v in sorted(cells.items())
    )
    _verdict(
        4,
        "incoherent trend parity",
        not failing and elapsed < 600.0,
        f"failing_cells={len(failing)} time={elapsed:.0f}s {detail}",
    )


def test_criterion_05_adversarial_product():
    # rank-2r inputs with orthogonal leading subspaces: the direct method's
    # median error is at most half the stagewise baseline's at equal budget
    start = time.perf_counter()
    n, r = 200, 5
    m = 8 * n * r
    direct_errs, staged_errs = [], []
    from lela import make_adversarial_product

    for t in range(20):
        A, B, truth = make_adversarial_product(n, r, seed=500 + t)
        F = lowrank_product(ProductTask(a=A, b=B, rank=r, m=m, iterations=10, seed=t))
        direct_errs.append(low_rank_diff_spectral_norm(truth, F))
        G = stagewise_product_baseline(A, B, r, m, 10, seed=t)
        staged_errs.append(low_rank_diff_spectral_norm(truth, G))
    med_direct = float(np.median(direct_errs))
    med_staged = float(np.median(staged_errs))
    elapsed = time.perf_counter() - start
    _verdict(
        5,
        "adversarial product",
        med_direct <= 0.5 * med_staged and elapsed < 300.0,
        f"direct={med_direct:.4f} stagewise={med_staged:.4f} time={elapsed:.0f}s",
    )


def test_criterion_06_objective_monotonicity():
    # 50 random (matrix, sample set) instances in reuse mode: the weighted
    # objective never increases across any half step, to 1e-12 of its scale
    violations = 0
    checked = 0
    for inst in range(50):
        g = np.random.default_rng(3000 + inst)
        n = int(g.integers(8, 16))
        d = int(g.integers(6, 14))
        r = int(g.integers(1, 4))
        arr = g.standard_normal((n, d))
        M = DenseMatrix(arr)
        plan = build_plan(M, 6 * max(n, d) * r)
        S = draw_bernoulli(plan, seed=inst)
        try:
            init = initialize(S, plan.row_trim_scores(), r, init_svd_iters=40, seed=inst)
        except Exception:
            continue
        u_hat = init.u0
        prev = objective(S, Factorization(u_hat, np.zeros((d, r))))
        scale = max(prev, 1.0)
        for t in range(4):
            v_raw, _ = als_half_step(u_hat, S, "update-V")
            now = objective(S, Factorization(u_hat, v_raw))
            violations += now > prev + 1e-12 * scale
            checked += 1
            prev = now
            # orthonormalizing v_raw keeps u_hat @ v_raw.T representable as
            # (u_hat R.T) @ v_hat.T, so the next argmin cannot do worse
            v_hat = orthonormal_columns(v_raw)
            u_raw, _ = als_half_step(v_hat, S, "update-U")
            now = objective(S, Factorization(u_raw, v_hat))
            violations += now > prev + 1e-12 * scale
            checked += 1
            prev = now
            u_hat = orthonormal_columns(u_raw)
    _verdict(
        6,
        "objective monotonicity",
        violations == 0 and checked >= 50 * 8 * 0.9,
        f"violations={violations} half_steps={checked}",
    )


def test_criterion_07_distributed_equivalence():
    start = time.perf_counter()
    g = np.random.default_rng(4000)
    worst = 0.0
    bound_ok = True
    for inst in range(10):
        n = int(g.integers(60, 121))
        d = int(g.integers(30, 61))
        r = int(g.integers(2, 4))
        s = (1, 2, 4, 7)[inst % 4]
        seed = 5000 + inst
        arr = np.random.default_rng(seed).standard_normal((n, d))
        M = DenseMatrix(arr)
        m = 8 * n * r
        T = 3
        init_rounds = 4
        F, ledger = run_distpca(M, s, r, m, T, init_rounds=init_rounds, seed=seed)
        C = oracles.centralized_reference(M, r, m, T, init_rounds=init_rounds, seed=seed)
        worst = max(worst, float(np.abs(F.u - C.u).max()), float(np.abs(F.v - C.v).max()))
        shards = partition_rows(M, s)
        dist_sample(shards, m, CommLedger(), seed=seed)
        omega = oracles.total_samples(shards)
        if ledger.grand_total() > communication_bound(d, s, omega, r, init_rounds):
            bound_ok = False
        assert ledger.verify()
    elapsed = time.perf_counter() - start
    _verdict(
        7,
        "distributed equivalence",
        worst <= 1e-10 and bound_ok and elapsed < 60.0,
        f"worst_diff={worst:.2e} bound_ok={bound_ok} time={elapsed:.1f}s",
    )


def test_criterion_08_sampler_fidelity():
    # (a) Bernoulli inclusion frequencies on a 20x20 instance stay within four
    # standard errors over 2000 draws
    arr = np.random.default_rng(42).standard_normal((20, 20))
    M = DenseMatrix(arr)
    plan = build_plan(M, 100)
    probs = np.vstack([plan.inclusion_probabilities_row(i) for i in range(20)])
    n_draws = 2000
    hits = np.zeros((20, 20))
    for t in range(n_draws):
        S = draw_bernoulli(plan, seed=t)
        hits[S.rows, S.cols] += 1
    freq = hits / n_draws
    stderr = np.sqrt(np.maximum(probs * (1 - probs), 1e-300) / n_draws)
    mask = probs < 1.0
    freq_ok = np.all(np.abs(freq[mask] - probs[mask]) <= 4 * stderr[mask] + 1e-12) and np.all(
        freq[~mask] == 1.0
    )

    # (b) multinomial vs Bernoulli downstream parity on an equal-leverage
    # instance: mean errors overlap within one standard deviation
    def dct_cols(n, r, shift):
        j = np.arange(n)[:, None]
        k = np.arange(shift, shift + r)[None, :]
        return np.cos(np.pi * (j + 0.5) * k / n) * np.sqrt(2.0 / n)

    n2 = d2 = 100
    r2 = 2
    m2 = 8 * n2 * r2
    U = dct_cols(n2, r2, 1)
    V = dct_cols(d2, r2, 4)
    base = U @ V.T
    truth = Factorization(U, V)
    eb, em = [], []
    for t in range(20):
        iseed = lrng.derive_seed(31, t)
        Z = np.random.default_rng(iseed).standard_normal((n2, d2))
        Z *= 0.05 / oracles.spectral_norm_dense(Z)
        M2 = DenseMatrix(base + Z)
        rb = run_lela(M2, r2, m2, 8, mode="bernoulli", seed=iseed + 1)
        rm = run_lela(M2, r2, m2, 8, mode="multinomial", seed=iseed + 1)
        eb.append(low_rank_diff_spectral_norm(truth, rb.factorization))
        em.append(low_rank_diff_spectral_norm(truth, rm.factorization))
    eb, em = np.array(eb), np.array(em)
    parity_ok = abs(eb.mean() - em.mean()) <= eb.std() + em.std()
    _verdict(
        8,
        "sampler fidelity",
        freq_ok and parity_ok,
        f"freq_ok={freq_ok} bern={eb.mean():.4f}+-{eb.std():.4f} "
        f"multi={em.mean():.4f}+-{em.std():.4f}",
    )


def test_criterion_09_saturated_oracle_equivalence():
    # saturated sampling sees the whole matrix with unit weights, so the
    # output must match the truncated SVD to 1e-6 in spectral norm
    worst = 0.0
    for seed in range(5):
        g = np.random.default_rng(6000 + seed)
        U = oracles.modified_gram_schmidt(g.standard_normal((100, 80)))
        V = oracles.modified_gram_schmidt(g.standard_normal((80, 80)))
        sigma = np.concatenate([np.linspace(5.0, 3.0, 4), 0.8 * np.linspace(1.0, 0.05, 76)])
        arr = (U[:, :80] * sigma) @ V.T
        M = DenseMatrix(arr)
        m = saturating_sample_count(M)
        rep = run_lela(M, 4, m, 3, mode="bernoulli", seed=seed)
        Ud, s, Vt = np.linalg.svd(arr)
        truth = (Ud[:, :4] * s[:4]) @ Vt[:4]
        diff = oracles.spectral_norm_dense(rep.factorization.dense() - truth)
        worst = max(worst, diff / oracles.spectral_norm_dense(arr))
    _verdict(9, "saturated oracle equivalence", worst <= 1e-6, f"worst={worst:.2e}")


def test_criterion_10_input_sparsity_discipline():
    # (a) every pipeline run takes exactly two passes over the matrix
    passes_ok = True
    for seed in range(5):
        arr = np.random.default_rng(7000 + seed).standard_normal((40, 25))
        M = DenseMatrix(arr)
        for mode in ("multinomial", "bernoulli"):
            rep = run_lela(M, 2, 500, 3, mode=mode, seed=seed)
            passes_ok = passes_ok and rep.passes_over_M == 2

    # (b) the multinomial sampler's work stays within a fixed multiple of
    # nnz + m log2(d) across a sweep of shapes and budgets
    budget_ok = True
    details = []
    for inst in range(10):
        g = np.random.default_rng(8000 + inst)
        n = int(g.integers(30, 120))
        d = int(g.integers(20, 90))
        m = int(g.integers(2, 20)) * n
        arr = g.standard_normal((n, d))
        M = DenseMatrix(arr)
        plan = build_plan(M, m)
        counter = OpCounter()
        draw_multinomial(plan, seed=inst, counter=counter)
        bound = 4.0 * (n * d + m * np.ceil(np.log2(d)))
        budget_ok = budget_ok and counter.ops <= bound
        details.append(counter.ops / bound)
    _verdict(
        10,
        "input-sparsity discipline",
        passes_ok and budget_ok,
        f"passes_ok={passes_ok} max_ops_fraction={max(details):.2f}",
    )
