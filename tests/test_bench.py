from types import SimpleNamespace

import numpy as np
import pytest

import lela.bench as lela_bench
import oracles
from lela import (
    DenseMatrix,
    ExperimentConfig,
    ParameterError,
    add_noise,
    gaussian_projection_baseline,
    gen_powerlaw,
    lowrank_covariance,
    run_experiment,
    stagewise_product_baseline,
)
from lela.bench import ALGORITHMS, CSV_HEADER, ExperimentRow, write_rows_csv


@pytest.fixture
def fixed_clock(monkeypatch):
    """A clock that always reads 0, so every row's wall time is 0.0."""
    monkeypatch.setattr(lela_bench, "time", SimpleNamespace(perf_counter=lambda: 0.0))


def test_gen_powerlaw_unit_spectrum_and_orthonormal():
    M, truth = gen_powerlaw(40, 30, 4, 0.7, seed=0)
    assert truth.rank == 4
    assert np.allclose(truth.u.T @ truth.u, np.eye(4), atol=1e-10)
    assert np.allclose(truth.v.T @ truth.v, np.eye(4), atol=1e-10)
    sigma = np.linalg.svd(M.data, compute_uv=False)
    assert np.allclose(sigma[:4], 1.0, atol=1e-10)
    assert np.all(sigma[4:] <= 1e-10)
    assert np.array_equal(M.data, truth.u @ truth.v.T)


def test_gen_powerlaw_incoherent_leverage():
    n, r = 250, 10
    for seed in range(10):
        _, truth = gen_powerlaw(n, n, r, 0.0, seed=seed)
        max_lev = np.max(np.sum(truth.u**2, axis=1))
        assert max_lev <= 5.0 * r / n


def test_gen_powerlaw_coherent_leverage():
    n, r = 500, 5
    for seed in range(5):
        _, truth = gen_powerlaw(n, n, r, 1.0, seed=seed)
        max_lev = np.max(np.sum(truth.u**2, axis=1))
        assert max_lev >= 20.0 * r / n


def test_gen_powerlaw_deterministic_and_guarded():
    a, _ = gen_powerlaw(20, 15, 2, 1.0, seed=5)
    b, _ = gen_powerlaw(20, 15, 2, 1.0, seed=5)
    assert np.array_equal(a.data, b.data)
    with pytest.raises(ParameterError):
        gen_powerlaw(2001, 2001, 2, 0.0, seed=0)
    for alpha in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            gen_powerlaw(10, 10, 2, alpha, seed=0)
    # k ** 1e308 is infinite from k = 2 on: one nonzero weight per side, so a
    # second planted direction would not depend on alpha
    with pytest.raises(ParameterError, match="fewer than r = 2 nonzero weights"):
        gen_powerlaw(30, 20, 2, 1e308)


def test_gen_powerlaw_large_finite_exponent_does_not_overflow():
    # k ** 140 passes float range from k = 159 on; those rows get weight 1 / inf = 0
    M, _ = gen_powerlaw(200, 150, 5, 140.0)
    sigma = np.linalg.svd(M.data, compute_uv=False)
    assert np.allclose(sigma[:5], 1.0, rtol=0.0, atol=1e-12)
    assert np.all(sigma[5:] <= 1e-10)


@pytest.mark.parametrize("alpha", [0, 1, 2, 13, 20])
def test_gen_powerlaw_int_exponent_is_the_float_one(alpha):
    # 30 ** 13 passes int64's range: the powers are taken in float64
    M, truth = gen_powerlaw(30, 20, 2, alpha, seed=4)
    M_f, truth_f = gen_powerlaw(30, 20, 2, float(alpha), seed=4)
    assert M.data.tobytes() == M_f.data.tobytes()
    assert truth.u.tobytes() == truth_f.u.tobytes()
    assert truth.v.tobytes() == truth_f.v.tobytes()


def test_add_noise_zero_target_is_identity():
    M, _ = gen_powerlaw(15, 15, 2, 0.0, seed=1)
    assert add_noise(M, 0.0, seed=2) is M


def test_add_noise_hits_target_spectral_norm():
    M, _ = gen_powerlaw(1000, 1000, 5, 0.0, seed=2)
    noisy = add_noise(M, 0.1, seed=3)
    Z = noisy.data - M.data
    measured = oracles.spectral_norm_dense(Z)
    assert abs(measured - 0.1) <= 1e-3 * 0.1
    # at n = 1000 the Frobenius mass of the rescaled noise sits near
    # target * sqrt(1000) / 2 = 1.58
    assert 1.52 <= np.linalg.norm(Z) <= 1.68


def test_add_noise_scaling_linearity():
    M, _ = gen_powerlaw(60, 60, 3, 0.0, seed=4)
    z1 = add_noise(M, 0.05, seed=7).data - M.data
    z2 = add_noise(M, 0.10, seed=7).data - M.data
    assert np.allclose(z2, 2.0 * z1, rtol=1e-12)


def test_gaussian_projection_full_sketch_equals_truncated_svd():
    g = np.random.default_rng(5)
    arr = g.standard_normal((25, 18))
    M = DenseMatrix(arr)
    F = gaussian_projection_baseline(M, 3, 18, seed=6)
    U, s, Vt = np.linalg.svd(arr)
    truth = (U[:, :3] * s[:3]) @ Vt[:3]
    assert np.linalg.norm(F.u @ F.v.T - truth) <= 1e-8 * np.linalg.norm(truth)


def test_gaussian_projection_recovers_exact_rank_r():
    hits = 0
    for seed in range(20):
        M, fac = gen_powerlaw(50, 40, 3, 0.0, seed=seed)
        F = gaussian_projection_baseline(M, 3, 13, seed=seed + 100)
        truth = fac.u @ fac.v.T
        hits += np.linalg.norm(F.u @ F.v.T - truth) <= 1e-8 * np.linalg.norm(truth)
    assert hits >= 19


def test_gaussian_projection_validation_and_determinism():
    M, _ = gen_powerlaw(20, 16, 2, 0.0, seed=7)
    with pytest.raises(ParameterError):
        gaussian_projection_baseline(M, 3, 2, seed=0)
    with pytest.raises(ParameterError):
        gaussian_projection_baseline(M, 2, 17, seed=0)
    a = gaussian_projection_baseline(M, 2, 8, seed=9)
    b = gaussian_projection_baseline(M, 2, 8, seed=9)
    assert np.array_equal(a.u, b.u)


def test_experiment_single_cell_single_row(fixed_clock):
    cfg = ExperimentConfig(
        n=30, d=30, r=2, alpha=0.0, noise_levels=[0.05], m_grid=[30 * 2 * 4],
        trials=1, iterations=3, seed=1, algorithms=["lela"],
    )
    rows = run_experiment(cfg)
    assert len(rows) == 1
    assert rows[0].status == "ok"
    assert rows[0].wall_time == 0.0
    assert rows[0].spectral_err is not None


def test_experiment_csv_schema_and_rerun_identical(tmp_path, fixed_clock):
    cfg = ExperimentConfig(
        n=24, d=24, r=2, alpha=0.0, noise_levels=[0.01, 0.1], m_grid=[24 * 2 * 4],
        trials=2, iterations=2, seed=3,
        algorithms=["lela", "gaussian-projection"],
    )
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    run_experiment(cfg, out_path=p1)
    run_experiment(cfg, out_path=p2)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header == ",".join(CSV_HEADER)


def test_experiment_records_error_rows_and_continues(fixed_clock):
    # l = m // n = 2 < r forces a parameter error inside the projection cell
    cfg = ExperimentConfig(
        n=20, d=20, r=4, alpha=0.0, noise_levels=[0.05], m_grid=[40, 20 * 4 * 8],
        trials=1, iterations=2, seed=5,
        algorithms=["gaussian-projection", "lela"],
    )
    rows = run_experiment(cfg)
    statuses = [(r.algorithm, r.m, r.status) for r in rows]
    assert ("gaussian-projection", 40, "error:ParameterError") in statuses
    assert [r.l for r in rows if r.algorithm == "gaussian-projection"] == [2, 32]
    assert all(r.status == "ok" for r in rows if r.algorithm == "lela")
    assert len(rows) == 4


def test_experiment_covers_product_and_covariance_families(fixed_clock):
    cfg = ExperimentConfig(
        n=30, d=30, r=2, alpha=0.0, noise_levels=[0.05], m_grid=[30 * 2 * 8],
        trials=1, iterations=3, seed=7,
        algorithms=["product-direct", "product-stagewise", "covariance-direct"],
    )
    rows = run_experiment(cfg)
    assert [r.algorithm for r in rows] == [
        "product-direct",
        "product-stagewise",
        "covariance-direct",
    ]
    assert all(r.status == "ok" for r in rows)
    direct, staged = rows[0].spectral_err, rows[1].spectral_err
    assert direct < staged  # the adversarial instance defeats the stagewise path


def test_covariance_error_vs_input_is_the_gram_residual_norm(fixed_clock):
    cfg = ExperimentConfig(
        n=30, d=20, r=2, alpha=0.5, noise_levels=[0.05], m_grid=[30 * 2 * 8],
        trials=1, iterations=3, seed=13,
        algorithms=["covariance-direct", "covariance-stagewise"],
    )
    rows = run_experiment(cfg)
    Y = lela_bench._build_instance(cfg, "covariance", 0, 0)[0]
    gram = Y.data @ Y.data.T
    direct, staged = rows
    F = lowrank_covariance(Y, cfg.r, cfg.m_grid[0], cfg.iterations, seed=direct.seed)
    G = stagewise_product_baseline(
        Y, DenseMatrix(Y.data.T), cfg.r, cfg.m_grid[0], cfg.iterations, seed=staged.seed
    )
    for row, fact in ((direct, F), (staged, G)):
        truth = oracles.spectral_norm_dense(gram - fact.u @ fact.v.T)
        assert abs(row.spectral_err_vs_input - truth) <= 1e-10 * truth


def _grid(**change):
    base = dict(
        n=24, d=20, r=2, alpha=0.5, noise_levels=[0.01, 0.1], m_grid=[24 * 2 * 8],
        trials=2, iterations=2, seed=5, algorithms=list(ALGORITHMS), servers=3,
    )
    return ExperimentConfig(**{**base, **change})


def test_cell_seed_and_errors_do_not_depend_on_list_position(fixed_clock):
    together = run_experiment(_grid(algorithms=list(reversed(ALGORITHMS))))
    for algorithm in ALGORITHMS:
        alone = run_experiment(_grid(algorithms=[algorithm]))
        assert alone == [row for row in together if row.algorithm == algorithm]


def test_wall_time_excludes_instance_building(monkeypatch):
    # the clock advances only while an instance is generated
    now = [0.0]
    monkeypatch.setattr(lela_bench, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    for name in ("gen_powerlaw", "add_noise", "make_adversarial_product"):
        def advancing(*args, _fn=getattr(lela_bench, name), **kwargs):
            now[0] += 1.0
            return _fn(*args, **kwargs)

        monkeypatch.setattr(lela_bench, name, advancing)
    rows = run_experiment(_grid())
    assert now[0] > 0 and all(r.status == "ok" for r in rows)
    assert [r.wall_time for r in rows] == [0.0] * len(rows)
    # a failed build (n < 2r for the adversarial pair) records 0 too
    rows = run_experiment(_grid(n=3, d=3, algorithms=["product-direct"]))
    assert [(r.status, r.wall_time) for r in rows] == [("error:ParameterError", 0.0)] * 2


def test_csv_prints_float_fields_given_as_ints():
    row = ExperimentRow(
        algorithm="lela", alpha=0, noise=1, m=40, l=None, trial=0, seed=3,
        spectral_err=None, spectral_err_vs_input=0.5, wall_time=0, status="ok",
    )
    assert row.as_csv() == ["lela", "0.0", "1.0", "40", "", "0", "3", "", "0.5", "0.0", "ok"]


def test_experiment_distpca_algorithm_runs(fixed_clock):
    cfg = ExperimentConfig(
        n=24, d=24, r=2, alpha=0.0, noise_levels=[0.05], m_grid=[24 * 2 * 8],
        trials=1, iterations=2, seed=9, algorithms=["distpca"], servers=3,
    )
    rows = run_experiment(cfg)
    assert rows[0].status == "ok"


def test_experiment_records_adversarial_product_size_error(fixed_clock):
    # n = 3 < 2r: the product instance is refused and the grid goes on
    cfg = ExperimentConfig(
        n=3, d=3, r=2, alpha=0.0, noise_levels=[0.05], m_grid=[30],
        trials=2, iterations=2, seed=11, algorithms=["product-direct"],
    )
    rows = run_experiment(cfg)
    assert [r.status for r in rows] == ["error:ParameterError"] * 2
    assert all(r.spectral_err is None and r.wall_time == 0.0 for r in rows)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: add_noise(DenseMatrix(np.eye(3)), -0.1), "noise level must be nonnegative"),
        (
            lambda: ExperimentConfig(n=10, d=10, r=2, alpha=0.0, noise_levels=[0.1], m_grid=[40],
                                     trials=1, algorithms=["lela"], sampler_mode="x"),
            "sampler_mode must be",
        ),
    ],
)
def test_bench_refuses_bad_parameters(build, message):
    with pytest.raises(ParameterError, match=message):
        build()


def test_config_validation():
    with pytest.raises(ParameterError):
        ExperimentConfig(n=10, d=10, r=2, alpha=0.0, noise_levels=[0.1], m_grid=[],
                         trials=1, algorithms=["lela"])
    with pytest.raises(ParameterError):
        ExperimentConfig(n=10, d=10, r=2, alpha=0.0, noise_levels=[0.1], m_grid=[40],
                         trials=0, algorithms=["lela"])
    with pytest.raises(ParameterError):
        ExperimentConfig(n=10, d=10, r=2, alpha=0.0, noise_levels=[0.1], m_grid=[40],
                         trials=1, algorithms=["nope"])
    with pytest.raises(ParameterError):
        ExperimentConfig(n=10, d=10, r=2, alpha=0.0, noise_levels=[0.1], m_grid=[40],
                         trials=1, algorithms=[])
    # refused up front: run_experiment would record every cell as an error
    with pytest.raises(ParameterError):
        ExperimentConfig(n=10, d=10, r=2, alpha=float("nan"), noise_levels=[0.1],
                         m_grid=[40], trials=1, algorithms=["lela"])
    # more servers than rows fails every distpca cell; the other algorithms ignore it
    with pytest.raises(ParameterError, match="servers = 11 exceeds n = 10"):
        ExperimentConfig(n=10, d=10, r=2, alpha=0.0, noise_levels=[0.1], m_grid=[40],
                         trials=1, algorithms=["lela", "distpca"], servers=11)
    ExperimentConfig(n=10, d=10, r=2, alpha=0.0, noise_levels=[0.1], m_grid=[40],
                     trials=1, algorithms=["lela"], servers=11)
    ExperimentConfig(n=10, d=10, r=2, alpha=0.0, noise_levels=[0.1], m_grid=[40],
                     trials=1, algorithms=["distpca"], servers=10)


@pytest.mark.parametrize(
    "change",
    [
        dict(n=0), dict(d=0), dict(r=0), dict(r=11), dict(iterations=0), dict(servers=0),
        dict(noise_levels=[0.1, float("nan")]), dict(noise_levels=[float("inf")]),
        dict(noise_levels=[-0.1]), dict(m_grid=[40, 0]), dict(m_grid=[10**20]),
    ],
)
def test_config_refuses_settings_that_fail_in_every_cell(change):
    base = dict(n=10, d=12, r=2, alpha=0.0, noise_levels=[0.1], m_grid=[40], trials=1)
    ExperimentConfig(**base)
    with pytest.raises(ParameterError):
        ExperimentConfig(**{**base, **change})


def test_write_rows_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    write_rows_csv(path, [])
    assert path.read_text().splitlines()[0] == ",".join(CSV_HEADER)
