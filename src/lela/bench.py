"""Synthetic instances, the Gaussian-projection baseline, and the experiment grid.

Instances follow the power-law model: M_r = D U V^T D with D_ii proportional
to 1 / i^alpha and the r nonzero singular values rescaled to exactly 1.
alpha = 0 gives incoherent matrices (leverage spread out), alpha = 1 coherent
ones (leverage concentrated on early rows/columns).  Noise is an i.i.d.
Gaussian matrix rescaled to a target spectral norm.
"""
from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .distpca import run_distpca
from .driver import lela
from .errors import LelaError, ParameterError
from .linalg import (
    DenseMatrix,
    Factorization,
    OracleDecomposition,
    low_rank_diff_spectral_norm,
    orthonormal_columns,
    spectral_error,
)
from .matprod import ProductTask, lowrank_covariance, lowrank_product, stagewise_product_baseline

GENERATOR_SIZE_GUARD = 2000

ALGORITHMS = (
    "lela",
    "gaussian-projection",
    "product-direct",
    "product-stagewise",
    "covariance-direct",
    "covariance-stagewise",
    "distpca",
)

CSV_HEADER = (
    "algorithm",
    "alpha",
    "noise",
    "m",
    "l",
    "trial",
    "seed",
    "spectral_err",
    "spectral_err_vs_input",
    "wall_time",
    "status",
)


def gen_powerlaw(
    n: int, d: int, r: int, alpha: float, seed: int = 0
) -> tuple[DenseMatrix, OracleDecomposition]:
    """Power-law rank-r matrix with all nonzero singular values equal to 1."""
    if r < 1 or r > min(n, d):
        raise ParameterError("rank must lie in [1, min(n, d)]")
    if alpha < 0:
        raise ParameterError("power-law exponent must be nonnegative")
    if min(n, d) > GENERATOR_SIZE_GUARD:
        raise ParameterError(
            f"generator refused: min(n, d) > {GENERATOR_SIZE_GUARD} (dense materialization)"
        )
    gu = rng.stream(seed, rng.TAG_FACTOR_U)
    gv = rng.stream(seed, rng.TAG_FACTOR_V)
    U0 = orthonormal_columns(gu.standard_normal((n, r)))
    V0 = orthonormal_columns(gv.standard_normal((d, r)))
    dn = (1.0 / np.arange(1, n + 1) ** alpha)[:, None]
    dd = (1.0 / np.arange(1, d + 1) ** alpha)[:, None]
    A = dn * U0
    B = dd * V0
    # SVD of the rank-r product A @ B.T through its factors, then pin the
    # spectrum to ones while keeping the (coherence-carrying) singular vectors
    qa, ra = np.linalg.qr(A)
    qb, rb = np.linalg.qr(B)
    uc, s, vct = np.linalg.svd(ra @ rb.T)
    u_star = qa @ uc
    v_star = qb @ vct.T
    M = DenseMatrix(u_star @ v_star.T)
    ones = np.ones(r)
    return M, OracleDecomposition(u_star=u_star, sigma_star=ones, v_star=v_star, kappa=1.0)


def add_noise(M_r: DenseMatrix, noise_spectral: float, seed: int = 0) -> DenseMatrix:
    """Add an i.i.d. Gaussian matrix rescaled so its spectral norm hits the target."""
    if noise_spectral < 0:
        raise ParameterError("target noise level must be nonnegative")
    if noise_spectral == 0.0:
        return M_r
    g = rng.stream(seed, rng.TAG_NOISE)
    Z = g.standard_normal(M_r.shape)
    top = np.linalg.svd(Z, compute_uv=False)[0]
    Z *= noise_spectral / top
    return DenseMatrix(M_r.data + Z)


def gaussian_projection_baseline(
    M: DenseMatrix, r: int, l: int, power_steps: int = 0, seed: int = 0
) -> Factorization:
    """Sketch-based baseline: project onto M @ G for a d x l Gaussian G.

    Orthonormalizes the sketch, optionally applies power steps, and truncates
    the projected matrix to rank r.
    """
    n, d = M.shape
    if not (r <= l <= min(n, d)):
        raise ParameterError(f"projection dimension l={l} must satisfy r <= l <= min(n, d)")
    if power_steps < 0:
        raise ParameterError("power step count must be nonnegative")
    g = rng.stream(seed, rng.TAG_SKETCH)
    G = g.standard_normal((d, l))
    a = M.data
    Q = orthonormal_columns(a @ G)
    for _ in range(power_steps):
        Q = orthonormal_columns(a @ (a.T @ Q))
    B = Q.T @ a
    ub, s, vt = np.linalg.svd(B, full_matrices=False)
    return Factorization(Q @ (ub[:, :r] * s[:r]), vt[:r].T)


def make_adversarial_product(
    n: int, r: int, seed: int = 0, inner: int | None = None
) -> tuple[DenseMatrix, DenseMatrix, Factorization]:
    """Rank-2r pair (A, B) whose product is exactly rank r.

    The top-r row space of A is orthogonal to the top-r column space of B, so
    any method that truncates A and B separately before multiplying loses the
    entire product.  Returns (A, B, exact factorization of A @ B).
    """
    if inner is None:
        inner = max(3 * r, 8)
    if inner < 3 * r:
        raise ParameterError("inner dimension must be at least 3r")
    g = rng.stream(seed, rng.TAG_FACTOR_U)
    W = orthonormal_columns(g.standard_normal((inner, 3 * r)))
    w1, w2, w3 = W[:, :r], W[:, r : 2 * r], W[:, 2 * r :]
    UU = orthonormal_columns(g.standard_normal((n, 2 * r)))
    u1, u2 = UU[:, :r], UU[:, r:]
    VV = orthonormal_columns(g.standard_normal((n, 2 * r)))
    v1, v2 = VV[:, :r], VV[:, r:]
    s_small = 0.5
    A = DenseMatrix(u1 @ w1.T + s_small * (u2 @ w2.T))
    B = DenseMatrix(w2 @ v1.T + s_small * (w3 @ v2.T))
    truth = Factorization(s_small * u2, v1)
    return A, B, truth


@dataclass
class ExperimentConfig:
    """Grid definition for one experiment run."""

    n: int
    d: int
    r: int
    alpha: float
    noise_levels: list[float]
    m_grid: list[int]
    trials: int
    iterations: int = 15
    seed: int = 0
    algorithms: list[str] = field(default_factory=lambda: ["lela", "gaussian-projection"])
    l_grid: list[int] | None = None
    servers: int = 4
    init_rounds: int = 10
    sampler_mode: str = "multinomial"

    def __post_init__(self):
        if self.trials < 1:
            raise ParameterError("trial count must be at least 1")
        if not self.m_grid:
            raise ParameterError("m grid must be nonempty")
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ParameterError(f"unknown algorithm {name!r}")
        if self.l_grid is None:
            self.l_grid = [m // self.n for m in self.m_grid]
        if len(self.l_grid) != len(self.m_grid) or any(
            l != m // self.n for l, m in zip(self.l_grid, self.m_grid)
        ):
            raise ParameterError("each projection dimension l must equal its paired m // n")
        if not self.noise_levels:
            raise ParameterError("noise level list must be nonempty")
        if self.sampler_mode not in ("multinomial", "bernoulli"):
            raise ParameterError("sampler_mode must be 'multinomial' or 'bernoulli'")


@dataclass(frozen=True)
class ExperimentRow:
    algorithm: str
    alpha: float
    noise: float
    m: int
    l: int | None
    trial: int
    seed: int
    spectral_err: float | None
    spectral_err_vs_input: float | None
    wall_time: float
    status: str

    def as_csv(self) -> list:
        def fmt(x):
            return "" if x is None else repr(x) if isinstance(x, float) else str(x)

        return [
            self.algorithm,
            repr(float(self.alpha)),
            repr(float(self.noise)),
            str(self.m),
            "" if self.l is None else str(self.l),
            str(self.trial),
            str(self.seed),
            fmt(self.spectral_err),
            fmt(self.spectral_err_vs_input),
            repr(float(self.wall_time)),
            self.status,
        ]


class _InstanceCache:
    """Lazily built instances keyed by (noise index, trial), shared across algorithms."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self._plain: dict[tuple[int, int], tuple] = {}
        self._product: dict[int, tuple] = {}
        self._covariance: dict[tuple[int, int], tuple] = {}

    def plain(self, noise_idx: int, trial: int):
        """(M, truth factorization of M_r) for the matrix algorithms."""
        key = (noise_idx, trial)
        if key not in self._plain:
            cfg = self.cfg
            inst_seed = rng.derive_seed(cfg.seed, rng.TAG_TRIAL, noise_idx, trial)
            M_r, dec = gen_powerlaw(cfg.n, cfg.d, cfg.r, cfg.alpha, seed=inst_seed)
            M = add_noise(M_r, cfg.noise_levels[noise_idx], seed=inst_seed)
            truth = Factorization(dec.u_star * dec.sigma_star, dec.v_star)
            self._plain[key] = (M, truth)
        return self._plain[key]

    def product(self, trial: int):
        """(A, B, truth factorization of A @ B) for the product algorithms."""
        if trial not in self._product:
            cfg = self.cfg
            inst_seed = rng.derive_seed(cfg.seed, rng.TAG_TRIAL, 101, trial)
            self._product[trial] = make_adversarial_product(cfg.n, cfg.r, seed=inst_seed)
        return self._product[trial]

    def covariance(self, noise_idx: int, trial: int):
        """(Y, truth factorization of (Y Y^T)_r) for the covariance algorithms."""
        key = (noise_idx, trial)
        if key not in self._covariance:
            cfg = self.cfg
            inst_seed = rng.derive_seed(cfg.seed, rng.TAG_TRIAL, 202, noise_idx, trial)
            Y_r, _ = gen_powerlaw(cfg.n, cfg.d, cfg.r, cfg.alpha, seed=inst_seed)
            Y = add_noise(Y_r, cfg.noise_levels[noise_idx], seed=inst_seed)
            uy, sy, _ = np.linalg.svd(Y.data, full_matrices=False)
            top_u = uy[:, : cfg.r]
            top_s = sy[: cfg.r] ** 2
            truth = Factorization(top_u * top_s, top_u)
            self._covariance[key] = (Y, truth)
        return self._covariance[key]


def _run_one(cfg, cache, algorithm, noise_idx, m, l, trial, alg_seed):
    """Dispatch one cell of the grid; returns (err_vs_target, err_vs_input)."""
    if algorithm == "lela":
        M, truth = cache.plain(noise_idx, trial)
        F = lela(M, cfg.r, m, cfg.iterations, mode=cfg.sampler_mode, seed=alg_seed).factorization
        err_in = spectral_error(M, F, iters=200, seed=rng.derive_seed(alg_seed, rng.TAG_SPECTRAL))
        return low_rank_diff_spectral_norm(truth, F), err_in
    if algorithm == "gaussian-projection":
        M, truth = cache.plain(noise_idx, trial)
        F = gaussian_projection_baseline(M, cfg.r, l, power_steps=0, seed=alg_seed)
        err_in = spectral_error(M, F, iters=200, seed=alg_seed)
        return low_rank_diff_spectral_norm(truth, F), err_in
    if algorithm == "distpca":
        M, truth = cache.plain(noise_idx, trial)
        F, _ = run_distpca(
            M, cfg.servers, cfg.r, m, cfg.iterations,
            init_rounds=cfg.init_rounds, seed=alg_seed,
        )
        err_in = spectral_error(M, F, iters=200, seed=alg_seed)
        return low_rank_diff_spectral_norm(truth, F), err_in
    if algorithm in ("product-direct", "product-stagewise"):
        A, B, truth = cache.product(trial)
        if algorithm == "product-direct":
            F = lowrank_product(
                ProductTask(a=A, b=B, rank=cfg.r, m=m, iterations=cfg.iterations, seed=alg_seed)
            )
        else:
            F = stagewise_product_baseline(A, B, cfg.r, m, cfg.iterations, seed=alg_seed)
        err = low_rank_diff_spectral_norm(truth, F)
        return err, err  # the product is exactly rank r, so the two gaps coincide
    if algorithm in ("covariance-direct", "covariance-stagewise"):
        Y, truth = cache.covariance(noise_idx, trial)
        if algorithm == "covariance-direct":
            F = lowrank_covariance(Y, cfg.r, m, cfg.iterations, seed=alg_seed)
        else:
            Yt = DenseMatrix(Y.data.T)
            F = stagewise_product_baseline(Y, Yt, cfg.r, m, cfg.iterations, seed=alg_seed)
        gram = DenseMatrix(Y.data @ Y.data.T)
        err_in = spectral_error(gram, F, iters=200, seed=alg_seed)
        return low_rank_diff_spectral_norm(truth, F), err_in
    raise ParameterError(f"unknown algorithm {algorithm!r}")


def run_experiment(
    cfg: ExperimentConfig, out_path=None, time_fn=time.perf_counter
) -> list[ExperimentRow]:
    """Execute algorithm x noise x budget x trial and emit one row per run.

    Rows are produced in deterministic (algorithm, noise, budget, trial)
    order.  Failures are recorded with an error marker and the run continues.
    Product algorithms ignore the noise grid (single pseudo-level 0.0).
    ``time_fn`` exists so tests can inject a deterministic clock.
    """
    cache = _InstanceCache(cfg)
    rows: list[ExperimentRow] = []
    for alg_idx, algorithm in enumerate(cfg.algorithms):
        product_family = algorithm.startswith("product")
        noise_indices = [0] if product_family else range(len(cfg.noise_levels))
        for noise_idx in noise_indices:
            noise = 0.0 if product_family else cfg.noise_levels[noise_idx]
            for m, l in zip(cfg.m_grid, cfg.l_grid):
                for trial in range(cfg.trials):
                    alg_seed = rng.derive_seed(cfg.seed, alg_idx, noise_idx, m, trial)
                    start = time_fn()
                    try:
                        err, err_in = _run_one(
                            cfg, cache, algorithm, noise_idx, m, l, trial, alg_seed
                        )
                        status = "ok"
                    except LelaError as exc:
                        err = err_in = None
                        status = f"error:{type(exc).__name__}"
                    elapsed = time_fn() - start
                    rows.append(
                        ExperimentRow(
                            algorithm=algorithm,
                            alpha=cfg.alpha,
                            noise=noise,
                            m=m,
                            l=l if algorithm == "gaussian-projection" else None,
                            trial=trial,
                            seed=alg_seed,
                            spectral_err=err,
                            spectral_err_vs_input=err_in,
                            wall_time=elapsed,
                            status=status,
                        )
                    )
    if out_path is not None:
        write_rows_csv(out_path, rows)
    print_summary(rows)
    return rows


def write_rows_csv(path, rows: list[ExperimentRow]) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(row.as_csv())


def print_summary(rows: list[ExperimentRow]) -> None:
    """Median and interquartile range per (algorithm, noise, m) cell."""
    cells: dict[tuple, list[float]] = {}
    for row in rows:
        if row.status == "ok" and row.spectral_err is not None:
            cells.setdefault((row.algorithm, row.noise, row.m), []).append(row.spectral_err)
    if not cells:
        print("summary: no successful runs")
        return
    print("summary (algorithm, noise, m): median [iqr]")
    for key in sorted(cells):
        vals = sorted(cells[key])
        med = statistics.median(vals)
        if len(vals) >= 4:
            q = statistics.quantiles(vals, n=4)
            iqr = q[2] - q[0]
        else:
            iqr = vals[-1] - vals[0]
        print(f"  {key[0]} noise={key[1]:g} m={key[2]}: {med:.6g} [{iqr:.6g}]")
