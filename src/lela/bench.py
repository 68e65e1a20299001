"""Synthetic instances, the Gaussian-projection baseline, and the experiment grid.

Instances follow the power-law model: M_r = D U V^T D with D_ii proportional
to 1 / i^alpha and the r nonzero singular values rescaled to exactly 1.
alpha = 0 gives incoherent matrices (leverage spread out), alpha = 1 coherent
ones (leverage concentrated on early rows/columns).  Noise is an i.i.d.
Gaussian matrix rescaled to a target spectral norm.
"""
from __future__ import annotations

import csv
import functools
import statistics
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import rng
from .distpca import run_distpca
from .driver import lela
from .errors import DegenerateInputError, LelaError, ParameterError
from .linalg import (
    DenseMatrix,
    Factorization,
    low_rank_diff_spectral_norm,
    orthonormal_columns,
    physical_memory,
    spectral_error,
)
from .matprod import ProductTask, lowrank_product, stagewise_product_baseline

GENERATOR_SIZE_GUARD = 2000

# Each algorithm and its instance: a noisy power-law M, the adversarial pair
# (A, B), or (Y, Y^T) for a noisy power-law Y; the last two run as one family,
# A @ B.  A cell's seed keys its algorithm's place in this table.
ALGORITHMS = {
    "lela": "matrix",
    "gaussian-projection": "matrix",
    "product-direct": "product",
    "product-stagewise": "product",
    "covariance-direct": "covariance",
    "covariance-stagewise": "covariance",
    "distpca": "matrix",
}


def gen_powerlaw(
    n: int, d: int, r: int, alpha: float, seed: int = 0
) -> tuple[DenseMatrix, Factorization]:
    """Power-law rank-r matrix M with all nonzero singular values equal to 1.

    Returns ``(M, truth)``: ``truth.u`` and ``truth.v`` hold M's left and
    right singular vectors, so M is exactly ``truth.u @ truth.v.T``.
    """
    if r < 1 or r > min(n, d):
        raise ParameterError("rank must lie in [1, min(n, d)]")
    if not 0 <= alpha < np.inf:  # NaN fails too
        raise ParameterError("power-law exponent must be finite and nonnegative")
    if min(n, d) > GENERATOR_SIZE_GUARD:
        raise ParameterError(
            f"generator refused: min(n, d) > {GENERATOR_SIZE_GUARD} (dense materialization)"
        )
    gu = rng.stream(seed, rng.TAG_FACTOR_U)
    gv = rng.stream(seed, rng.TAG_FACTOR_V)
    U0 = orthonormal_columns(gu.standard_normal((n, r)))
    V0 = orthonormal_columns(gv.standard_normal((d, r)))
    # powers in float64: an int exponent would raise int64 powers, which wrap
    with np.errstate(over="ignore"):  # k ** alpha = inf past float range; 1 / inf is 0
        dn = (1.0 / np.arange(1.0, n + 1) ** alpha)[:, None]
        dd = (1.0 / np.arange(1.0, d + 1) ** alpha)[:, None]
    if min(np.count_nonzero(dn), np.count_nonzero(dd)) < r:  # the rest would not depend on alpha
        raise ParameterError(f"power-law exponent {alpha} leaves fewer than r = {r} nonzero weights")
    A = dn * U0
    B = dd * V0
    # SVD of the rank-r product A @ B.T through its factors, then pin the
    # spectrum to ones while keeping the (coherence-carrying) singular vectors
    qa, ra = np.linalg.qr(A)
    qb, rb = np.linalg.qr(B)
    uc, s, vct = np.linalg.svd(ra @ rb.T)
    truth = Factorization(qa @ uc, qb @ vct.T)
    return DenseMatrix(truth.u @ truth.v.T), truth


def add_noise(M_r: DenseMatrix, noise_spectral: float, seed: int = 0) -> DenseMatrix:
    """Add an i.i.d. Gaussian matrix rescaled so its spectral norm hits the target."""
    if not 0 <= noise_spectral < np.inf:  # NaN fails too
        raise ParameterError("target noise level must be nonnegative and finite")
    if noise_spectral == 0.0:
        return M_r
    g = rng.stream(seed, rng.TAG_NOISE)
    Z = g.standard_normal(M_r.shape)
    top = np.linalg.svd(Z, compute_uv=False)[0]
    Z *= noise_spectral / top
    return DenseMatrix(M_r.data + Z)


def gaussian_projection_baseline(
    M: DenseMatrix, r: int, l: int, seed: int = 0
) -> Factorization:
    """Sketch-based baseline: project onto M @ G for a d x l Gaussian G.

    Orthonormalizes the sketch and truncates the projected matrix to rank r.
    """
    n, d = M.shape
    if not (r <= l <= min(n, d)):
        raise ParameterError(f"projection dimension l={l} must satisfy r <= l <= min(n, d)")
    g = rng.stream(seed, rng.TAG_SKETCH)
    G = g.standard_normal((d, l))
    a = M.data
    Q = orthonormal_columns(a @ G)
    B = Q.T @ a
    ub, s, vt = np.linalg.svd(B, full_matrices=False)
    return Factorization(Q @ (ub[:, :r] * s[:r]), vt[:r].T)


def make_adversarial_product(
    n: int, r: int, seed: int = 0
) -> tuple[DenseMatrix, DenseMatrix, Factorization]:
    """Rank-2r pair (A, B) whose product is exactly rank r.

    A is n x k and B is k x n, with k = max(3r, 8).  The top-r row space of A
    is orthogonal to the top-r column space of B, so any method that truncates
    A and B separately before multiplying loses the entire product.  Returns
    (A, B, exact factorization of A @ B).  Needs n >= 2r.
    """
    if n < 2 * r:
        raise ParameterError(f"adversarial product needs n >= 2r, got n={n} and r={r}")
    inner = max(3 * r, 8)
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
    """Grid definition for one experiment run.

    The Gaussian projection paired with budget m uses dimension l = m // n.
    """

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
    servers: int = 4
    sampler_mode: str = "multinomial"

    def __post_init__(self):
        # refused here, since run_experiment records a failed cell and goes on
        for name in ("n", "d", "trials", "iterations", "servers"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be at least 1")
        for name in ("noise_levels", "m_grid", "algorithms"):
            if not getattr(self, name):
                raise ParameterError(f"{name} must be nonempty")
        if not 1 <= self.r <= min(self.n, self.d):
            raise ParameterError("rank must lie in [1, min(n, d)]")
        if "distpca" in self.algorithms and self.servers > self.n:
            raise ParameterError(f"servers = {self.servers} exceeds n = {self.n} rows to split")
        if not 0 <= self.alpha < np.inf:
            raise ParameterError("power-law exponent must be finite and nonnegative")
        if not all(0 <= x < np.inf for x in self.noise_levels):
            raise ParameterError("noise levels must be finite and nonnegative")
        for m in self.m_grid:
            if not 1 <= m <= physical_memory() // 8:  # draw_multinomial's rule
                raise ParameterError(f"budget m = {m} must be at least 1 and fit in memory")
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ParameterError(f"unknown algorithm {name!r}")
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

    def as_csv(self) -> list[str]:
        """The fields in order: None empty, a float field as repr(float), the rest str."""
        cells = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                cells.append("")
            elif f.type.startswith("float"):  # annotations are strings here
                cells.append(repr(float(value)))
            else:
                cells.append(str(value))
        return cells


CSV_HEADER = tuple(f.name for f in fields(ExperimentRow))


def _build_instance(cfg: ExperimentConfig, kind: str, noise_idx: int, trial: int):
    """The instance of one kind at (noise index, trial), shared by the algorithms.

    "matrix": (M, truth of M_r).  "product" and "covariance": (A, B, truth,
    A @ B) with the last two factored, for the adversarial pair (exactly rank
    r, whatever the noise level) or for (Y, Y^T), whose truth is (Y Y^T)_r.
    """
    path = {"product": (101,), "covariance": (202, noise_idx)}.get(kind, (noise_idx,))
    inst_seed = rng.derive_seed(cfg.seed, rng.TAG_TRIAL, *path, trial)
    if kind == "product":
        A, B, truth = make_adversarial_product(cfg.n, cfg.r, seed=inst_seed)
        return A, B, truth, truth
    M_r, truth = gen_powerlaw(cfg.n, cfg.d, cfg.r, cfg.alpha, seed=inst_seed)
    M = add_noise(M_r, cfg.noise_levels[noise_idx], seed=inst_seed)
    if kind == "matrix":
        return M, truth
    fro_sq = float(np.einsum("ij,ij->", M.data, M.data))
    if not np.isfinite(fro_sq * fro_sq):  # build_product_plan's rule on (Y, Y^T)
        raise DegenerateInputError("|Y|_F^4, the bound on |Y Y^T|_F^2, overflows")
    uy, sy, _ = np.linalg.svd(M.data, full_matrices=False)
    truth = Factorization(uy[:, : cfg.r] * sy[: cfg.r] ** 2, uy[:, : cfg.r])
    # Y Y^T - u v^T = [Y, -u] [Y, v]^T: its norm is exact without the n x n Gram
    return M, DenseMatrix(M.data.T), truth, Factorization(M.data, M.data)


def _run_one(cfg, algorithm, instance, m, l, seed):
    """One cell of the grid on its built instance; returns (err_vs_target, err_vs_input)."""
    if ALGORITHMS[algorithm] == "matrix":
        M, truth = instance
        if algorithm == "lela":
            F = lela(M, cfg.r, m, cfg.iterations, mode=cfg.sampler_mode, seed=seed).factorization
        elif algorithm == "gaussian-projection":
            F = gaussian_projection_baseline(M, cfg.r, l, seed=seed)
        else:
            F, _ = run_distpca(M, cfg.servers, cfg.r, m, cfg.iterations, seed=seed)
        return low_rank_diff_spectral_norm(truth, F), spectral_error(M, F, seed=seed)
    A, B, truth, product = instance
    if algorithm.endswith("-direct"):
        task = ProductTask(a=A, b=B, rank=cfg.r, m=m, iterations=cfg.iterations, seed=seed)
        F = lowrank_product(task)
    else:
        F = stagewise_product_baseline(A, B, cfg.r, m, cfg.iterations, seed=seed)
    return low_rank_diff_spectral_norm(truth, F), low_rank_diff_spectral_norm(product, F)


def run_experiment(cfg: ExperimentConfig, out_path=None) -> list[ExperimentRow]:
    """Execute algorithm x noise x budget x trial and emit one row per run.

    Rows are produced in deterministic (algorithm, noise, budget, trial)
    order.  Failures are recorded with an error marker and the run continues.
    Product algorithms ignore the noise grid (single pseudo-level 0.0).  Each
    instance is built once, before the first timed call on it, so a row's
    wall time is its algorithm's call alone, and 0 if the instance fails.
    """
    instance = functools.cache(functools.partial(_build_instance, cfg))
    rows: list[ExperimentRow] = []
    for algorithm in cfg.algorithms:
        kind = ALGORITHMS[algorithm]
        alg_idx = list(ALGORITHMS).index(algorithm)
        levels = [0.0] if kind == "product" else cfg.noise_levels
        for noise_idx, noise in enumerate(levels):
            for m in cfg.m_grid:
                l = m // cfg.n  # the projection dimension paired with budget m
                for trial in range(cfg.trials):
                    alg_seed = rng.derive_seed(cfg.seed, alg_idx, noise_idx, m, trial)
                    start = None
                    try:
                        inst = instance(kind, noise_idx, trial)
                        start = time.perf_counter()
                        err, err_in = _run_one(cfg, algorithm, inst, m, l, alg_seed)
                        status = "ok"
                    except LelaError as exc:
                        err = err_in = None
                        status = f"error:{type(exc).__name__}"
                    elapsed = 0.0 if start is None else time.perf_counter() - start
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
