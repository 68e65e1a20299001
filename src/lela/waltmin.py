"""Weighted alternating minimization over a sampled matrix.

The solver minimizes  sum_{(i,j) in Omega} w_ij (M_ij - (U V^T)_ij)^2  by
block coordinate descent: initialize U from a top-r SVD of the reweighted
sampled matrix (with heavy rows trimmed), then alternate exact weighted
least-squares updates of V and U.  Updated factors are QR-orthonormalized
between half steps for numerical stability; the fixed points are unchanged
because the dropped triangular scale is re-fit by the next solve.

With orthonormalized factors and reciprocal-probability weights, each row or
column normal matrix concentrates near the identity once the row/column has
enough samples.  Rows and columns that are barely observed instead produce
near-singular systems whose inversion amplifies noise without bound, so the
driver drops eigendirections below an absolute information floor
(``WaltMinConfig.ls_eig_floor``); set it to 0 for the pure exact solves.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import DegenerateInputError, ParameterError
from .linalg import (
    Factorization,
    MatrixStats,
    normal_equations,
    orthonormal_columns,
    pseudo_solve_spd_batch,
    qr_orthonormalize,
    topk_svd,
)
from .sampling import SampleSet

# Rows of the initial factor with norm >= TRIM_FACTOR * |M^i| / |M|_F are
# zeroed before orthonormalization so heavy rows cannot dominate the basis.
TRIM_FACTOR = 4.0

UPDATE_V = "update-V"
UPDATE_U = "update-U"

# Share of the samples held out when cross_validate is on.
HOLDOUT_FRACTION = 0.05


@dataclass
class WaltMinConfig:
    """Knobs for one alternating-minimization run.

    split_mode "fresh" partitions the samples into 2T+1 disjoint subsets (one
    for initialization, two per round); "reuse" runs every stage on the full
    sample set.  cross_validate holds out HOLDOUT_FRACTION of the samples and
    stops early once the held-out weighted error rises for two consecutive
    rounds.
    """

    rank: int
    iterations: int
    split_mode: str = "reuse"
    init_svd_iters: int = 100
    seed: int = 0
    cross_validate: bool = False
    ls_eig_floor: float = 0.07

    def __post_init__(self):
        if self.rank < 1:
            raise ParameterError("rank must be at least 1")
        if self.iterations < 1:
            raise ParameterError("iteration count must be at least 1")
        if self.split_mode not in ("reuse", "fresh"):
            raise ParameterError("split_mode must be 'reuse' or 'fresh'")
        if self.init_svd_iters < 1:
            raise ParameterError("init_svd_iters must be at least 1")
        if self.ls_eig_floor < 0.0:
            raise ParameterError("ls_eig_floor must be nonnegative")


@dataclass(frozen=True)
class InitResult:
    """Initial orthonormal left factor with the trimming audit trail."""

    u0: np.ndarray
    trimmed_rows: np.ndarray
    sigma0: np.ndarray


def split_samples(S: SampleSet, parts: int, seed: int = 0) -> list[SampleSet]:
    """Assign each entry to one of ``parts`` subsets uniformly at random."""
    if parts < 1:
        raise ParameterError("number of parts must be at least 1")
    if S.size == 0:
        raise DegenerateInputError("cannot split an empty sample set")
    if parts > S.size:
        raise DegenerateInputError(f"cannot split {S.size} samples into {parts} parts")
    if parts == 1:
        return [S]
    assignment = rng.stream(seed, rng.TAG_SPLIT).integers(0, parts, size=S.size)
    return [S.subset(np.flatnonzero(assignment == p)) for p in range(parts)]


def trim_scores_from_stats(stats: MatrixStats) -> np.ndarray:
    """Per-row trimming scores |M^i| / |M|_F."""
    return np.sqrt(stats.row_sq_norms / stats.fro_sq)


def initialize(
    S0: SampleSet,
    stats: MatrixStats | None,
    r: int,
    init_svd_iters: int = 100,
    seed: int = 0,
    trim_scores: np.ndarray | None = None,
) -> InitResult:
    """Top-r left factor of the reweighted sampled matrix, trimmed then QR'd.

    ``trim_scores`` overrides the |M^i| / |M|_F scores derived from ``stats``
    (used by the product path, where the target matrix is never formed).
    """
    if S0.size == 0:
        raise DegenerateInputError("initialization requires a nonempty sample set")
    if trim_scores is None:
        if stats is None:
            raise ParameterError("either stats or trim_scores must be provided")
        trim_scores = trim_scores_from_stats(stats)
    dec = topk_svd(S0.weighted_operator(), r, iters=init_svd_iters, seed=seed)
    u0 = dec.u_star.copy()
    row_norms = np.linalg.norm(u0, axis=1)
    trimmed = np.flatnonzero(row_norms >= TRIM_FACTOR * trim_scores)
    u0[trimmed] = 0.0
    if not np.any(u0):
        raise DegenerateInputError("trimming removed every row of the initial factor")
    u0 = qr_orthonormalize(u0)
    return InitResult(u0=u0, trimmed_rows=trimmed, sigma0=dec.sigma_star)


def als_half_step(
    fixed: np.ndarray, S_t: SampleSet, side: str, eig_floor: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """One exact weighted least-squares half step.

    For side "update-V" the left factor is fixed and every column j solves its
    r x r normal system over the samples observed in that column; "update-U"
    is the symmetric row update.  Returns the new factor and the indices that
    had no samples (their rows are zero).  ``eig_floor`` > 0 drops
    under-informed directions of the normal matrices (see
    pseudo_solve_spd_batch); the default keeps the solves exact.
    """
    if side not in (UPDATE_V, UPDATE_U):
        raise ParameterError(f"unknown half-step side {side!r}")
    if S_t.size == 0:
        raise DegenerateInputError("half step requires a nonempty sample set")
    if side == UPDATE_V:
        group, other, out_dim = S_t.cols, S_t.rows, S_t.d
    else:
        group, other, out_dim = S_t.rows, S_t.cols, S_t.n
    B, z = normal_equations(group, fixed[other], S_t.weights, S_t.vals, out_dim)
    factor = pseudo_solve_spd_batch(B, z, eig_floor=eig_floor)
    observed = np.bincount(group, minlength=out_dim) > 0
    return factor, np.flatnonzero(~observed)


def objective(S: SampleSet, F: Factorization) -> float:
    """Weighted squared error of the factorization over the stored entries."""
    if F.shape != (S.n, S.d):
        raise ParameterError("factorization shape does not match the sample set")
    residual = S.vals - F.entries(S.rows, S.cols)
    return float(np.sum(S.weights * residual * residual))


def _holdout_split(S: SampleSet, fraction: float, seed: int) -> tuple[SampleSet, SampleSet]:
    g = rng.stream(seed, rng.TAG_HOLDOUT)
    mask = g.random(S.size) < fraction
    if not mask.any() or mask.all():
        return S, S.subset(np.array([], dtype=np.int64))
    return S.subset(np.flatnonzero(~mask)), S.subset(np.flatnonzero(mask))


def waltmin(
    S: SampleSet,
    stats: MatrixStats | None,
    cfg: WaltMinConfig,
    trim_scores: np.ndarray | None = None,
    objective_trace: list | None = None,
) -> Factorization:
    """Run initialization plus ``cfg.iterations`` alternating rounds.

    Returns the factor pair whose product is the final iterate: the last U is
    the exact least-squares response to the (orthonormalized) last V.  When
    ``objective_trace`` is a list, the training objective is appended after
    every half step.
    """
    if stats is None and trim_scores is None:
        raise ParameterError("either stats or trim_scores must be provided")
    T = cfg.iterations
    holdout = None
    train = S
    if cfg.cross_validate:
        train, holdout = _holdout_split(S, HOLDOUT_FRACTION, cfg.seed)
        if holdout.size == 0:
            holdout = None
    if cfg.split_mode == "fresh":
        parts = split_samples(train, 2 * T + 1, seed=cfg.seed)
        if any(p.size == 0 for p in parts):
            raise DegenerateInputError(
                "fresh split produced an empty subset; lower T or supply more samples"
            )
        init_set = parts[0]
    else:
        parts = None
        init_set = train

    init = initialize(
        init_set,
        stats,
        cfg.rank,
        init_svd_iters=cfg.init_svd_iters,
        seed=cfg.seed,
        trim_scores=trim_scores,
    )
    u_hat = init.u0
    v_hat = np.zeros((S.d, cfg.rank))
    u_raw = np.zeros((S.n, cfg.rank))
    worse_rounds = 0
    best_holdout = np.inf
    for t in range(T):
        sv = parts[2 * t + 1] if parts is not None else train
        su = parts[2 * t + 2] if parts is not None else train
        v_raw, _ = als_half_step(u_hat, sv, UPDATE_V, eig_floor=cfg.ls_eig_floor)
        if objective_trace is not None:
            objective_trace.append(objective(train, Factorization(u_hat, v_raw)))
        v_hat = orthonormal_columns(v_raw)
        u_raw, _ = als_half_step(v_hat, su, UPDATE_U, eig_floor=cfg.ls_eig_floor)
        if objective_trace is not None:
            objective_trace.append(objective(train, Factorization(u_raw, v_hat)))
        u_hat = orthonormal_columns(u_raw)
        if holdout is not None:
            err = objective(holdout, Factorization(u_raw, v_hat))
            if err > best_holdout:
                worse_rounds += 1
                if worse_rounds >= 2:
                    break
            else:
                worse_rounds = 0
                best_holdout = err
    return Factorization(u_raw, v_hat)
