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
solver drops eigendirections below an absolute information floor
(``LS_EIG_FLOOR``); ``als_half_step`` on its own keeps the solves exact.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import DegenerateInputError, ParameterError
from .linalg import (
    Factorization,
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

# Subspace iterations of the initial top-r SVD.
INIT_SVD_ITERS = 100

# Absolute eigenvalue floor of the normal matrices in waltmin's half steps.
LS_EIG_FLOOR = 0.07

SPLIT_MODES = ("reuse", "fresh")


@dataclass(frozen=True)
class InitResult:
    """Initial orthonormal left factor with the trimming audit trail."""

    u0: np.ndarray
    trimmed_rows: np.ndarray


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


def initialize(
    S0: SampleSet,
    trim_scores: np.ndarray,
    r: int,
    init_svd_iters: int = INIT_SVD_ITERS,
    seed: int = 0,
) -> InitResult:
    """Top-r left factor of the reweighted sampled matrix, trimmed then QR'd.

    Row i of the factor is zeroed when its norm reaches TRIM_FACTOR *
    ``trim_scores[i]``; the plans supply the scores (``row_trim_scores()``).
    """
    if S0.size == 0:
        raise DegenerateInputError("initialization requires a nonempty sample set")
    dec = topk_svd(S0.weighted_operator(), r, iters=init_svd_iters, seed=seed)
    u0 = dec.u_star.copy()
    row_norms = np.linalg.norm(u0, axis=1)
    trimmed = np.flatnonzero(row_norms >= TRIM_FACTOR * trim_scores)
    u0[trimmed] = 0.0
    if not np.any(u0):
        raise DegenerateInputError("trimming removed every row of the initial factor")
    u0 = qr_orthonormalize(u0)
    return InitResult(u0=u0, trimmed_rows=trimmed)


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


def waltmin(
    S: SampleSet,
    trim_scores: np.ndarray,
    rank: int,
    iterations: int,
    split: str = "reuse",
    seed: int = 0,
    objective_trace: list | None = None,
) -> Factorization:
    """Run initialization plus ``iterations`` alternating rounds.

    ``split`` "fresh" partitions the samples into 2T+1 disjoint subsets (one
    for initialization, two per round); "reuse" runs every stage on the full
    sample set.  ``seed`` keys both the split and the initial SVD.  Returns the
    factor pair whose product is the final iterate: the last U is the exact
    least-squares response to the (orthonormalized) last V.  When
    ``objective_trace`` is a list, the training objective is appended after
    every half step.
    """
    if rank < 1:
        raise ParameterError("rank must be at least 1")
    if iterations < 1:
        raise ParameterError("iteration count must be at least 1")
    if split not in SPLIT_MODES:
        raise ParameterError("split must be 'reuse' or 'fresh'")
    T = iterations
    if split == "fresh":
        parts = split_samples(S, 2 * T + 1, seed=seed)
        if any(p.size == 0 for p in parts):
            raise DegenerateInputError(
                "fresh split produced an empty subset; lower T or supply more samples"
            )
        init_set = parts[0]
    else:
        parts = None
        init_set = S

    init = initialize(init_set, trim_scores, rank, seed=seed)
    u_hat = init.u0
    v_hat = np.zeros((S.d, rank))
    u_raw = np.zeros((S.n, rank))
    for t in range(T):
        sv = parts[2 * t + 1] if parts is not None else S
        su = parts[2 * t + 2] if parts is not None else S
        v_raw, _ = als_half_step(u_hat, sv, UPDATE_V, eig_floor=LS_EIG_FLOOR)
        if objective_trace is not None:
            objective_trace.append(objective(S, Factorization(u_hat, v_raw)))
        v_hat = orthonormal_columns(v_raw)
        u_raw, _ = als_half_step(v_hat, su, UPDATE_U, eig_floor=LS_EIG_FLOOR)
        if objective_trace is not None:
            objective_trace.append(objective(S, Factorization(u_raw, v_hat)))
        u_hat = orthonormal_columns(u_raw)
    return Factorization(u_raw, v_hat)
