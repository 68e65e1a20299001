"""Weighted alternating minimization over a sampled matrix.

The solver minimizes  sum_{(i,j) in Omega} w_ij (M_ij - (U V^T)_ij)^2  by
block coordinate descent: initialize U from a top-r SVD of the reweighted
sampled matrix (with heavy rows trimmed), whose subspace iteration stops once
its basis stops moving (``linalg.SVD_STEP_TOL``) because the alternating
rounds contract what error is left, then alternate weighted least-squares
updates of V and U until a round leaves U in place by the same rule.
Updated factors are QR-orthonormalized between half steps for numerical
stability; the fixed points are unchanged because the dropped triangular
scale is re-fit by the next solve.

With orthonormalized factors and reciprocal-probability weights, each row or
column normal matrix concentrates near the identity once the row/column has
enough samples.  Rows and columns that are barely observed instead produce
near-singular systems whose inversion amplifies noise without bound, so the
solver drops eigendirections below an absolute information floor
(``LS_EIG_FLOOR``), ``als_half_step``'s default.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, ParameterError
from .linalg import (
    Factorization,
    Grouping,
    orthonormal_columns,
    pseudo_solve_spd_batch,
    qr_orthonormalize,
    subspace_iteration,
    topk_svd,
)
from .sampling import SampleSet

# Rows of the initial factor with norm >= TRIM_FACTOR * |M^i| / |M|_F are
# zeroed before orthonormalization so heavy rows cannot dominate the basis.
TRIM_FACTOR = 4.0

# Absolute eigenvalue floor of every least-squares solve whose fixed factor is
# orthonormal; distpca's CP scales it to a left factor that is not.
LS_EIG_FLOOR = 0.07


def initialize(
    S0: SampleSet,
    trim_scores: np.ndarray,
    r: int,
    seed: int = 0,
) -> np.ndarray:
    """Top-r left factor of the reweighted sampled matrix, trimmed then QR'd.

    The factor is ``linalg.topk_svd``'s, with its convergence stop and cap.
    Row i of the factor is zeroed when its norm reaches TRIM_FACTOR *
    ``trim_scores[i]``; the plans supply the scores
    (``SamplingPlan.row_trim_scores()``, ``ProductSamplingPlan.trim_scores``).
    """
    if S0.size == 0:
        raise DegenerateInputError("initialization requires a nonempty sample set")
    u0, _ = topk_svd(S0.weighted_csr(), r, seed=seed)
    row_norms = np.linalg.norm(u0, axis=1)
    trimmed = np.flatnonzero(row_norms >= TRIM_FACTOR * trim_scores)
    u0[trimmed] = 0.0
    if not np.any(u0):
        raise DegenerateInputError("trimming removed every row of the initial factor")
    return qr_orthonormalize(u0)


def als_half_step(fixed: np.ndarray, layout: Grouping, eig_floor: float = LS_EIG_FLOOR) -> np.ndarray:
    """One weighted least-squares half step over one layout of the samples.

    Every group of ``layout`` (a column of ``S.by_col()`` with the left factor
    fixed, a row of ``S.by_row()`` with the right one fixed) solves its r x r
    normal system over its samples.  Returns the new factor; a group with no
    samples, as every group of an empty set, gets a zero row.  ``eig_floor``
    drops under-informed directions of the normal matrices (see
    pseudo_solve_spd_batch); at 0 the solves are exact.
    """
    return pseudo_solve_spd_batch(*layout.normal_equations(fixed), eig_floor=eig_floor)


def waltmin(
    S: SampleSet,
    trim_scores: np.ndarray,
    rank: int,
    iterations: int,
    seed: int = 0,
) -> Factorization:
    """Run initialization plus at most ``iterations`` alternating rounds.

    Every stage runs on the full sample set.  ``seed`` keys the initial SVD.
    A round is one V half step and one U half step; the rounds run through
    ``linalg.subspace_iteration`` on the orthonormalized U, so they stop once
    a round moves it by at most ``SVD_STEP_TOL``, and ``iterations`` is the
    cap.  Returns the factor pair whose product is the final iterate: the
    last U is the exact least-squares response to the (orthonormalized) last V.
    """
    if rank < 1:
        raise ParameterError("rank must be at least 1")
    if iterations < 1:
        raise ParameterError("iteration count must be at least 1")
    u_raw = v_hat = None

    def alternate(u_hat):
        nonlocal u_raw, v_hat
        v_hat = orthonormal_columns(als_half_step(u_hat, S.by_col()))
        u_raw = als_half_step(v_hat, S.by_row())
        return orthonormal_columns(u_raw)

    subspace_iteration(alternate, initialize(S, trim_scores, rank, seed=seed), rank, iterations)
    return Factorization(u_raw, v_hat)
