"""Top-level pipeline: stats pass, sampling pass, alternating minimization.

The driver enforces the two-pass discipline over the input matrix (one pass
for statistics, one for drawing and filling the samples) and returns the
factors without scoring them.  ``evaluate`` is the separate, opt-in step that
computes their errors, optionally against the dense-SVD oracle when the
problem is small enough to afford one; its spectral error is the top singular
value of the residual, read by the same subspace iteration as the init SVD,
and its Frobenius error reads M by the samplers' row blocks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ParameterError
from .linalg import DenseMatrix, Factorization, spectral_error
from .sampling import build_plan, draw_bernoulli, draw_multinomial, row_blocks
from .waltmin import waltmin

# Dense SVD oracle metrics are refused above this size; keeping the main path
# at input-sparsity cost is the whole point of the pipeline.
ORACLE_SIZE_GUARD = 2000


@dataclass(frozen=True)
class LelaReport:
    """Result bundle for one pipeline run."""

    factorization: Factorization
    sample_count: int
    passes_over_M: int


def streaming_fro_error(M: DenseMatrix, F: Factorization) -> float:
    """Frobenius error |M - u v^T|_F accumulated over the samplers' row blocks.

    The factored matrix is only ever materialized one block of
    ``sampling.row_blocks`` at a time, which bounds the temporary and keeps
    accuracy when the error is tiny (no cancellation of large norms).
    """
    if F.shape != M.shape:
        raise ParameterError("factorization shape does not match the matrix")
    a = M.data
    total = 0.0
    for start, stop in row_blocks(*M.shape):
        diff = a[start:stop] - F.u[start:stop] @ F.v.T
        total += float(np.einsum("ij,ij->", diff, diff))
    return math.sqrt(total)


def require_oracle_size(shape: tuple[int, int]) -> None:
    """Refuse the dense-SVD oracle for a matrix of this shape above the size guard."""
    if min(shape) > ORACLE_SIZE_GUARD:
        raise ParameterError(
            f"oracle metrics refused: min(n, d) > {ORACLE_SIZE_GUARD} makes the dense SVD too costly"
        )


def oracle_gaps(M: DenseMatrix, r: int) -> tuple[float, float]:
    """Exact (spectral, Frobenius) distances from M to its best rank-r part.

    Costs a dense SVD and is therefore refused above the size guard.
    """
    require_oracle_size(M.shape)
    sigma = np.linalg.svd(M.data, compute_uv=False)
    tail = sigma[r:]
    spectral = float(tail[0]) if tail.size else 0.0
    fro = float(np.sqrt(np.sum(tail * tail)))
    return spectral, fro


@dataclass(frozen=True)
class ErrorBundle:
    spectral_err: float
    fro_err: float
    oracle_spectral: float | None
    oracle_fro: float | None


def evaluate(
    M: DenseMatrix,
    F: Factorization,
    seed: int = 0,
    want_oracle: bool = True,
) -> ErrorBundle:
    """Spectral and Frobenius errors of F against M, plus oracle gaps on request.

    The spectral error is ``spectral_error(M, F, seed)``: pass the seed of the
    run that produced F.  The oracle gaps are taken at F's rank.
    """
    osp = ofro = None
    if want_oracle:
        # first, so that the size guard refuses before the residual is scored
        osp, ofro = oracle_gaps(M, F.rank)
    sp = spectral_error(M, F, seed=seed)
    fro = streaming_fro_error(M, F)
    return ErrorBundle(sp, fro, osp, ofro)


def lela(
    M: DenseMatrix,
    r: int,
    m: int,
    iterations: int,
    mode: str = "multinomial",
    seed: int = 0,
) -> LelaReport:
    """Run the full sampled low-rank approximation pipeline on M.

    ``mode`` selects the multinomial sampler (default) or the exact Bernoulli
    reference.  Both cost O(n d) on dense input: the multinomial sampler draws
    only m entries but builds the within-row CDF of every row it touches (see
    ``lela.sampling`` for measured costs).  The solver reuses the whole sample
    set in every half step.  The factors are not scored here: call
    ``evaluate(M, report.factorization, seed=seed)`` for their errors.
    """
    if r < 1 or r > min(M.shape):
        raise ParameterError("rank must lie in [1, min(n, d)]")
    if iterations < 1:
        raise ParameterError("iteration count must be at least 1")
    if mode not in ("multinomial", "bernoulli"):
        raise ParameterError("mode must be 'multinomial' or 'bernoulli'")
    passes_before = M.pass_count
    plan = build_plan(M, m)  # pass 1 (statistics)
    if mode == "bernoulli":
        samples = draw_bernoulli(plan, seed=rng.derive_seed(seed, rng.TAG_BERNOULLI))
    else:
        samples = draw_multinomial(plan, seed=rng.derive_seed(seed, rng.TAG_ROW_DRAWS))
    # pass 2 happened inside the draw (probabilities plus value fill)
    F = waltmin(
        samples, plan.row_trim_scores(), r, iterations,
        seed=rng.derive_seed(seed, rng.TAG_SOLVER),
    )
    return LelaReport(
        factorization=F,
        sample_count=samples.size,
        passes_over_M=M.pass_count - passes_before,
    )
