"""Direct low-rank approximation of matrix products and covariances.

The direct method samples entries of A @ B (each sampled cell is one exact
length-d dot product), then runs weighted alternating minimization on those
samples; the product itself is never formed.  The stagewise baseline instead
approximates A and B separately and multiplies the factors, which fails when
the leading subspaces of A and B do not interact.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ParameterError
from .linalg import DenseMatrix, Factorization, LinearOperator, topk_svd
from .sampling import build_product_plan, materialize_product_samples
from .waltmin import waltmin


@dataclass(frozen=True)
class ProductTask:
    """Inputs for one direct product approximation."""

    a: DenseMatrix
    b: DenseMatrix
    rank: int
    m: int
    iterations: int
    seed: int = 0

    def __post_init__(self):
        if self.a.n_cols != self.b.n_rows:
            raise ParameterError(
                f"inner dimensions disagree: {self.a.shape} cannot multiply {self.b.shape}"
            )
        if self.rank < 1 or self.rank > min(self.a.n_rows, self.b.n_cols):
            raise ParameterError("rank must lie in [1, min(n1, n2)]")
        if self.m < 1:
            raise ParameterError("sample budget m must be at least 1")
        if self.iterations < 1:
            raise ParameterError("iteration count must be at least 1")


def lowrank_product(task: ProductTask) -> Factorization:
    """Rank-r approximation of task.a @ task.b from sampled product entries.

    Trimming scores for the left factor use the surrogate |A^i| / |A|_F since
    row norms of the product are unavailable without forming it.
    """
    plan = build_product_plan(task.a, task.b, task.m)
    samples = materialize_product_samples(
        plan, seed=rng.derive_seed(task.seed, rng.TAG_PRODUCT)
    )
    return waltmin(
        samples, plan.row_trim_scores(), task.rank, task.iterations,
        seed=rng.derive_seed(task.seed, rng.TAG_FACTOR_V),
    )


def lowrank_covariance(
    Y: DenseMatrix,
    r: int,
    m: int,
    iterations: int,
    seed: int = 0,
    symmetrize: bool = False,
) -> Factorization:
    """Rank-r approximation of Y @ Y.T via the direct product method.

    The two factors are updated independently, so the output is not exactly
    symmetric; ``symmetrize`` re-extracts the top-r part of the symmetrized
    operator (u v^T + v u^T) / 2 as a post-processing step.
    """
    Yt = DenseMatrix(Y.data.T)
    task = ProductTask(a=Y, b=Yt, rank=r, m=m, iterations=iterations, seed=seed)
    F = lowrank_product(task)
    if not symmetrize:
        return F
    n = Y.n_rows
    u, v = F.u, F.v

    def mv(x):
        return 0.5 * (u @ (v.T @ x) + v @ (u.T @ x))

    op = LinearOperator(n, n, mv, mv)
    dec = topk_svd(op, r, iters=50, seed=rng.derive_seed(seed, rng.TAG_SVD_INIT))
    return Factorization(dec.u_star * dec.sigma_star, dec.v_star)


def stagewise_product_baseline(
    A: DenseMatrix, B: DenseMatrix, r: int, m: int, iterations: int, seed: int = 0
) -> Factorization:
    """Approximate A and B separately at rank r (budget m each), then multiply.

    Returns the factored product, which has rank at most r; costs two full
    sampling plus solve pipelines and a small r x r contraction.
    """
    from .driver import lela  # local import: driver builds on this module

    if A.n_cols != B.n_rows:
        raise ParameterError(
            f"inner dimensions disagree: {A.shape} cannot multiply {B.shape}"
        )
    report_a = lela(A, r, m, iterations, seed=rng.derive_seed(seed, rng.TAG_FACTOR_U))
    report_b = lela(B, r, m, iterations, seed=rng.derive_seed(seed, rng.TAG_FACTOR_V))
    fa, fb = report_a.factorization, report_b.factorization
    left = fa.u @ (fa.v.T @ fb.u)
    return Factorization(left, fb.v)
