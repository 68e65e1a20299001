"""Element-sampling distributions and the samplers that draw from them.

Two laws are implemented.  For a single matrix M the per-entry intensity is

    q(i, j) = m * ( (|M^i|^2 + |M_j|^2) / (2 (n + d) |M|_F^2)
                    + |M_ij| / (2 |M|_{1,1}) )

clipped to the inclusion probability min(q, 1).  For a product A @ B the
intensity uses only row norms of A and column norms of B:

    q(i, j) = m * ( |A^i|^2 / (n2 |A|_F^2) + |B_j|^2 / (n1 |B|_F^2) ).

The exact Bernoulli sampler visits every cell (O(n d), reference behavior).
The multinomial sampler draws m entries by first drawing per-row counts from
the row marginal and then drawing columns within each touched row, with
replacement and duplicates collapsed.  It is not the faster of the two: every
touched row builds two length-d tables (the within-row law and the intensity
row), so on dense input it also costs O(n d), and it measures slower than the
Bernoulli sampler.

Every sampler reads the matrix (or the product factors) from its plan.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import rng
from .errors import DegenerateInputError, ParameterError
from .linalg import DenseMatrix, LinearOperator, MatrixStats, compute_stats


class OpCounter:
    """Debug accumulator for the sampler's work units."""

    __slots__ = ("ops",)

    def __init__(self):
        self.ops = 0

    def add(self, amount: int) -> None:
        self.ops += int(amount)


class SampleSet:
    """Observed entries (i, j, value, weight).

    Entries are kept sorted by (row, col); duplicates are rejected.  Weights
    are the reciprocal inclusion probabilities and must be positive.
    """

    def __init__(self, n, d, rows, cols, vals, weights):
        self.n = int(n)
        self.d = int(d)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape == weights.shape):
            raise ParameterError("entry arrays must have identical lengths")
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.n:
                raise ParameterError("row index out of range")
            if cols.min() < 0 or cols.max() >= self.d:
                raise ParameterError("column index out of range")
            if np.any(weights <= 0):
                raise ParameterError("weights must be strictly positive")
            order = np.lexsort((cols, rows))
            rows, cols, vals, weights = rows[order], cols[order], vals[order], weights[order]
            key = rows[:-1] == rows[1:]
            if np.any(key & (cols[:-1] == cols[1:])):
                raise ParameterError("duplicate (i, j) entries are not allowed")
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self.weights = weights
        self._csr = None

    @property
    def size(self) -> int:
        return int(self.rows.size)

    def observed_cols(self) -> np.ndarray:
        return np.unique(self.cols)

    def subset(self, positions: np.ndarray) -> "SampleSet":
        """New SampleSet holding the entries at the given positions."""
        return SampleSet(
            self.n,
            self.d,
            self.rows[positions],
            self.cols[positions],
            self.vals[positions],
            self.weights[positions],
        )

    def weighted_csr(self) -> scipy.sparse.csr_matrix:
        """Sparse matrix of weight * value at the sampled cells, 0 elsewhere."""
        if self._csr is None:
            self._csr = scipy.sparse.csr_matrix(
                (self.weights * self.vals, (self.rows, self.cols)),
                shape=(self.n, self.d),
            )
        return self._csr

    def weighted_operator(self) -> LinearOperator:
        """Operator view of the reweighted sampled matrix."""
        csr = self.weighted_csr()
        csc = csr.T.tocsr()
        return LinearOperator(self.n, self.d, lambda x: csr @ x, lambda y: csc @ y)


@dataclass(frozen=True)
class SamplingPlan:
    """Precomputed element-sampling law for one matrix.

    ``row_marginal`` is the multinomial row law; ``within_row_base`` the
    column-norm part of the within-row law (the per-row |M_ij| correction is
    applied lazily when a row is actually sampled).
    """

    m: int
    stats: MatrixStats
    n: int
    d: int
    matrix: DenseMatrix
    row_marginal: np.ndarray
    within_row_base: np.ndarray

    def intensity_row(self, i: int) -> np.ndarray:
        """Unclipped q(i, j) for all columns j of row i."""
        s = self.stats
        norm_term = (s.row_sq_norms[i] + s.col_sq_norms) / (
            2.0 * (self.n + self.d) * s.fro_sq
        )
        l1_term = np.abs(self.matrix.row(i)) / (2.0 * s.l11)
        return self.m * (norm_term + l1_term)

    def inclusion_probabilities_row(self, i: int) -> np.ndarray:
        return np.minimum(self.intensity_row(i), 1.0)

    def row_trim_scores(self) -> np.ndarray:
        """Row scores |M^i| / |M|_F used to trim the initial left factor."""
        return np.sqrt(self.stats.row_sq_norms / self.stats.fro_sq)


def build_plan(M: DenseMatrix, m: int) -> SamplingPlan:
    """Build the element-sampling plan; one stats pass plus O(n + d) setup."""
    if m < 1:
        raise ParameterError("sample budget m must be at least 1")
    stats = compute_stats(M)
    if stats.l11 <= 0.0 or stats.fro_sq <= 0.0:
        raise DegenerateInputError("all-zero matrix has no sampling distribution")
    n, d = M.shape
    row_marginal = 0.5 * (
        d * stats.row_sq_norms / ((n + d) * stats.fro_sq) + 1.0 / (n + d)
    ) + 0.5 * stats.row_l1 / stats.l11
    within_row_base = 0.5 * stats.col_sq_norms / stats.fro_sq
    return SamplingPlan(
        m=int(m),
        stats=stats,
        n=n,
        d=d,
        matrix=M,
        row_marginal=row_marginal,
        within_row_base=within_row_base,
    )


def draw_bernoulli_rows(n, d, row_ids, prob_row, value_row, seed, tag) -> SampleSet:
    """The per-row Bernoulli kernel every exact sampler shares.

    Row ``row_ids[k]`` draws d uniforms from the stream (seed, tag, row_ids[k])
    and keeps column j when u_j < p_j, storing weight 1 / p_j; the outcome
    depends on the row id only, never on the position k or on who draws it.
    ``prob_row(k)`` returns the row's inclusion probabilities and
    ``value_row(k, js)`` the values of its kept columns.
    """
    rows_acc, cols_acc, vals_acc, wts_acc = [], [], [], []
    for k, i in enumerate(row_ids):
        p = prob_row(k)
        u = rng.stream(seed, tag, int(i)).random(d)
        js = np.flatnonzero(u < p)
        if js.size:
            rows_acc.append(np.full(js.size, i, dtype=np.int64))
            cols_acc.append(js)
            vals_acc.append(value_row(k, js))
            wts_acc.append(1.0 / p[js])
    return _concat_samples(n, d, rows_acc, cols_acc, vals_acc, wts_acc)


def draw_bernoulli(plan: SamplingPlan, seed: int = 0) -> SampleSet:
    """Reference sampler: include each cell independently with its probability.

    Visits every cell of ``plan.matrix`` (one audited pass); cells with
    saturated probability 1 are included deterministically.  Row i draws from
    the stream (seed, TAG_BERNOULLI, i), so the outcome is independent of row
    ordering.
    """
    M = plan.matrix
    S = draw_bernoulli_rows(
        plan.n, plan.d, np.arange(plan.n), plan.inclusion_probabilities_row,
        lambda i, js: M.row(i)[js], seed, rng.TAG_BERNOULLI,
    )
    M.note_pass()
    return S


def draw_multinomial(
    plan: SamplingPlan,
    seed: int = 0,
    counter: OpCounter | None = None,
    draw_log: list | None = None,
) -> SampleSet:
    """m total draws from ``plan.matrix`` via row marginal then within-row columns.

    Draws collapse to one stored entry per distinct cell; the stored weight is
    the reciprocal of the Bernoulli inclusion probability, not a
    collision-corrected one.  Each touched row builds two length-d tables, so
    the cost is O(d) per touched row, O(n d) on dense input, and the sampler is
    slower than ``draw_bernoulli``.  ``counter`` (when given) accumulates work
    units and ``draw_log`` records every raw (i, j) draw before deduplication.
    """
    M = plan.matrix
    n, d = plan.n, plan.d
    log_d = max(1, int(np.ceil(np.log2(max(d, 2)))))
    counts = rng.stream(seed, rng.TAG_ROW_COUNTS).multinomial(plan.m, plan.row_marginal)
    if counter is not None:
        counter.add(n + plan.m)
    rows_acc, cols_acc, vals_acc, wts_acc = [], [], [], []
    for i in np.flatnonzero(counts):
        row = M.row(i)
        weights_in_row = plan.within_row_base + 0.5 * np.abs(row) / plan.stats.l11
        weights_in_row = weights_in_row / weights_in_row.sum()
        draws = rng.stream(seed, rng.TAG_ROW_DRAWS, i).choice(
            d, size=int(counts[i]), replace=True, p=weights_in_row
        )
        if draw_log is not None:
            draw_log.extend((int(i), int(j)) for j in draws)
        js = np.unique(draws)
        p = np.minimum(plan.intensity_row(i)[js], 1.0)
        rows_acc.append(np.full(js.size, i, dtype=np.int64))
        cols_acc.append(js)
        vals_acc.append(row[js])
        wts_acc.append(1.0 / p)
        if counter is not None:
            # two O(d) table builds (within-row law, intensity row) plus the
            # binary-search cost of the draws themselves
            counter.add(2 * d + int(counts[i]) * log_d)
    M.note_pass()
    return _concat_samples(n, d, rows_acc, cols_acc, vals_acc, wts_acc)


def _concat_samples(n, d, *blocks) -> SampleSet:
    """One SampleSet from per-row blocks of rows, cols, vals and weights."""
    if not blocks[0]:
        return SampleSet(n, d, [], [], [], [])
    return SampleSet(n, d, *(np.concatenate(b) for b in blocks))


@dataclass(frozen=True)
class ProductSamplingPlan:
    """Sampling law for entries of A @ B without forming the product."""

    m: int
    n1: int
    n2: int
    inner: int
    row_sq_norms_a: np.ndarray
    col_sq_norms_b: np.ndarray
    fro_sq_a: float
    fro_sq_b: float
    a: DenseMatrix
    b: DenseMatrix

    def intensity_row(self, i: int) -> np.ndarray:
        return self.m * (
            self.row_sq_norms_a[i] / (self.n2 * self.fro_sq_a)
            + self.col_sq_norms_b / (self.n1 * self.fro_sq_b)
        )

    def inclusion_probabilities_row(self, i: int) -> np.ndarray:
        return np.minimum(self.intensity_row(i), 1.0)

    def row_trim_scores(self) -> np.ndarray:
        """Surrogate row scores |A^i| / |A|_F used to trim the left factor."""
        return np.sqrt(self.row_sq_norms_a / self.fro_sq_a)


def build_product_plan(A: DenseMatrix, B: DenseMatrix, m: int) -> ProductSamplingPlan:
    """Plan for sampling entries of A @ B; one pass over each input."""
    if m < 1:
        raise ParameterError("sample budget m must be at least 1")
    if A.n_cols != B.n_rows:
        raise ParameterError(
            f"inner dimensions disagree: {A.shape} cannot multiply {B.shape}"
        )
    a, b = A.data, B.data
    row_sq_a = np.einsum("ij,ij->i", a, a)
    col_sq_b = np.einsum("ij,ij->j", b, b)
    A.note_pass()
    B.note_pass()
    fro_a = float(row_sq_a.sum())
    fro_b = float(col_sq_b.sum())
    if fro_a <= 0.0 or fro_b <= 0.0:
        raise DegenerateInputError("zero factor matrix has no sampling distribution")
    return ProductSamplingPlan(
        m=int(m),
        n1=A.n_rows,
        n2=B.n_cols,
        inner=A.n_cols,
        row_sq_norms_a=row_sq_a,
        col_sq_norms_b=col_sq_b,
        fro_sq_a=fro_a,
        fro_sq_b=fro_b,
        a=A,
        b=B,
    )


def materialize_product_samples(plan: ProductSamplingPlan, seed: int = 0) -> SampleSet:
    """Draw cells of ``plan.a @ plan.b`` Bernoulli-style, filled with exact dot products."""
    A, B = plan.a, plan.b
    return draw_bernoulli_rows(
        plan.n1, plan.n2, np.arange(plan.n1), plan.inclusion_probabilities_row,
        lambda i, js: A.row(i) @ B.data[:, js], seed, rng.TAG_PRODUCT,
    )


def saturating_sample_count(M: DenseMatrix) -> int:
    """Smallest m that saturates every cell's inclusion probability to 1."""
    stats = compute_stats(M)
    if stats.fro_sq <= 0.0:
        raise DegenerateInputError("all-zero matrix cannot saturate")
    n, d = M.shape
    min_pair = stats.row_sq_norms.min() + stats.col_sq_norms.min()
    if min_pair <= 0.0:
        raise DegenerateInputError("a zero row or column prevents saturation")
    return int(np.ceil(2.0 * (n + d) * stats.fro_sq / min_pair)) + 1
