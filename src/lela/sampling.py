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
touched row builds its length-d within-row law, so on dense input it also
costs O(n d), and it measures slower than the Bernoulli sampler.  The
intensity that sets a kept cell's weight is evaluated at the kept columns
only.

Every sampler reads the matrix (or the product factors) from its plan.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import rng
from .errors import DegenerateInputError, ParameterError
from .linalg import DenseMatrix, Grouping, LinearOperator, MatrixStats, compute_stats


class SampleSet:
    """Observed entries (i, j, value, weight).

    Entries are kept sorted by (row, col); duplicates are rejected.  Weights
    are the reciprocal inclusion probabilities and must be positive.  The
    by-row and by-column layouts of the half steps are built on first use and
    kept; the reweighted sampled matrix and its transpose are their matrices.
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
            same_row = rows[:-1] == rows[1:]
            # Strictly increasing (row, col) keys, as every sampler emits
            # them, are sorted and free of duplicates already.
            if not np.all((rows[:-1] < rows[1:]) | (same_row & (cols[:-1] < cols[1:]))):
                order = np.lexsort((cols, rows))
                rows, cols, vals, weights = rows[order], cols[order], vals[order], weights[order]
                same_row = rows[:-1] == rows[1:]
                if np.any(same_row & (cols[:-1] == cols[1:])):
                    raise ParameterError("duplicate (i, j) entries are not allowed")
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self.weights = weights
        self._by_row = None
        self._by_col = None

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

    def by_row(self) -> Grouping:
        """The entries grouped by row: the layout of the row half step."""
        if self._by_row is None:
            self._by_row = Grouping(self.rows, self.cols, self.weights, self.vals, self.n, self.d)
        return self._by_row

    def by_col(self) -> Grouping:
        """The entries grouped by column: the layout of the column half step."""
        if self._by_col is None:
            self._by_col = Grouping(self.cols, self.rows, self.weights, self.vals, self.d, self.n)
        return self._by_col

    def weighted_csr(self) -> scipy.sparse.csr_matrix:
        """Sparse matrix of weight * value at the sampled cells, 0 elsewhere."""
        rows = self.by_row()
        return rows.matrix(rows.wy)

    def weighted_operator(self) -> LinearOperator:
        """Operator view of the reweighted sampled matrix."""
        csr = self.weighted_csr()
        cols = self.by_col()
        csc = cols.matrix(cols.wy)
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

    def intensity(self, i: int, cols) -> np.ndarray:
        """Unclipped q(i, j) at the columns ``cols`` (an index array or slice) of row i."""
        s = self.stats
        norm_term = (s.row_sq_norms[i] + s.col_sq_norms[cols]) / (
            2.0 * (self.n + self.d) * s.fro_sq
        )
        l1_term = np.abs(self.matrix.data[i, cols]) / (2.0 * s.l11)
        return self.m * (norm_term + l1_term)

    def inclusion_probabilities_row(self, i: int) -> np.ndarray:
        return np.minimum(self.intensity(i, slice(None)), 1.0)

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


def draw_multinomial(plan: SamplingPlan, seed: int = 0) -> SampleSet:
    """m total draws from ``plan.matrix`` via row marginal then within-row columns.

    Draws collapse to one stored entry per distinct cell; the stored weight is
    the reciprocal of the Bernoulli inclusion probability, not a
    collision-corrected one, evaluated at the kept columns only.  Each touched
    row builds its length-d within-row law, so the cost is O(d) per touched
    row, O(n d) on dense input, and the sampler is slower than
    ``draw_bernoulli``.  Row i draws its columns from the stream
    (seed, TAG_ROW_DRAWS, i).
    """
    M = plan.matrix
    n, d = plan.n, plan.d
    counts = rng.stream(seed, rng.TAG_ROW_COUNTS).multinomial(plan.m, plan.row_marginal)
    rows_acc, cols_acc, vals_acc, wts_acc = [], [], [], []
    for i in np.flatnonzero(counts):
        row = M.row(i)
        weights_in_row = plan.within_row_base + 0.5 * np.abs(row) / plan.stats.l11
        weights_in_row = weights_in_row / weights_in_row.sum()
        draws = rng.stream(seed, rng.TAG_ROW_DRAWS, i).choice(
            d, size=int(counts[i]), replace=True, p=weights_in_row
        )
        js = np.unique(draws)
        p = np.minimum(plan.intensity(i, js), 1.0)
        rows_acc.append(np.full(js.size, i, dtype=np.int64))
        cols_acc.append(js)
        vals_acc.append(row[js])
        wts_acc.append(1.0 / p)
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
    row_sq_norms_a: np.ndarray
    col_sq_norms_b: np.ndarray
    fro_sq_a: float
    fro_sq_b: float
    a: DenseMatrix
    b: DenseMatrix

    def inclusion_probabilities_row(self, i: int) -> np.ndarray:
        q = self.m * (
            self.row_sq_norms_a[i] / (self.n2 * self.fro_sq_a)
            + self.col_sq_norms_b / (self.n1 * self.fro_sq_b)
        )
        return np.minimum(q, 1.0)

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
