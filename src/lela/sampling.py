"""Element-sampling distributions and the samplers that draw from them.

Every path samples one law, ``ElementLaw``: a cell's intensity grows with its
row's and its column's squared norm and, for a single matrix, with its own
magnitude.  The class docstring tabulates the coefficients of the single
matrix, the product A @ B and the distributed run.

The exact Bernoulli sampler visits every cell (O(n d), reference behavior).
The multinomial sampler draws m entries by first drawing per-row counts from
the row marginal and then drawing columns within each touched row, with
replacement and duplicates collapsed.  Both run over blocks of at most
``BLOCK_CELLS`` cells: only each row's random stream is read row by row, from
``rng.row_streams`` (all keys hashed up front, one generator reset per row);
laws, CDFs, searches, masks, values and weights are computed for the block at
once, with the same bits as a row-at-a-time loop.  On dense input both sweep
the n d cells: the multinomial sampler builds the within-row CDF of every
touched row and searches it once per draw.  On a dense 2000 x 2000 instance
with m = 40,000 (one BLAS thread, 2-vCPU Xeon VM, best of 5, two runs) the
multinomial draw takes 0.055-0.056 s and the Bernoulli draw 0.062-0.063 s;
the 2,000 row streams are 0.005 s of either.  Both read M's rows, contiguous
in its row-major layout.  The intensity that sets a kept cell's weight is
evaluated at the kept cells only.

Every sampler reads the matrix (or the product factors) from its plan.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import rng
from .errors import DegenerateInputError, ParameterError
from .linalg import DenseMatrix, Grouping, physical_memory

# Cells per block of every row-blocked reader of M: the stats pass, the samplers
# and driver.streaming_fro_error (a block holds one row at least).
# 2^18 raised the benchmark's distpca-s4 peak RSS from 159.9 to 161.4 MB.
BLOCK_CELLS = 1 << 16

# A product-fill block takes one GEMM when at least 1/16 of its cells are kept,
# so the fill does at most 16 times the kept cells' dot products.  A 65 x 1000
# block breaks even at 6-7% kept for inner dimension 500 and 2000, and below 1%
# for 50 (one BLAS thread, 2-vCPU Xeon VM): at 1/16 the GEMM is within 8% of
# the per-row gathers, and from 7% on it is faster.
GEMM_FILL_RATIO = 16


def row_blocks(count: int, d: int):
    """[start, stop) ranges over ``count`` rows of d cells, one block each."""
    step = max(1, BLOCK_CELLS // d)
    for start in range(0, count, step):
        yield start, min(start + step, count)


@dataclass(frozen=True)
class MatrixStats:
    """Row/column norms and global norms gathered in one pass."""

    row_sq_norms: np.ndarray
    col_sq_norms: np.ndarray
    row_l1: np.ndarray
    fro_sq: float
    l11: float


def compute_stats(M: DenseMatrix) -> MatrixStats:
    """Gather row/column squared norms, row L1 norms, and global norms.

    One audited pass over M by the samplers' row blocks: each block writes
    its rows' sums, bit for bit those of a whole-array pass (``np.vecdot``
    and ``sum`` reduce each row alone, where ``np.einsum`` splits long rows
    by its buffer), and adds its column sums to the running totals, so no
    n x d temporary is formed.
    """
    a = M.data
    n, d = a.shape
    row_sq, row_l1, col_sq = np.empty(n), np.empty(n), np.zeros(d)
    # the sums flag an overflow, which ElementLaw refuses from the totals' infinity
    with np.errstate(over="ignore"):
        for start, stop in row_blocks(n, d):
            block = a[start:stop]
            np.vecdot(block, block, out=row_sq[start:stop])
            col_sq += np.einsum("ij,ij->j", block, block)
            np.abs(block).sum(axis=1, out=row_l1[start:stop])
        fro_sq, l11 = float(row_sq.sum()), float(row_l1.sum())
    M.note_pass()
    return MatrixStats(row_sq, col_sq, row_l1, fro_sq, l11)


class SampleSet:
    """Observed entries of an n x d matrix, held by row as CSR arrays.

    Row i's entries sit at indptr[i]:indptr[i + 1] in ``cols``, ``vals`` and
    ``weights``, their columns strictly rising, so no entry repeats.  Weights
    are the reciprocal inclusion probabilities and must be positive.  The one
    layout, by row, wraps the held arrays, ``indptr`` and ``cols`` cast once
    to scipy's index dtype; it is built on first use and kept, as are the
    observed columns.  The by-column layout is its transpose, and the
    reweighted sampled matrix its E(w y).
    """

    def __init__(self, n, d, indptr, cols, vals, weights):
        self.n, self.d = int(n), int(d)
        indptr, cols = np.asarray(indptr), np.asarray(cols)
        vals, weights = np.asarray(vals, dtype=np.float64), np.asarray(weights, dtype=np.float64)
        if not (cols.shape == vals.shape == weights.shape == (cols.size,)):
            raise ParameterError("entry arrays must have identical lengths")
        if (indptr.shape != (self.n + 1,) or indptr[0] != 0 or indptr[-1] != cols.size
                or np.any(np.diff(indptr) < 0)):
            raise ParameterError("row pointer must rise from 0 to the entry count in n + 1 steps")
        if np.any(cols < 0) or np.any(cols >= self.d):
            raise ParameterError("column index out of range")
        if np.any(weights <= 0):
            raise ParameterError("weights must be strictly positive")
        # all in range, so the casts wrap nothing; products and transposes keep this dtype
        idx = scipy.sparse.get_index_dtype(maxval=max(self.n, self.d, cols.size))
        self.indptr, self.cols = indptr.astype(idx, copy=False), cols.astype(idx, copy=False)
        # a column that does not rise must start a row
        starts = np.flatnonzero(self.cols[1:] <= self.cols[:-1]) + 1
        if np.any(self.indptr[self.indptr.searchsorted(starts)] != starts):
            raise ParameterError("columns must rise strictly within each row")
        self.vals, self.weights = vals, weights
        self._by_row = None
        self._observed_cols = None

    @property
    def size(self) -> int:
        return int(self.cols.size)

    def observed_cols(self) -> np.ndarray:
        """The sorted distinct columns of the entries, found on first use and kept."""
        if self._observed_cols is None:
            self._observed_cols = np.flatnonzero(np.bincount(self.cols, minlength=self.d))
        return self._observed_cols

    def by_row(self) -> Grouping:
        """The entries grouped by row: the one layout, over the held arrays, built on first use."""
        if self._by_row is None:
            csr = self.cols, self.indptr
            shape = (self.n, self.d)
            self._by_row = Grouping(
                scipy.sparse.csr_matrix((self.weights, *csr), shape=shape),
                scipy.sparse.csr_matrix((self.weights * self.vals, *csr), shape=shape),
            )
        return self._by_row

    def by_col(self) -> Grouping:
        """The entries grouped by column: CSC views of the by-row layout's transposes."""
        by_row = self.by_row()
        return Grouping(by_row.w.T, by_row.wy.T)

    def weighted_csr(self) -> scipy.sparse.csr_matrix:
        """Weight * value at the sampled cells, 0 elsewhere: the by-row layout's E(w y)."""
        return self.by_row().wy


@dataclass(frozen=True)
class ElementLaw:
    """The element law q_ij = m ((a_i + b_j) / s + |v_ij| / t), clipped to 1.

    a is ``row_terms``, b ``col_terms``, s ``norm_scale``, v ``values`` and
    t ``l1_scale``.  The three sampling paths differ only in these:

    =======  ===================  ===================  ===============  ===  =========
    path     a_i                  b_j                  s                v    t
    =======  ===================  ===================  ===============  ===  =========
    M        |M^i|^2              |M_j|^2              2 (n+d) |M|_F^2  M    2 |M|_1,1
    A @ B    |A^i|^2/(n2|A|_F^2)  |B_j|^2/(n1|B|_F^2)  1                --   --
    distpca  |M^i|^2              |M_j|^2              2 n |M|_F^2      M    |M|_1,1
    =======  ===================  ===================  ===============  ===  =========

    M is n x d and A @ B is n1 x n2.  The intensities sum to m for M, to 2m
    for A @ B and to m (3n + d) / (2n) for distpca, 2m at n = d: distpca puts
    n in place of n + d and drops the 1/2 on the L1 term.  Each distpca
    server builds its own law over its rows of M (a and v) from the
    exchanged column norms, |M|_F^2 and |M|_1,1.

    A scale that is not positive (an all-zero M) or an infinite s is refused;
    |M|_1,1^2 <= n d |M|_F^2 keeps t finite when s is.  A @ B's plan checks its own.
    """

    m: int
    row_terms: np.ndarray
    col_terms: np.ndarray
    norm_scale: float
    values: np.ndarray | None = None
    l1_scale: float | None = None

    def __post_init__(self):
        if self.norm_scale <= 0.0 or (self.l1_scale is not None and self.l1_scale <= 0.0):
            raise DegenerateInputError("all-zero matrix has no sampling distribution")
        if not np.isfinite(self.norm_scale):
            raise DegenerateInputError("squared Frobenius norm overflows the sampling law")

    def _clipped(self, row_terms, col_terms, vals) -> np.ndarray:
        """min(q, 1), broadcast, in place in a C-ordered result, rounded as written out."""
        q = np.add(row_terms, col_terms)
        q /= self.norm_scale
        if vals is not None:
            l1 = np.abs(vals)
            l1 /= self.l1_scale
            q += l1
        q *= self.m
        return np.minimum(q, 1.0, out=q)

    def block(self, start: int, stop: int) -> np.ndarray:
        """min(q, 1) over rows start..stop-1, a C-contiguous (stop - start, d) block."""
        vals = None if self.values is None else self.values[start:stop]
        return self._clipped(self.row_terms[start:stop, None], self.col_terms, vals)

    def cells(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """min(q, 1) at the cells (rows[k], cols[k])."""
        vals = None if self.values is None else self.values[rows, cols]
        return self._clipped(self.row_terms[rows], self.col_terms[cols], vals)


@dataclass(frozen=True)
class SamplingPlan:
    """Element-sampling plan for one matrix: its law, its stats and the matrix."""

    law: ElementLaw
    stats: MatrixStats
    matrix: DenseMatrix

    def row_trim_scores(self) -> np.ndarray:
        """Row scores |M^i| / |M|_F used to trim the initial left factor."""
        return np.sqrt(self.stats.row_sq_norms / self.stats.fro_sq)


def build_plan(M: DenseMatrix, m: int) -> SamplingPlan:
    """Build the element-sampling plan: one stats pass."""
    if m < 1:
        raise ParameterError("sample budget m must be at least 1")
    stats = compute_stats(M)
    law = ElementLaw(
        int(m), stats.row_sq_norms, stats.col_sq_norms, 2.0 * sum(M.shape) * stats.fro_sq,
        M.data, 2.0 * stats.l11,
    )
    return SamplingPlan(law, stats, M)


def draw_bernoulli_rows(law: ElementLaw, row_ids, value_cells, seed, tag) -> SampleSet:
    """The Bernoulli kernel every exact sampler shares, over blocks of rows.

    Row ``row_ids[k]`` draws d uniforms from the stream (seed, tag, row_ids[k])
    and keeps column j when u_j < p_j, storing weight 1 / p_j; the outcome
    depends on the row id only, never on the position k, the block or who
    draws it.  Row k of ``law`` gives row row_ids[k]'s inclusion
    probabilities, and ``value_cells(ks, js)`` the values of the kept cells
    (row_ids[ks], js), ks ascending.  Only the streams are read row by row.
    The result has len(row_ids) rows, row k holding row row_ids[k]'s cells,
    counted per block into the row pointer.  Cells and weights never depend
    on the block; the product fill's values may, at the rounding level.
    """
    n, d = len(row_ids), law.col_terms.size
    streams = rng.row_streams(seed, tag, row_ids)
    counts, cols, vals, weights = [], [], [], []
    for a, b in row_blocks(n, d):
        P = law.block(a, b)
        U = np.empty((b - a, d))
        for u, g in zip(U, streams):  # U first: zip stops before the next row's stream
            g.random(out=u)
        kept = U < P
        counts.append(np.count_nonzero(kept, axis=1))
        ks, js = np.nonzero(kept)
        weights.append(1.0 / P[ks, js])
        ks += a
        cols.append(js)
        vals.append(value_cells(ks, js))
    cols = np.concatenate(cols)  # one field at a time: rebinding its name drops its parts
    vals = np.concatenate(vals)
    weights = np.concatenate(weights)
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    return SampleSet(n, d, indptr, cols, vals, weights)


def draw_bernoulli(plan: SamplingPlan, seed: int = 0) -> SampleSet:
    """Reference sampler: include each cell independently with its probability.

    Visits every cell of ``plan.matrix`` (one audited pass); cells with
    saturated probability 1 are included deterministically.  Row i draws from
    the stream (seed, TAG_BERNOULLI, i), so the outcome is independent of row
    ordering.
    """
    M = plan.matrix
    S = draw_bernoulli_rows(
        plan.law, np.arange(M.n_rows), lambda ks, js: M.data[ks, js], seed, rng.TAG_BERNOULLI
    )
    M.note_pass()
    return S


def _search_rows(cdf: np.ndarray, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``cdf[t[k]].searchsorted(u[k], side="right")`` for every k, as one search.

    Complex numbers order lexicographically, so the pairs (t, cdf[t, j]) of
    the flattened block are sorted, and the pair (t[k], u[k]) lands as many
    places past row t[k]'s start as that row has entries <= u[k].  No value
    is rounded.
    """
    b, d = cdf.shape
    keys = np.empty((b, d), dtype=complex)
    keys.real = np.arange(b)[:, None]
    keys.imag = cdf
    draws = np.empty(u.size, dtype=complex)
    draws.real = t
    draws.imag = u
    return keys.ravel().searchsorted(draws, side="right") - t * d


def draw_multinomial(plan: SamplingPlan, seed: int = 0) -> SampleSet:
    """m total draws from ``plan.matrix`` via row marginal then within-row columns.

    Draws collapse to one stored entry per distinct cell; the stored weight is
    the reciprocal of the Bernoulli inclusion probability, not a
    collision-corrected one, evaluated at the kept cells only.  Row i draws
    its columns from the stream (seed, TAG_ROW_DRAWS, i), with the arithmetic
    of ``Generator.choice(d, size=count, p=law)``: the law's CDF, renormalized
    to end at 1, searched for each uniform.  Blocks of touched rows build
    their laws and CDFs together, O(d) work per touched row, so O(n d) on
    dense input, plus a binary search per draw.
    """
    M, stats, m = plan.matrix, plan.stats, plan.law.m
    if 8 * m > physical_memory():  # checked before the m draws are allocated
        raise ParameterError(f"budget m = {m} draws cannot be held in memory")
    n, d = M.shape
    # the row law, and the column-norm part of the within-row law
    row_marginal = 0.5 * (
        d * stats.row_sq_norms / ((n + d) * stats.fro_sq) + 1.0 / (n + d)
    ) + 0.5 * stats.row_l1 / stats.l11
    within_row_base = 0.5 * stats.col_sq_norms / stats.fro_sq
    counts = rng.stream(seed, rng.TAG_ROW_COUNTS).multinomial(m, row_marginal)
    touched = np.flatnonzero(counts)
    streams = rng.row_streams(seed, rng.TAG_ROW_DRAWS, touched)
    cells = []
    for a, b in row_blocks(touched.size, d):
        rows = touched[a:b]
        law = M.data[rows]  # a C-ordered copy, so its row sums are the 1-D sums
        # in place, rounded as within_row_base + 0.5 * |M^i| / l11
        np.abs(law, out=law)
        law *= 0.5
        law /= stats.l11
        law += within_row_base
        law /= law.sum(axis=1, keepdims=True)
        cdf = np.cumsum(law, axis=1)
        cdf /= cdf[:, -1:].copy()
        u = np.concatenate([g.random(c) for c, g in zip(counts[rows].tolist(), streams)])
        t = np.repeat(np.arange(b - a), counts[rows])
        cells.append(rows[t] * d + _search_rows(cdf, t, u))
    cells = np.sort(np.concatenate(cells))  # np.unique's hash path is slower
    cells = cells[np.concatenate(([True], cells[1:] != cells[:-1]))]
    rows, cols = np.divmod(cells, d)
    indptr = cells.searchsorted(np.arange(n + 1) * d)  # the cells are sorted: rows start in order
    M.note_pass()
    return SampleSet(n, d, indptr, cols, M.data[rows, cols], 1.0 / plan.law.cells(rows, cols))


@dataclass(frozen=True)
class ProductSamplingPlan:
    """Sampling plan for entries of A @ B without forming the product.

    ``trim_scores`` are the surrogate row scores |A^i| / |A|_F that trim the
    left factor.
    """

    law: ElementLaw
    trim_scores: np.ndarray
    a: DenseMatrix
    b: DenseMatrix


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
    if not np.isfinite(fro_a * fro_b):  # a bound on |A B|_F^2
        raise DegenerateInputError("|A|_F^2 |B|_F^2, the bound on |A B|_F^2, overflows")
    law = ElementLaw(int(m), row_sq_a / (B.n_cols * fro_a), col_sq_b / (A.n_rows * fro_b), 1.0)
    return ProductSamplingPlan(law, np.sqrt(row_sq_a / fro_a), A, B)


def materialize_product_samples(plan: ProductSamplingPlan, seed: int = 0) -> SampleSet:
    """Draw cells of ``plan.a @ plan.b`` Bernoulli-style, filled with their dot products.

    A block whose kept cells are at least 1/``GEMM_FILL_RATIO`` of the cells
    of its kept rows' span (at most ``BLOCK_CELLS``, or one row) takes that
    span of the product with one GEMM and reads it at the kept cells; a
    sparser block gathers each kept row's columns of B and takes one GEMV.
    The two sum in different orders, so a value may differ with its block at
    the rounding level; the cells and weights do not.
    """
    a, b = plan.a.data, plan.b.data
    bt = None  # B's columns as contiguous rows, built for the first sparse block

    def dot_products(ks, js):
        nonlocal bt
        if not ks.size:
            return np.empty(0)
        lo, hi = ks[0], ks[-1] + 1
        if GEMM_FILL_RATIO * ks.size >= (hi - lo) * b.shape[1]:
            return (a[lo:hi] @ b)[ks - lo, js]
        if bt is None:
            bt = np.ascontiguousarray(b.T)
        vals = np.empty(js.size)
        starts = np.flatnonzero(np.diff(ks, prepend=-1)).tolist()
        for s, e in zip(starts, starts[1:] + [ks.size]):
            vals[s:e] = bt[js[s:e]] @ a[ks[s]]
        return vals

    return draw_bernoulli_rows(plan.law, np.arange(a.shape[0]), dot_products, seed, rng.TAG_PRODUCT)
