"""Dense-matrix container and the small numerical kernels everything else uses.

``DenseMatrix`` holds M row-major, the layout in which every kernel reads it,
and ``Factorization`` is the one factor-pair type: solver outputs and
synthetic truths alike.  Covers the top-r left singular vectors and singular
values of a dense or sparse matrix via oversampled blocked subspace iteration
that stops when its leading r columns stop moving, QR orthonormalization,
weighted normal equations over a layout of the samples or its transpose and
their r-by-r solves, and residual spectral norms from the top singular value.  The stats
pass over M is ``sampling.compute_stats``, which reads M by the samplers' row
blocks.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import DegenerateInputError, ParameterError


def physical_memory() -> int:
    """Bytes of physical memory: no array larger than this can be held."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class DenseMatrix:
    """Row-major dense real matrix.

    The constructor copies its input into a C-ordered array and freezes the
    copy, so each row is contiguous: the stats pass, the samplers, distpca's
    row shards and the error sweep all read M by rows or blocks of rows.
    Entries must be finite.  ``pass_count`` tracks audited full sweeps over
    the data (statistics pass, sampling pass) so drivers can assert the
    two-pass discipline.
    """

    __slots__ = ("data", "pass_count")

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64, order="C")
        if arr.ndim != 2:
            raise ParameterError("matrix data must be two-dimensional")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ParameterError("matrix must have at least one row and column")
        if not np.isfinite(arr).all():
            raise DegenerateInputError("matrix entries must all be finite")
        arr.flags.writeable = False
        self.data = arr
        self.pass_count = 0

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def note_pass(self) -> None:
        self.pass_count += 1

    def take_rows(self, rows: np.ndarray) -> DenseMatrix:
        """The rows ``rows`` (an index array) of M, frozen: one copy, not re-checked."""
        sub = object.__new__(DenseMatrix)
        sub.data = self.data[rows]  # a fresh C-ordered copy of finite entries
        sub.data.flags.writeable = False
        sub.pass_count = 0
        return sub

    def __repr__(self) -> str:
        return f"DenseMatrix({self.n_rows}x{self.n_cols})"


@dataclass(frozen=True)
class Factorization:
    """Rank-r factor pair (u: n x r, v: d x r) representing u @ v.T.

    The dense product is never materialized by library code; consumers apply
    the factors instead.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if self.u.ndim != 2 or self.v.ndim != 2:
            raise ParameterError("factors must be two-dimensional")
        if self.u.shape[1] != self.v.shape[1]:
            raise ParameterError("factors must share the same rank")

    @property
    def rank(self) -> int:
        return self.u.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u.shape[0], self.v.shape[0])


def _qr_positive(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR with the sign convention diag(R) >= 0."""
    q, r = np.linalg.qr(X)
    sign = np.sign(np.diagonal(r)).copy()
    sign[sign == 0] = 1.0
    return q * sign, r * sign[:, None]


def orthonormal_columns(X: np.ndarray) -> np.ndarray:
    """Lenient orthonormalization: rank-collapsed columns pass through QR as-is."""
    return _qr_positive(X)[0]


def qr_orthonormalize(X: np.ndarray) -> np.ndarray:
    """Orthonormal basis for range(X); rejects numerically rank-deficient input.

    A column whose eliminated norm falls below 1e-12 of the largest one raises
    a degenerate-input error naming the offending column.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ParameterError("input must be a matrix with at least one column")
    if X.shape[0] < X.shape[1]:
        raise ParameterError("input must have at least as many rows as columns")
    q, r = _qr_positive(X)
    diag = np.abs(np.diagonal(r))
    largest = diag.max() if diag.size else 0.0
    if largest == 0.0 or diag.min() <= 1e-12 * largest:
        col = int(np.argmin(diag))
        raise DegenerateInputError(
            f"rank-deficient input: column {col} is dependent on earlier columns"
        )
    return q


# The cap on topk_svd's subspace iterations: no input runs more.
SVD_MAX_ITERS = 100

# topk_svd iterates r + SVD_OVERSAMPLE columns (clipped to min(n, d)) and
# watches only the leading r.
SVD_OVERSAMPLE = 2

# subspace_iteration stops once an iteration moves the leading r columns of its
# basis V by at most this.  The step ||V_r' - V_r V_r^T V_r'||_F bounds the
# sine of the largest angle between consecutive leading bases.  A block of b
# columns kept in Ritz order shrinks the angle between its leading r columns
# and the top-r right subspace by rho = (s_{b+1}/s_r)^2 per iteration, so at a
# stop they lie within step/(1 - rho) of that subspace, and their Ritz values
# are off by the square of that, relatively.  At b = r that is the plain
# (s_{r+1}/s_r)^2; the extra columns take rho off a small gap at the rank
# (Halko, Martinsson & Tropp 2011).  WAltMin needs its init only within a
# constant angle, which its rounds then contract; 1e-6 puts the init six
# orders inside that and its Ritz values near 1e-12/(1 - rho)^2.  Where rho is
# near 1 the bound loosens, but the top-r subspace is then ill-determined
# itself: a perturbation E of the input moves it by up to
# ||E||/(s_r - s_{r+1}) (Davis-Kahan), while the rank-r approximation
# converges without a gap (Musco & Musco 2015).  There the cap bounds the work.
# The alternating rounds of waltmin and run_distpca stop by the same rule, on
# their orthonormalized U and V: AltMin contracts geometrically (Jain,
# Netrapalli & Sanghavi 2013), so once a round moves the factor by 1e-6 the
# rounds left would move the product by about as little, and T is their cap.
SVD_STEP_TOL = 1e-6


def subspace_iteration(step, V: np.ndarray, r: int, cap: int) -> np.ndarray:
    """Replace V by ``step(V)`` until a step moves its first r columns by at most SVD_STEP_TOL.

    The move of orthonormal V_r, the first r columns of V, is
    ||V_r' - V_r V_r^T V_r'||_F; at most ``cap`` steps run.
    """
    for _ in range(cap):
        V, V_prev = step(V), V
        lead, prev = V[:, :r], V_prev[:, :r]
        if np.linalg.norm(lead - prev @ (prev.T @ lead)) <= SVD_STEP_TOL:
            break
    return V


def topk_svd(A, r: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Approximate top-r left singular vectors and singular values of A.

    Returns ``(U, s)``: U (n, r) orthonormal, the largest-magnitude entry of
    each column positive, and s descending.  ``A`` is any (n, d) matrix with
    ``A @ X`` and ``A.T @ Y``, such as a numpy array or a scipy sparse
    matrix; its transpose is taken once.  Blocked subspace iteration runs on
    b = min(r + SVD_OVERSAMPLE, n, d) columns: each step replaces V by the
    left singular vectors of A^T orth(A V), the block in Ritz order, until
    one step moves its leading r columns by at most ``SVD_STEP_TOL``
    (``subspace_iteration``'s rule), and never more than ``SVD_MAX_ITERS``
    times; a thin SVD of A @ V gives U and s, of which the first r are kept.
    No caller reads right singular vectors, so none are returned.
    Deterministic given the seed.
    """
    n, d = A.shape
    if r < 1 or r > min(n, d):
        raise ParameterError(f"rank {r} outside [1, min(n, d) = {min(n, d)}]")
    b = min(r + SVD_OVERSAMPLE, n, d)
    At = A.T
    g = rng.stream(seed, rng.TAG_SVD_INIT)
    V = orthonormal_columns(g.standard_normal((d, b)))
    V = subspace_iteration(
        lambda V: np.linalg.svd(At @ orthonormal_columns(A @ V), full_matrices=False)[0],
        V,
        r,
        SVD_MAX_ITERS,
    )
    Ub, s, _ = np.linalg.svd(A @ V, full_matrices=False)
    Ub, s = Ub[:, :r], s[:r]
    # Fix signs so the largest-magnitude entry of each left vector is positive.
    anchor = np.argmax(np.abs(Ub), axis=0)
    flips = np.sign(Ub[anchor, np.arange(r)])
    flips[flips == 0] = 1.0
    return Ub * flips, s


class Grouping:
    """Weighted observations grouped by output index, as two sparse matrices.

    Observation k regresses y_k, with weight w_k, on the row fixed[other_k]
    of a fixed factor and belongs to output group_k.  ``w`` is E(w), the
    (out_dim, n_other) matrix holding w_k at (group_k, other_k), and ``wy``
    is E(w y), holding w_k y_k there; the two share one structure.  Either
    both are CSR, each row listing its group's observations in sample order,
    or both are the CSC transposes of such a pair grouped by row over
    samples sorted by row: a CSC product walks the columns, the rows of the
    samples, in order, so it too adds each group's observations in sample
    order.  ``SampleSet`` builds the one by-row pair over its own row pointer
    and columns, and E(w) over its weights, without a copy.
    """

    __slots__ = ("w", "wy")

    def __init__(self, w, wy):
        self.w, self.wy = w, wy

    def normal_equations(self, fixed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stacked weighted normal systems B: (out_dim, r, r), z: (out_dim, r).

        Observation k adds w_k g_k g_k^T to B[group_k] and w_k y_k g_k to
        z[group_k], with g_k = fixed[other_k]; a group with no observations
        gets zeros.  B's packed upper triangle is E(w) @ P, where P's column
        (a, b) is fixed[:, a] * fixed[:, b] for a <= b, and z = E(w y) @ fixed.
        Each product adds w_k (g_a g_b), or (w_k y_k) g_a, into a zeroed output
        in sample order within each group.  B is one gather of the triangle:
        B[:, a, b] and B[:, b, a] both copy its column (min(a, b), max(a, b)).
        This is the only code that knows the packed order.
        """
        r = fixed.shape[1]
        ia, ib = np.triu_indices(r)
        mirror = np.empty((r, r), dtype=np.intp)
        mirror[ia, ib] = mirror[ib, ia] = np.arange(ia.size)
        return (self.w @ (fixed[:, ia] * fixed[:, ib]))[:, mirror], self.wy @ fixed


def _clears_shifted_cholesky(C: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Mask of the systems k for which C_k - shift_k I has a Cholesky factor.

    One column-by-column factorization runs over the whole stack, entry by
    entry of the lower triangle, each step one vector op over all k.  A
    system fails at its first pivot that is not positive (NaN included).
    """
    r = C.shape[1]
    A = C.transpose(1, 2, 0)
    L = np.zeros((r, r, C.shape[0]))
    ok = np.ones(C.shape[0], dtype=bool)
    for j in range(r):
        Lj = L[j, :j]
        pivot = A[j, j] - shift - np.einsum("pk,pk->k", Lj, Lj)
        ok &= pivot > 0.0
        root = np.sqrt(np.where(ok, pivot, 1.0))
        for i in range(j + 1, r):
            L[i, j] = (A[i, j] - np.einsum("pk,pk->k", L[i, :j], Lj)) / root
    return ok


def pseudo_solve_spd_batch(B: np.ndarray, z: np.ndarray, eig_floor: float) -> np.ndarray:
    """Solve B_k x_k = z_k over stacks B: (k, r, r) of symmetric PSD matrices.

    The rule: with tau_k = max(1e-10 * trace(B_k)/r, eig_floor, 0), every
    eigendirection of B_k with eigenvalue at or below tau_k is dropped and the
    rest are inverted.  That is the minimum-norm solution when B_k is
    singular to working precision (a zero B_k returns the zero vector).
    ``eig_floor`` is an absolute threshold: solver loops use it with factors
    orthonormalized and weights equal to reciprocal inclusion probabilities,
    where each B concentrates near the identity; directions carrying far less
    than unit information are then too noisy to invert and are zeroed instead.
    A caller whose fixed factor is not orthonormal scales the floor to it.

    The rule is applied in three tiers.  A system whose shifted matrix
    B_k - (tau_k + 1e-8 * trace(B_k)/r) I has a Cholesky factor has every
    eigenvalue above tau_k by a margin far larger than the rounding of either
    the factorization or ``eigh``, so the rule keeps all of its directions and
    it is solved directly (LU).  With a positive ``eig_floor``, a system
    failing that gate whose (tau_k - 1e-8 * trace(B_k)/r) I - B_k has a
    Cholesky factor has every eigenvalue below tau_k by the same margin, so
    the rule drops them all and x_k = 0 (at floor 0 that shift is negative
    and no system passes).  Only the systems left are eigendecomposed.  The
    kept directions are those of the rule on every system; the solved values
    differ from a full eigendecomposition only by rounding.
    """
    r = B.shape[1]
    scale = np.einsum("kii->k", B) / r
    tol = np.maximum(np.maximum(1e-10 * scale, eig_floor), 0.0)
    clear = _clears_shifted_cholesky(B, tol + 1e-8 * scale)
    if clear.all():  # skips the masked copies on the common all-clear stack
        return np.linalg.solve(B, z[..., None])[..., 0]
    x = np.empty_like(z)
    x[clear] = np.linalg.solve(B[clear], z[clear][..., None])[..., 0]
    rest = ~clear
    if eig_floor > 0.0:
        dropped = np.zeros_like(rest)
        dropped[rest] = _clears_shifted_cholesky(-B[rest], 1e-8 * scale[rest] - tol[rest])
        x[dropped] = 0.0
        rest &= ~dropped
        if not rest.any():
            return x
    lam, Q = np.linalg.eigh(B[rest])
    keep = lam > tol[rest][:, None]
    inv = np.zeros_like(lam)
    inv[keep] = 1.0 / lam[keep]
    coeff = np.einsum("kir,ki->kr", Q, z[rest])
    x[rest] = np.einsum("kir,kr->ki", Q, inv * coeff)
    return x


class _Residual:
    """M - u v^T applied implicitly: ``shape``, ``@`` and ``.T``, all topk_svd uses."""

    __slots__ = ("a", "u", "v", "shape")

    def __init__(self, a: np.ndarray, u: np.ndarray, v: np.ndarray):
        self.a, self.u, self.v = a, u, v
        self.shape = a.shape

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        return self.a @ X - self.u @ (self.v.T @ X)

    @property
    def T(self) -> _Residual:
        return _Residual(self.a.T, self.v, self.u)


def spectral_error(M: DenseMatrix, F: Factorization, seed: int = 0) -> float:
    """Spectral norm of M - u v^T: the top singular value ``topk_svd`` reads.

    The residual is applied implicitly, with a block of rank + 2 columns:
    ``topk_svd`` at k = F's rank, clipped to [1, min(n, d)].  The block's top
    Ritz value converges at (s_{k+3}/s_1)^2 per iteration, not the (s_2/s_1)^2
    of a single vector, so a residual whose top singular values nearly tie is
    still read to rounding level.  It is a lower bound on the true norm.
    Deterministic given the seed; its stream is keyed by ``rng.TAG_SPECTRAL``.
    """
    if F.shape != M.shape:
        raise ParameterError("factorization shape does not match the matrix")
    k = min(max(F.rank, 1), min(M.shape))
    _, s = topk_svd(_Residual(M.data, F.u, F.v), k, seed=rng.derive_seed(seed, rng.TAG_SPECTRAL))
    return float(s[0])


def low_rank_diff_spectral_norm(F1: Factorization, F2: Factorization) -> float:
    """Exact spectral norm of F1 - F2 using the stacked-factor compression.

    Both arguments are factored matrices of the same shape, so the difference
    has rank at most r1 + r2 and its norm reduces to a small dense SVD.
    """
    if F1.shape != F2.shape:
        raise ParameterError("factorizations must have matching shapes")
    L = np.hstack([F1.u, -F2.u])
    R = np.hstack([F1.v, F2.v])
    _, rl = _qr_positive(L)
    _, rr = _qr_positive(R)
    core = rl @ rr.T
    if core.size == 0:
        return 0.0
    return float(np.linalg.svd(core, compute_uv=False)[0])
