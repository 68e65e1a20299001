"""Dense-matrix container and the small numerical kernels everything else uses.

Covers matrix statistics, top-r SVD of an implicit operator via blocked
subspace iteration, QR orthonormalization, batched weighted normal equations
and their r-by-r solves, and power-iteration estimates of spectral residual
norms.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import DegenerateInputError, ParameterError


class DenseMatrix:
    """Column-major dense real matrix.

    Entries must be finite; the underlying array is frozen after construction.
    ``pass_count`` tracks audited full sweeps over the data (statistics pass,
    sampling pass) so drivers can assert the two-pass discipline.
    """

    __slots__ = ("data", "pass_count")

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64, order="F")
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

    def row(self, i: int) -> np.ndarray:
        return self.data[i, :]

    def col(self, j: int) -> np.ndarray:
        return self.data[:, j]

    def __repr__(self) -> str:
        return f"DenseMatrix({self.n_rows}x{self.n_cols})"


@dataclass(frozen=True)
class MatrixStats:
    """Row/column norms and global norms gathered in one pass."""

    row_sq_norms: np.ndarray
    col_sq_norms: np.ndarray
    row_l1: np.ndarray
    fro_sq: float
    l11: float
    nnz: int


@dataclass(frozen=True)
class Factorization:
    """Rank-r factor pair (u: n x r, v: d x r) representing u @ v.T.

    The dense product is never materialized by library code; consumers either
    evaluate entries on demand or apply the factors as an operator.
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

    def entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Evaluate the represented matrix at the given index pairs."""
        return np.einsum("kr,kr->k", self.u[rows], self.v[cols])

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.u @ (self.v.T @ x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return self.v @ (self.u.T @ y)

    def dense(self) -> np.ndarray:
        """Materialize the product; intended for tests and small audits only."""
        return self.u @ self.v.T


@dataclass(frozen=True)
class OracleDecomposition:
    """Top-r singular triplets with the condition number sigma_1/sigma_r."""

    u_star: np.ndarray
    sigma_star: np.ndarray
    v_star: np.ndarray
    kappa: float


class LinearOperator:
    """Matrix-free operator: mv maps (d, k) -> (n, k), rmv its transpose."""

    __slots__ = ("n", "d", "mv", "rmv")

    def __init__(self, n, d, mv, rmv):
        self.n = int(n)
        self.d = int(d)
        self.mv = mv
        self.rmv = rmv


def compute_stats(M: DenseMatrix) -> MatrixStats:
    """Gather row/column squared norms, row L1 norms, and global norms.

    Counts as one audited pass over the matrix; nnz counts entries with
    strictly positive magnitude.
    """
    a = M.data
    row_sq = np.einsum("ij,ij->i", a, a)
    col_sq = np.einsum("ij,ij->j", a, a)
    absa = np.abs(a)
    row_l1 = absa.sum(axis=1)
    stats = MatrixStats(
        row_sq_norms=row_sq,
        col_sq_norms=col_sq,
        row_l1=row_l1,
        fro_sq=float(row_sq.sum()),
        l11=float(row_l1.sum()),
        nnz=int(np.count_nonzero(a)),
    )
    M.note_pass()
    return stats


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


def topk_svd(
    op: LinearOperator, r: int, iters: int = 100, seed: int = 0
) -> OracleDecomposition:
    """Approximate top-r singular triplets of an implicit operator.

    Blocked subspace iteration with per-step QR re-orthonormalization; a final
    thin SVD of the projected block aligns the factors and orders the singular
    values.  Deterministic given the seed.
    """
    if r < 1 or r > min(op.n, op.d):
        raise ParameterError(f"rank {r} outside [1, min(n, d) = {min(op.n, op.d)}]")
    if iters < 1:
        raise ParameterError("iteration count must be at least 1")
    g = rng.stream(seed, rng.TAG_SVD_INIT)
    V = orthonormal_columns(g.standard_normal((op.d, r)))
    for _ in range(iters):
        U = orthonormal_columns(op.mv(V))
        V = orthonormal_columns(op.rmv(U))
    B = op.mv(V)
    Ub, s, Wt = np.linalg.svd(B, full_matrices=False)
    V = V @ Wt.T
    # Fix signs so the largest-magnitude entry of each left vector is positive.
    anchor = np.argmax(np.abs(Ub), axis=0)
    flips = np.sign(Ub[anchor, np.arange(r)])
    flips[flips == 0] = 1.0
    Ub = Ub * flips
    V = V * flips
    kappa = float(s[0] / s[r - 1]) if s[r - 1] > 0 else float("inf")
    return OracleDecomposition(u_star=Ub, sigma_star=s, v_star=V, kappa=kappa)


def normal_equations(
    group: np.ndarray, G: np.ndarray, w: np.ndarray, y: np.ndarray, out_dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked weighted normal systems B: (out_dim, r, r), z: (out_dim, r).

    Observation k adds w_k G_k G_k^T to B[group_k] and w_k y_k G_k to
    z[group_k]; a group with no observations gets zeros.  Each entry of the
    packed upper triangle (a <= b) is one bincount, mirrored below it.
    """
    r = G.shape[1]
    wy = w * y
    B = np.empty((out_dim, r, r))
    z = np.empty((out_dim, r))
    for a in range(r):
        z[:, a] = np.bincount(group, weights=wy * G[:, a], minlength=out_dim)
        for b in range(a, r):
            acc = np.bincount(group, weights=w * G[:, a] * G[:, b], minlength=out_dim)
            B[:, a, b] = acc
            B[:, b, a] = acc
    return B, z


def pseudo_solve_spd_batch(B: np.ndarray, z: np.ndarray, eig_floor: float) -> np.ndarray:
    """Solve B_k x_k = z_k over stacks B: (k, r, r) of symmetric PSD matrices.

    Eigendirections below 1e-10 * trace(B_k)/r are dropped, giving the
    minimum-norm solution when B_k is singular to working precision (a zero
    B_k returns the zero vector).  ``eig_floor`` additionally drops
    eigendirections below an absolute threshold.  Solver loops use it with
    factors orthonormalized and weights equal to reciprocal inclusion
    probabilities, where each B concentrates near the identity; directions
    carrying far less than unit information are then too noisy to invert and
    are zeroed instead.
    """
    lam, Q = np.linalg.eigh(B)
    traces = np.einsum("kii->k", B)
    tol = np.maximum(1e-10 * traces / B.shape[1], eig_floor)
    keep = lam > np.maximum(tol, 0.0)[:, None]
    inv = np.zeros_like(lam)
    inv[keep] = 1.0 / lam[keep]
    coeff = np.einsum("kir,ki->kr", Q, z)
    return np.einsum("kir,kr->ki", Q, inv * coeff)


def spectral_error(M: DenseMatrix, F: Factorization, iters: int = 200, seed: int = 0) -> float:
    """Power-iteration estimate of the spectral norm of M - u v^T.

    The residual operator is applied implicitly; the returned Rayleigh
    estimate lower-bounds the true norm and is nondecreasing in ``iters``.
    """
    if F.shape != M.shape:
        raise ParameterError("factorization shape does not match the matrix")
    if iters < 1:
        raise ParameterError("iteration count must be at least 1")
    a = M.data
    U, V = F.u, F.v
    g = rng.stream(seed, rng.TAG_SPECTRAL)
    v = g.standard_normal(M.n_cols)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    v /= nv
    est = 0.0
    for _ in range(iters):
        w = a @ v - U @ (V.T @ v)
        est = float(np.linalg.norm(w))
        if est == 0.0:
            return 0.0
        w /= est
        v = a.T @ w - V @ (U.T @ w)
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            return est
        v /= nv
    return est


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
