"""Independent reference implementations used only to check the library.

These deliberately avoid the code paths under test: statistics by explicit
double loops, SVD via cyclic Jacobi on the Gram matrix, orthonormalization by
modified Gram-Schmidt, 2x2 solves by the closed-form inverse, least-squares
rows by one eigendecomposition each, and the distributed sample by its own
per-row loop.  The per-cell sampling intensity is the exception: it is read
off the plan's own row law, so a test can address one cell.
"""
import numpy as np

from lela import DegenerateInputError, Factorization, ParameterError, SampleSet
from lela import rng as lrng
from lela.linalg import normal_equations, orthonormal_columns, pseudo_solve_spd_batch


def naive_stats(arr):
    """Double-loop recomputation of the matrix statistics."""
    n, d = arr.shape
    row_sq = np.zeros(n)
    col_sq = np.zeros(d)
    row_l1 = np.zeros(n)
    nnz = 0
    for i in range(n):
        for j in range(d):
            v = arr[i, j]
            row_sq[i] += v * v
            col_sq[j] += v * v
            row_l1[i] += abs(v)
            if v != 0.0:
                nnz += 1
    return row_sq, col_sq, row_l1, float(row_sq.sum()), float(row_l1.sum()), nnz


def cyclic_jacobi_eigh(S, sweeps=60, tol=1e-15):
    """Eigendecomposition of a symmetric matrix via cyclic Jacobi rotations."""
    A = np.array(S, dtype=np.float64)
    n = A.shape[0]
    V = np.eye(n)
    for _ in range(sweeps):
        off = np.sqrt(max(np.sum(A * A) - np.sum(np.diag(A) ** 2), 0.0))
        if off <= tol * max(np.abs(np.diag(A)).max(), 1e-300):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if A[p, q] == 0.0:
                    continue
                theta = 0.5 * np.arctan2(2.0 * A[p, q], A[q, q] - A[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                A = rot.T @ A @ rot
                V = V @ rot
    lam = np.diag(A).copy()
    order = np.argsort(lam)[::-1]
    return lam[order], V[:, order]


def jacobi_svd(arr):
    """Full SVD built from the Jacobi eigendecomposition of arr.T @ arr."""
    arr = np.asarray(arr, dtype=np.float64)
    lam, V = cyclic_jacobi_eigh(arr.T @ arr)
    lam = np.clip(lam, 0.0, None)
    sigma = np.sqrt(lam)
    U = np.zeros((arr.shape[0], sigma.size))
    for k in range(sigma.size):
        if sigma[k] > 1e-12 * (sigma[0] if sigma.size else 1.0):
            U[:, k] = (arr @ V[:, k]) / sigma[k]
    return U, sigma, V


def modified_gram_schmidt(X):
    """Orthonormal basis for range(X) by modified Gram-Schmidt."""
    X = np.array(X, dtype=np.float64)
    n, k = X.shape
    Q = np.zeros((n, k))
    for j in range(k):
        v = X[:, j].copy()
        for i in range(j):
            v -= (Q[:, i] @ v) * Q[:, i]
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise ValueError(f"column {j} dependent")
        Q[:, j] = v / norm
    return Q


def inv_2x2(B):
    """Closed-form inverse of a 2x2 matrix."""
    det = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
    return np.array([[B[1, 1], -B[0, 1]], [-B[1, 0], B[0, 0]]]) / det


def weighted_ls_2x2(targets):
    """Normal-equation solve for rank 2 via the closed-form inverse."""
    B = np.zeros((2, 2))
    z = np.zeros(2)
    for w, y, g in targets:
        g = np.asarray(g, dtype=np.float64)
        B += w * np.outer(g, g)
        z += w * y * g
    return inv_2x2(B) @ z


def intensity(plan, i, j):
    """Unclipped sampling intensity q(i, j) of one cell, from the plan's row law."""
    return float(plan.intensity_row(i)[j])


def inclusion_probability(plan, i, j):
    """Chance that cell (i, j) is kept by one Bernoulli draw: min(q(i, j), 1)."""
    return min(intensity(plan, i, j), 1.0)


def spectral_norm_dense(arr):
    """Exact spectral norm through the dense SVD."""
    return float(np.linalg.svd(np.asarray(arr, dtype=np.float64), compute_uv=False)[0])


def pseudo_solve_spd(B, z):
    """Solve B x = z for symmetric PSD B with eigenvalue thresholding.

    Eigendirections below 1e-10 * trace(B)/r are dropped, giving the
    minimum-norm solution when B is singular to working precision.  A zero B
    returns the zero vector.
    """
    lam, Q = np.linalg.eigh(B)
    tol = 1e-10 * np.trace(B) / B.shape[0]
    if tol <= 0.0:
        return np.zeros_like(z)
    keep = lam > tol
    inv = np.zeros_like(lam)
    inv[keep] = 1.0 / lam[keep]
    return Q @ (inv * (Q.T @ z))


def solve_weighted_row_ls(targets, rank):
    """Solve one weighted least-squares row subproblem.

    ``targets`` is an iterable of (weight, response, regressor) triples with
    regressors in R^rank.  Assembles the normal equations B x = z with
    B = sum w g g^T and z = sum w y g.  An empty target list means the row was
    never observed and yields the zero vector.
    """
    if rank < 1:
        raise ParameterError("rank must be at least 1")
    B = np.zeros((rank, rank))
    z = np.zeros(rank)
    empty = True
    for w, y, g in targets:
        if w <= 0:
            raise ParameterError("weights must be strictly positive")
        g = np.asarray(g, dtype=np.float64)
        if g.shape != (rank,):
            raise ParameterError("regressor length must equal the rank")
        B += w * np.outer(g, g)
        z += (w * y) * g
        empty = False
    if empty:
        return np.zeros(rank)
    return pseudo_solve_spd(B, z)


def total_samples(shards):
    """Number of samples held across the servers of a distributed run."""
    return sum(sh.local_samples.size for sh in shards if sh.local_samples is not None)


def centralized_sample(M, m, seed=0):
    """Single-process draw from the distributed sampling law (same streams)."""
    a = M.data
    n, d = a.shape
    col_sq = np.einsum("ij,ij->j", a, a)
    row_sq = np.einsum("ij,ij->i", a, a)
    fro_sq = float(col_sq.sum())
    l11 = float(np.abs(a).sum())
    if l11 <= 0.0 or fro_sq <= 0.0:
        raise DegenerateInputError("all-zero matrix has no sampling distribution")
    rows, cols, vals, wts = [], [], [], []
    for i in range(n):
        q = m * ((row_sq[i] + col_sq) / (2.0 * n * fro_sq) + np.abs(a[i]) / l11)
        p = np.minimum(q, 1.0)
        u = lrng.stream(seed, lrng.TAG_DIST_SAMPLE, i).random(d)
        for j in np.flatnonzero(u < p):
            rows.append(i)
            cols.append(j)
            vals.append(a[i, j])
            wts.append(1.0 / p[j])
    return SampleSet(n, d, rows, cols, vals, wts)


def centralized_reference(M, r, m, iterations, init_rounds=10, seed=0):
    """Single-process run of the exact protocol the simulator distributes.

    Same sampling law and streams, same seeded init, same update order (rows
    first, then columns) and the same exact solves (eigenvalue floor 0), so
    the distributed output must match entrywise up to floating-point fold
    order.
    """
    samples = centralized_sample(M, m, seed=seed)
    n, d = M.shape
    csr = samples.weighted_csr()
    Y = orthonormal_columns(lrng.stream(seed, lrng.TAG_DIST_INIT).standard_normal((d, r)))
    for _ in range(init_rounds):
        Y = orthonormal_columns(csr.T @ (csr @ Y))
    V = Y
    U = np.zeros((n, r))
    for _ in range(iterations):
        B, z = normal_equations(samples.rows, V[samples.cols], samples.weights, samples.vals, n)
        U = pseudo_solve_spd_batch(B, z, eig_floor=0.0)
        B, z = normal_equations(samples.cols, U[samples.rows], samples.weights, samples.vals, d)
        V = pseudo_solve_spd_batch(B, z, eig_floor=0.0)
    return Factorization(U, V)
