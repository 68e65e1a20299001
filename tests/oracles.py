"""Independent reference implementations used only to check the library.

These deliberately avoid the code paths under test: statistics by explicit
double loops, SVD via cyclic Jacobi on the Gram matrix, orthonormalization by
modified Gram-Schmidt, the init SVD by the fixed-iteration subspace
iteration the convergence stop replaced (bitwise equal to the library's with
the stop disabled), 2x2 solves by the closed-form inverse, least-squares
rows by one eigendecomposition each, the weighted normal equations by a
per-observation loop, the per-cell sampling intensity by the law's formula,
the weighted sampled matrix by scipy's COO conversion, the distributed
sample by its own per-row loop, the distributed init by its own stopped
power loop, the CP's column solve from the packed triangles the ledger
counts, and the samplers by the row-at-a-time kernels
the row-blocked ones replaced (the multinomial through ``Generator.choice``),
whose outputs the blocked kernels reproduce bit for bit.  The last six
functions are helpers the tests share and the library has no use for: a
sample set from entries in any order, each entry's row id, the weighted
training objective, a budget that saturates every cell, a matrix writer, and
the multinomial sampler's work count.
"""
import numpy as np
import scipy.io
import scipy.sparse

import lela.linalg as lela_linalg
from lela import DegenerateInputError, Factorization, ParameterError
from lela import rng as lrng
from lela.distpca import (
    DIR_DOWN,
    DIR_UP,
    KIND_COL_LISTS,
    KIND_COL_NORMS,
    KIND_STATS_BROADCAST,
)
from lela.linalg import orthonormal_columns, pseudo_solve_spd_batch
from lela.sampling import ProductSamplingPlan, SampleSet, compute_stats
from lela.waltmin import LS_EIG_FLOOR


def naive_stats(arr):
    """Double-loop recomputation of the matrix statistics."""
    n, d = arr.shape
    row_sq = np.zeros(n)
    col_sq = np.zeros(d)
    row_l1 = np.zeros(n)
    for i in range(n):
        for j in range(d):
            v = arr[i, j]
            row_sq[i] += v * v
            col_sq[j] += v * v
            row_l1[i] += abs(v)
    return row_sq, col_sq, row_l1, float(row_sq.sum()), float(row_l1.sum())


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


def topk_svd_fixed(A, r, iters, seed):
    """Top-r left singular vectors and values by exactly ``iters`` subspace iterations.

    The block is r + 2 columns wide (clipped to min(n, d)) and each iteration
    returns it in Ritz order, as in ``linalg.topk_svd``.
    """
    n, d = A.shape
    if r < 1 or r > min(n, d):
        raise ParameterError(f"rank {r} outside [1, min(n, d) = {min(n, d)}]")
    if iters < 1:
        raise ParameterError("iteration count must be at least 1")
    b = min(r + 2, n, d)
    At = A.T
    g = lrng.stream(seed, lrng.TAG_SVD_INIT)
    V = orthonormal_columns(g.standard_normal((d, b)))
    for _ in range(iters):
        U = orthonormal_columns(A @ V)
        V = np.linalg.svd(At @ U, full_matrices=False)[0]
    Ub, s, _ = np.linalg.svd(A @ V, full_matrices=False)
    Ub, s = Ub[:, :r], s[:r]
    # Fix signs so the largest-magnitude entry of each left vector is positive.
    anchor = np.argmax(np.abs(Ub), axis=0)
    flips = np.sign(Ub[anchor, np.arange(r)])
    flips[flips == 0] = 1.0
    return Ub * flips, s


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
    """Unclipped sampling intensity q(i, j) by the law's formula.

    ``j`` is one column, an index array or a slice of row i.  Only the budget
    is read from the plan's law; the norms come from the plan's inputs.
    """
    m = plan.law.m
    if isinstance(plan, ProductSamplingPlan):
        a, b = plan.a.data, plan.b.data
        row_sq_a = np.einsum("ij,ij->i", a, a)
        col_sq_b = np.einsum("ij,ij->j", b, b)
        return m * (
            row_sq_a[i] / (b.shape[1] * float(row_sq_a.sum()))
            + col_sq_b[j] / (a.shape[0] * float(col_sq_b.sum()))
        )
    s = plan.stats
    n, d = plan.matrix.shape
    norm_term = (s.row_sq_norms[i] + s.col_sq_norms[j]) / (2.0 * (n + d) * s.fro_sq)
    return m * (norm_term + abs(plan.matrix.data[i, j]) / (2.0 * s.l11))


def inclusion_probability(plan, i, j):
    """Chance that cell (i, j) is kept by one Bernoulli draw: min(q(i, j), 1)."""
    return min(intensity(plan, i, j), 1.0)


def spectral_norm_dense(arr):
    """Exact spectral norm through the dense SVD."""
    return float(np.linalg.svd(np.asarray(arr, dtype=np.float64), compute_uv=False)[0])


def pseudo_solve_spd(B, z, eig_floor=0.0):
    """Solve B x = z for symmetric PSD B with eigenvalue thresholding.

    Eigendirections at or below max(1e-10 * trace(B)/r, eig_floor) are
    dropped, giving the minimum-norm solution when B is singular to working
    precision.  A zero B returns the zero vector.
    """
    lam, Q = np.linalg.eigh(B)
    tol = max(1e-10 * np.trace(B) / B.shape[0], eig_floor)
    if tol <= 0.0:
        return np.zeros_like(z)
    keep = lam > tol
    inv = np.zeros_like(lam)
    inv[keep] = 1.0 / lam[keep]
    return Q @ (inv * (Q.T @ z))


def normal_equations_loop(group, fixed, other, w, y, out_dim):
    """Per-observation loop over the weighted normal systems, in sample order.

    Observation k adds w_k (g_a g_b) to B[group_k, a, b] for a <= b and
    (w_k y_k) g_a to z[group_k, a], with g = fixed[other_k]; the upper
    triangle is mirrored below at the end.
    """
    r = fixed.shape[1]
    B = np.zeros((out_dim, r, r))
    z = np.zeros((out_dim, r))
    for k in range(len(group)):
        i, g = group[k], fixed[other[k]]
        wy = w[k] * y[k]
        for a in range(r):
            z[i, a] += wy * g[a]
            for b in range(a, r):
                B[i, a, b] += w[k] * (g[a] * g[b])
    for a in range(r):
        for b in range(a + 1, r):
            B[:, b, a] = B[:, a, b]
    return B, z


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


def weighted_coo_csr(S):
    """The reweighted sampled matrix w * y, built by scipy from COO triplets."""
    coo = scipy.sparse.coo_matrix((S.weights * S.vals, (row_ids(S), S.cols)), shape=(S.n, S.d))
    return coo.tocsr()


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
    return coo_sample_set(n, d, rows, cols, vals, wts)


def draw_bernoulli_rows(d, row_ids, prob_row, value_row, seed, tag):
    """The per-row Bernoulli kernel every exact sampler shares.

    Row ``row_ids[k]`` draws d uniforms from the stream (seed, tag, row_ids[k])
    and keeps column j when u_j < p_j, storing weight 1 / p_j in row k of a
    set over len(row_ids) rows; the outcome depends on the row id only, never
    on the position k or on who draws it.  ``prob_row(k)`` returns the row's
    inclusion probabilities and ``value_row(k, js)`` the values of its kept
    columns.
    """
    rows_acc, cols_acc, vals_acc, wts_acc = [], [], [], []
    for k, i in enumerate(row_ids):
        p = prob_row(k)
        u = lrng.stream(seed, tag, int(i)).random(d)
        js = np.flatnonzero(u < p)
        if js.size:
            rows_acc.append(np.full(js.size, k, dtype=np.int64))
            cols_acc.append(js)
            vals_acc.append(value_row(k, js))
            wts_acc.append(1.0 / p[js])
    return _concat_samples(len(row_ids), d, rows_acc, cols_acc, vals_acc, wts_acc)


def _concat_samples(n, d, *blocks):
    """One SampleSet from per-row blocks of rows, cols, vals and weights."""
    if not blocks[0]:
        return coo_sample_set(n, d, [], [], [], [])
    return coo_sample_set(n, d, *(np.concatenate(b) for b in blocks))


def _row_probabilities(plan):
    """Row i's inclusion probabilities min(q(i, :), 1)."""
    return lambda i: np.minimum(intensity(plan, i, slice(None)), 1.0)


def draw_bernoulli(plan, seed=0):
    """Row-at-a-time ``lela.sampling.draw_bernoulli``."""
    M = plan.matrix
    S = draw_bernoulli_rows(
        M.n_cols, np.arange(M.n_rows), _row_probabilities(plan),
        lambda i, js: M.data[i][js], seed, lrng.TAG_BERNOULLI,
    )
    M.note_pass()
    return S


def multinomial_tables(plan):
    """The multinomial sampler's row law and the column-norm part of its
    within-row law (the per-row |M_ij| part is added row by row)."""
    s = plan.stats
    n, d = plan.matrix.shape
    row_marginal = 0.5 * (
        d * s.row_sq_norms / ((n + d) * s.fro_sq) + 1.0 / (n + d)
    ) + 0.5 * s.row_l1 / s.l11
    within_row_base = 0.5 * s.col_sq_norms / s.fro_sq
    return row_marginal, within_row_base


def draw_multinomial(plan, seed=0):
    """Row-at-a-time ``lela.sampling.draw_multinomial``, drawing with ``choice``."""
    M = plan.matrix
    n, d = M.shape
    row_marginal, within_row_base = multinomial_tables(plan)
    counts = lrng.stream(seed, lrng.TAG_ROW_COUNTS).multinomial(plan.law.m, row_marginal)
    rows_acc, cols_acc, vals_acc, wts_acc = [], [], [], []
    for i in np.flatnonzero(counts):
        row = M.data[i]
        weights_in_row = within_row_base + 0.5 * np.abs(row) / plan.stats.l11
        weights_in_row = weights_in_row / weights_in_row.sum()
        draws = lrng.stream(seed, lrng.TAG_ROW_DRAWS, i).choice(
            d, size=int(counts[i]), replace=True, p=weights_in_row
        )
        js = np.unique(draws)
        p = np.minimum(intensity(plan, i, js), 1.0)
        rows_acc.append(np.full(js.size, i, dtype=np.int64))
        cols_acc.append(js)
        vals_acc.append(row[js])
        wts_acc.append(1.0 / p)
    M.note_pass()
    return _concat_samples(n, d, rows_acc, cols_acc, vals_acc, wts_acc)


def materialize_product_samples(plan, seed=0):
    """Row-at-a-time ``lela.sampling.materialize_product_samples``."""
    A, B = plan.a, plan.b
    return draw_bernoulli_rows(
        B.n_cols, np.arange(A.n_rows), _row_probabilities(plan),
        lambda i, js: A.data[i] @ B.data[:, js], seed, lrng.TAG_PRODUCT,
    )


def dist_sample(shards, m, ledger, seed=0):
    """Row-at-a-time ``lela.distpca.dist_sample``: the same exchange and ledger.

    Each server's law inputs are its ``compute_stats``, as ``draw_bernoulli``
    reads ``plan.stats``.
    """
    if m < 1:
        raise ParameterError("sample budget m must be at least 1")
    n = sum(sh.row_set.size for sh in shards)
    d = shards[0].local_rows.n_cols
    ledger.advance_round()
    local_stats = []
    for sh in shards:
        local_stats.append(compute_stats(sh.local_rows))
        ledger.record(DIR_UP, KIND_COL_NORMS, d)
        ledger.record(DIR_UP, KIND_STATS_BROADCAST, 1)
    col_sq = np.zeros(d)
    l11 = 0.0
    for st in local_stats:  # fixed ascending server id
        col_sq = col_sq + st.col_sq_norms
        l11 += st.l11
    fro_sq = float(col_sq.sum())
    if l11 <= 0.0 or fro_sq <= 0.0:
        raise DegenerateInputError("all-zero matrix has no sampling distribution")
    for sh in shards:
        ledger.record(DIR_DOWN, KIND_STATS_BROADCAST, d + 2)
    for sh, st in zip(shards, local_stats):
        rows = sh.local_rows.data
        row_sq = st.row_sq_norms

        def prob_row(k):
            q = m * ((row_sq[k] + col_sq) / (2.0 * n * fro_sq) + np.abs(rows[k]) / l11)
            return np.minimum(q, 1.0)

        sh.local_samples = draw_bernoulli_rows(
            d, sh.row_set, prob_row, lambda k, js: rows[k, js], seed, lrng.TAG_DIST_SAMPLE
        )
        touched = np.unique(sh.local_samples.cols).size
        if touched:
            ledger.record(DIR_UP, KIND_COL_LISTS, touched)


def centralized_init(samples, r, rounds, seed=0):
    """Power iteration on R^T R from dist_init's seeded iterate, with its stop.

    A round that moves Y by ||Y' - Y Y^T Y'||_F <= ``linalg.SVD_STEP_TOL`` is
    the last; at most ``rounds`` run.  Returns Y and the number of rounds run.
    """
    csr = samples.weighted_csr()
    Y = orthonormal_columns(
        lrng.stream(seed, lrng.TAG_DIST_INIT).standard_normal((samples.d, r))
    )
    for k in range(rounds):
        Y_next = orthonormal_columns(csr.T @ (csr @ Y))
        moved = np.linalg.norm(Y_next - Y @ (Y.T @ Y_next))
        Y = Y_next
        if moved <= lela_linalg.SVD_STEP_TOL:
            return Y, k + 1
    return Y, rounds


def column_solve(B, z):
    """The CP's column solve: floored at ``LS_EIG_FLOOR`` times the least
    eigenvalue of the stack's mean, the estimate of U^T U each B_j is near."""
    floor = LS_EIG_FLOOR * np.linalg.eigvalsh(B.mean(axis=0))[0]
    return pseudo_solve_spd_batch(B, z, eig_floor=floor)


def cp_column_solve(samples, u_blocks):
    """The CP's new V from exactly what the servers upload.

    Per touched column each server sends z_k and the packed upper triangle of
    B_k, in ``np.triu_indices(r)`` order.  The CP adds both in ascending
    server id, mirrors the summed triangle once and solves by ``column_solve``.
    """
    d, r = samples[0].d, u_blocks[0].shape[1]
    ia, ib = np.triu_indices(r)
    z_total = np.zeros((d, r))
    packed = np.zeros((d, ia.size))
    for S, u in zip(samples, u_blocks):
        B_k, z_k = S.by_col().normal_equations(u)
        z_total = z_total + z_k
        packed = packed + B_k[:, ia, ib]
    B = np.empty((d, r, r))
    B[:, ia, ib] = packed
    B[:, ib, ia] = packed
    return column_solve(B, z_total)


def centralized_reference(M, r, m, iterations, init_rounds=10, seed=0):
    """Single-process run of the protocol the simulator distributes.

    Same sampling law and streams, same seeded init with the same stop and
    cap, same update order (rows first, then columns), the same solves (rows
    floored at ``LS_EIG_FLOOR``, columns by ``column_solve``) and the same
    rounds: the row solves take the orthonormalized V, and a round that moves it by
    ||V' - V V^T V'||_F <= ``linalg.SVD_STEP_TOL`` is the last of at most
    ``iterations``.  Returns the last round's U and raw V, so the distributed
    output must match entrywise up to floating-point fold order.
    """
    samples = centralized_sample(M, m, seed=seed)
    V, _ = centralized_init(samples, r, init_rounds, seed=seed)
    for _ in range(iterations):
        U = pseudo_solve_spd_batch(*samples.by_row().normal_equations(V), eig_floor=LS_EIG_FLOOR)
        V_raw = column_solve(*samples.by_col().normal_equations(U))
        V_next = orthonormal_columns(V_raw)
        moved = np.linalg.norm(V_next - V @ (V.T @ V_next))
        V = V_next
        if moved <= lela_linalg.SVD_STEP_TOL:
            break
    return Factorization(U, V_raw)


def coo_sample_set(n, d, rows, cols, vals, weights):
    """A SampleSet from entries (rows[k], cols[k]) in any order, sorted by (row, col).

    The row pointer counts each row's entries; a duplicate entry is left for
    the constructor to refuse.
    """
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    order = np.lexsort((cols, rows))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    vals, weights = np.asarray(vals, dtype=np.float64), np.asarray(weights, dtype=np.float64)
    return SampleSet(n, d, indptr, cols[order], vals[order], weights[order])


def row_ids(S):
    """The row of each entry of S, in storage order."""
    return np.repeat(np.arange(S.n), np.diff(S.indptr))


def objective(S, F):
    """Weighted squared error of the factorization over the stored entries."""
    if F.shape != (S.n, S.d):
        raise ParameterError("factorization shape does not match the sample set")
    residual = S.vals - np.einsum("kr,kr->k", F.u[row_ids(S)], F.v[S.cols])
    return float(np.sum(S.weights * residual * residual))


def saturating_sample_count(M):
    """Smallest m that saturates every cell's inclusion probability to 1."""
    stats = compute_stats(M)
    if stats.fro_sq <= 0.0:
        raise DegenerateInputError("all-zero matrix cannot saturate")
    n, d = M.shape
    min_pair = stats.row_sq_norms.min() + stats.col_sq_norms.min()
    if min_pair <= 0.0:
        raise DegenerateInputError("a zero row or column prevents saturation")
    return int(np.ceil(2.0 * (n + d) * stats.fro_sq / min_pair)) + 1


def write_matrix(path, M):
    """Write a matrix as a MatrixMarket array file."""
    scipy.io.mmwrite(path, M.data)


def multinomial_work(S, m):
    """Work units of ``draw_multinomial`` that returned S from a budget of m.

    One pass over the n row counts and the m draws, two length-d tables per
    touched row, and a binary search of ceil(log2 d) steps per draw.  Every
    touched row keeps at least one cell, so the touched rows are those of S.
    """
    log_d = max(1, int(np.ceil(np.log2(max(S.d, 2)))))
    return S.n + m + 2 * S.d * np.count_nonzero(np.diff(S.indptr)) + m * log_d
