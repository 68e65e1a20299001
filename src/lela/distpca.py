"""In-process simulation of row-partitioned distributed low-rank approximation.

Servers hold disjoint row blocks of the matrix and talk only to a central
processor (CP).  The protocol has three stages: a stats exchange that lets
every server evaluate the sampling law locally, a power-iteration
initialization of the right factor, and alternating-minimization rounds where
row updates stay on the servers and column updates are assembled at the CP
from per-column (z, B) messages, until a round leaves V in place.  Every
transfer is recorded in a CommLedger as a count of real numbers, which is the
quantity the communication bound speaks about; no actual networking is
involved.

Each server samples its rows by the distpca row of ``sampling.ElementLaw``'s
coefficient table, not by the single-machine law.  Row i draws from the
stream (seed, TAG_DIST_SAMPLE, i) whichever server holds it, so the sample
set does not depend on the partition.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import rng, sampling
from .errors import ParameterError
from .linalg import (
    DenseMatrix, Factorization, orthonormal_columns, pseudo_solve_spd_batch, subspace_iteration,
)
from .sampling import ElementLaw, SampleSet, draw_bernoulli_rows
from .waltmin import LS_EIG_FLOOR, als_half_step

KIND_COL_NORMS = "col-norms"
KIND_STATS_BROADCAST = "stats-broadcast"
KIND_COL_LISTS = "col-lists"
KIND_INIT_Y_BLOCK = "init-Y-block"
KIND_INIT_Y_PARTIAL = "init-Y-partial"
KIND_Z_AND_B = "z-and-B"
KIND_V_ROWS_BLOCK = "V-rows-block"

DIR_UP = "server->CP"
DIR_DOWN = "CP->server"

PARTITION_POLICIES = ("contiguous", "round-robin", "seeded-random")


@dataclass(frozen=True)
class Message:
    """One recorded transfer: a count of real numbers moving in one direction."""

    round: int
    direction: str
    kind: str
    payload_reals: int


class CommLedger:
    """Append-only message log, by round, with running totals per kind."""

    def __init__(self):
        self.messages: list[Message] = []
        self.totals_by_kind: dict[str, int] = {}
        self._round = -1

    def advance_round(self) -> None:
        self._round += 1

    def record(self, direction: str, kind: str, payload_reals: int) -> None:
        """Log one message into the current round."""
        if payload_reals <= 0:
            raise ParameterError("recorded messages must carry a positive payload")
        msg = Message(self._round, direction, kind, int(payload_reals))
        self.messages.append(msg)
        self.totals_by_kind[kind] = self.totals_by_kind.get(kind, 0) + msg.payload_reals

    def grand_total(self) -> int:
        return sum(m.payload_reals for m in self.messages)

    def verify(self) -> bool:
        """Check the running totals against a recomputation from the log."""
        by_kind: dict[str, int] = {}
        for m in self.messages:
            by_kind[m.kind] = by_kind.get(m.kind, 0) + m.payload_reals
        return by_kind == self.totals_by_kind

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "direction", "kind", "reals"])
            for m in self.messages:
                writer.writerow([m.round, m.direction, m.kind, m.payload_reals])


def communication_bound(d: int, s: int, omega: int, r: int, init_rounds: int) -> int:
    """Audit bound 3 (d s + |Omega| r^2) + init_rounds * 2 |Omega| r."""
    return 3 * (d * s + omega * r * r) + init_rounds * 2 * omega * r


@dataclass
class ServerShard:
    """One server's state: its rows, a frozen ``DenseMatrix``, and once drawn its samples.

    A server's id is its position in the shard list.  ``local_samples`` holds
    the samples of the rows ``row_set`` with row k standing for
    ``row_set[k]``; its one layout, by row and transposed, serves every round.
    """

    row_set: np.ndarray
    local_rows: DenseMatrix
    local_samples: SampleSet | None = None


def partition_rows(
    M: DenseMatrix, s: int, policy: str = "contiguous", seed: int = 0
) -> list[ServerShard]:
    """Split the rows of M across s servers according to the policy."""
    n = M.n_rows
    if s < 1 or s > n:
        raise ParameterError(f"server count {s} outside [1, {n}]")
    if policy not in PARTITION_POLICIES:
        raise ParameterError(f"unknown partition policy {policy!r}")
    if policy == "contiguous":
        groups = np.array_split(np.arange(n), s)
    elif policy == "round-robin":
        groups = [np.arange(k, n, s) for k in range(s)]
    else:
        perm = rng.stream(seed, rng.TAG_PARTITION).permutation(n)
        groups = [np.sort(g) for g in np.array_split(perm, s)]
    return [ServerShard(g.astype(np.int64), M.take_rows(g)) for g in groups]


def dist_sample(shards: list[ServerShard], m: int, ledger: CommLedger, seed: int = 0) -> None:
    """Stats exchange plus local sampling; fills each shard in place.

    Each server's stats are ``sampling.compute_stats`` of its rows.  Per
    server the ledger gains d reals up (its column norms), one real up (its
    local L1 mass), d + 2 reals down (global column norms, |M|_F, and
    |M|_{1,1}), and one count per touched column for the column lists.
    """
    if m < 1:
        raise ParameterError("sample budget m must be at least 1")
    n = sum(sh.row_set.size for sh in shards)
    d = shards[0].local_rows.n_cols
    ledger.advance_round()
    stats = [sampling.compute_stats(sh.local_rows) for sh in shards]
    col_sq = np.zeros(d)
    l11 = 0.0
    with np.errstate(over="ignore"):  # an infinite total is refused by the law
        for st in stats:  # fixed ascending server id
            col_sq = col_sq + st.col_sq_norms
            l11 += st.l11
            ledger.record(DIR_UP, KIND_COL_NORMS, d)
            ledger.record(DIR_UP, KIND_STATS_BROADCAST, 1)
        fro_sq = float(col_sq.sum())
    for sh in shards:
        ledger.record(DIR_DOWN, KIND_STATS_BROADCAST, d + 2)
    for sh, st in zip(shards, stats):
        rows = sh.local_rows.data
        law = ElementLaw(m, st.row_sq_norms, col_sq, 2.0 * n * fro_sq, rows, l11)
        sh.local_samples = draw_bernoulli_rows(
            law, sh.row_set, lambda ks, js: rows[ks, js], seed, rng.TAG_DIST_SAMPLE
        )
        touched = sh.local_samples.observed_cols().size
        if touched:
            ledger.record(DIR_UP, KIND_COL_LISTS, touched)


def dist_init(
    samples: list[SampleSet], r: int, rounds: int, ledger: CommLedger, seed: int = 0
) -> np.ndarray:
    """Distributed subspace iteration for the top-r right factor.

    The CP seeds a random d x r iterate, QR-normalizes it, and broadcasts each
    server its touched-column block; every round each server returns the block
    of R^T R applied to the iterate and the CP folds the partial sums in
    ascending server id, re-normalizes, and broadcasts again.  The CP holds
    both iterates, so it stops by ``linalg.subspace_iteration``'s rule at no
    message cost; ``rounds`` is the cap, and 0 returns the seeded iterate.
    """
    if rounds < 0:
        raise ParameterError("init round count must be nonnegative")
    d = samples[0].d
    touched = [t for t in (S.observed_cols().size for S in samples) if t]
    Y = orthonormal_columns(rng.stream(seed, rng.TAG_DIST_INIT).standard_normal((d, r)))
    ledger.advance_round()
    for t in touched:
        ledger.record(DIR_DOWN, KIND_INIT_Y_BLOCK, t * r)

    def power_round(Y):
        ledger.advance_round()
        folded = np.zeros((d, r))
        for S in samples:  # fixed ascending server id
            csr = S.weighted_csr()
            # the product touches only the server's own Y block: csr has
            # support exactly on (row_set x touched columns)
            folded = folded + csr.T @ (csr @ Y)
        for direction, kind in ((DIR_UP, KIND_INIT_Y_PARTIAL), (DIR_DOWN, KIND_INIT_Y_BLOCK)):
            for t in touched:
                ledger.record(direction, kind, t * r)
        return orthonormal_columns(folded)

    return subspace_iteration(power_round, Y, r, rounds)


def dist_waltmin_round(
    samples: list[SampleSet], V_current: np.ndarray, ledger: CommLedger
) -> tuple[list[np.ndarray], np.ndarray]:
    """One alternating round: local row updates, then the column update at CP.

    Every server solves the weighted LS problems for its own rows (nothing is
    sent for that), uploads per touched column a z vector in R^r and the
    packed upper triangle of its symmetric B block, r (r + 1) / 2 reals, and
    receives back its block of the new right factor.  The CP folds the
    servers' symmetric blocks in ascending server id, which adds the uploaded
    triangle entries in the same order as folding the triangles and mirroring
    the sum once.  The CP scales the row solves' floor to the left factor,
    which is never orthonormalized.  Returns the per-server row factors and
    the new right factor at the CP.
    """
    d, r = V_current.shape
    touched = [S.observed_cols().size for S in samples]
    ledger.advance_round()
    u_blocks = []
    z_total = np.zeros((d, r))
    b_total = np.zeros((d, r, r))
    for S, t in zip(samples, touched):  # fixed ascending server id
        u_local = als_half_step(V_current, S.by_row())
        u_blocks.append(u_local)
        b_k, z_k = S.by_col().normal_equations(u_local)
        z_total = z_total + z_k
        b_total = b_total + b_k
        if t:
            ledger.record(DIR_UP, KIND_Z_AND_B, t * (r + r * (r + 1) // 2))
    # each B_j is near U^T U, which the stack's mean estimates: a floor scaled by
    # its least eigenvalue is the rule of an orthonormal U, and V scales with M
    gram_floor = np.linalg.eigvalsh(b_total.mean(axis=0))[0]
    V_new = pseudo_solve_spd_batch(b_total, z_total, eig_floor=LS_EIG_FLOOR * gram_floor)
    for t in touched:
        if t:
            ledger.record(DIR_DOWN, KIND_V_ROWS_BLOCK, t * r)
    return u_blocks, V_new


def run_distpca(
    M: DenseMatrix,
    s: int,
    r: int,
    m: int,
    iterations: int,
    init_rounds: int = 10,
    seed: int = 0,
    policy: str = "contiguous",
) -> tuple[Factorization, CommLedger]:
    """Full distributed pipeline; returns the factorization and the ledger.

    ``init_rounds`` only caps ``dist_init``, which stops once Y settles, and
    ``iterations`` only caps the alternating rounds.  The CP orthonormalizes
    each round's V, at no message cost since it holds V, and the next round's
    row solves take that orthonormal V; the rounds stop by
    ``linalg.subspace_iteration``'s rule once a round moves it by at most
    ``SVD_STEP_TOL``.  The returned pair is the last round's: its row factors
    and its raw V.  The left factor is gathered across servers for auditing
    only; that gather is not a protocol message and is excluded from the
    ledger.
    """
    if r < 1 or r > min(M.n_rows, M.n_cols):
        raise ParameterError("rank must lie in [1, min(n, d)]")
    if iterations < 1:
        raise ParameterError("iteration count must be at least 1")
    shards = partition_rows(M, s, policy=policy, seed=seed)
    ledger = CommLedger()
    dist_sample(shards, m, ledger, seed=seed)
    samples = [sh.local_samples for sh in shards]
    u_blocks = V = None

    def alternate(V_hat):
        nonlocal u_blocks, V
        u_blocks, V = dist_waltmin_round(samples, V_hat, ledger)
        return orthonormal_columns(V)

    subspace_iteration(alternate, dist_init(samples, r, init_rounds, ledger, seed=seed), r, iterations)
    U = np.zeros((M.n_rows, r))
    for sh, block in zip(shards, u_blocks):
        U[sh.row_set] = block
    return Factorization(U, V), ledger
