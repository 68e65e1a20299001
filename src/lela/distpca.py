"""In-process simulation of row-partitioned distributed low-rank approximation.

Servers hold disjoint row blocks of the matrix and talk only to a central
processor (CP).  The protocol has three stages: a stats exchange that lets
every server evaluate the sampling law locally, a power-iteration
initialization of the right factor, and alternating-minimization rounds where
row updates stay on the servers and column updates are assembled at the CP
from per-column (z, B) messages.  Every transfer is recorded in a CommLedger
as a count of real numbers, which is the quantity the communication bound
speaks about; no actual networking is involved.

The sampling law used on this path is

    p(i, j) = min( m * ( (|M^i|^2 + |M_j|^2) / (2 n |M|_F^2)
                         + |M_ij| / |M|_{1,1} ), 1 )

which differs from the single-machine element law (n instead of n + d in the
norm term, and no 1/2 on the L1 term).  Row i draws from the stream
(seed, TAG_DIST_SAMPLE, i) whichever server holds it, so the sample set does
not depend on the partition.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import DegenerateInputError, ParameterError
from .linalg import (
    DenseMatrix,
    Factorization,
    normal_equations,
    orthonormal_columns,
    pseudo_solve_spd_batch,
)
from .sampling import SampleSet, draw_bernoulli_rows

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

# Every solve of the protocol is exact (no eigenvalue floor): the distributed
# run must match its centralized reference to 1e-10, and a floor would let
# fold-order rounding near the threshold keep a direction on one side only.
LS_EIG_FLOOR = 0.0


@dataclass(frozen=True)
class Message:
    """One recorded transfer: a count of real numbers moving in one direction."""

    round: int
    direction: str
    kind: str
    payload_reals: int


class CommLedger:
    """Append-only message log with running totals per kind and per round."""

    def __init__(self):
        self.messages: list[Message] = []
        self.totals_by_kind: dict[str, int] = {}
        self.totals_by_round: dict[int, int] = {}
        self._round = -1

    def advance_round(self) -> int:
        self._round += 1
        return self._round

    @property
    def current_round(self) -> int:
        return self._round

    def record(self, round_no: int, direction: str, kind: str, payload_reals: int) -> None:
        if payload_reals <= 0:
            raise ParameterError("recorded messages must carry a positive payload")
        msg = Message(round_no, direction, kind, int(payload_reals))
        self.messages.append(msg)
        self.totals_by_kind[kind] = self.totals_by_kind.get(kind, 0) + msg.payload_reals
        self.totals_by_round[round_no] = (
            self.totals_by_round.get(round_no, 0) + msg.payload_reals
        )

    def grand_total(self) -> int:
        return sum(m.payload_reals for m in self.messages)

    def verify(self) -> bool:
        """Check the running totals against a recomputation from the log."""
        by_kind: dict[str, int] = {}
        by_round: dict[int, int] = {}
        for m in self.messages:
            by_kind[m.kind] = by_kind.get(m.kind, 0) + m.payload_reals
            by_round[m.round] = by_round.get(m.round, 0) + m.payload_reals
        return by_kind == self.totals_by_kind and by_round == self.totals_by_round

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
    """One server's state: its rows, its samples, and the columns it touches."""

    server_id: int
    row_set: np.ndarray
    local_rows: np.ndarray
    local_samples: SampleSet | None = None
    touched_cols: np.ndarray | None = None

    @property
    def n_local(self) -> int:
        return int(self.row_set.size)


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
    return [
        ServerShard(server_id=k, row_set=g.astype(np.int64), local_rows=M.data[g, :])
        for k, g in enumerate(groups)
    ]


def dist_sample(shards: list[ServerShard], m: int, ledger: CommLedger, seed: int = 0) -> None:
    """Stats exchange plus local sampling; fills each shard in place.

    Per server the ledger gains d reals up (its column norms), one real up
    (its local L1 mass), d + 2 reals down (global column norms, |M|_F, and
    |M|_{1,1}), and one count per touched column for the column lists.
    """
    if m < 1:
        raise ParameterError("sample budget m must be at least 1")
    n = sum(sh.n_local for sh in shards)
    d = shards[0].local_rows.shape[1]
    round_no = ledger.advance_round()
    local_col_sq = []
    local_l1 = []
    for sh in shards:
        local_col_sq.append(np.einsum("ij,ij->j", sh.local_rows, sh.local_rows))
        local_l1.append(float(np.abs(sh.local_rows).sum()))
        ledger.record(round_no, DIR_UP, KIND_COL_NORMS, d)
        ledger.record(round_no, DIR_UP, KIND_STATS_BROADCAST, 1)
    col_sq = np.zeros(d)
    l11 = 0.0
    for sh_col, sh_l1 in zip(local_col_sq, local_l1):  # fixed ascending server id
        col_sq = col_sq + sh_col
        l11 += sh_l1
    fro_sq = float(col_sq.sum())
    if l11 <= 0.0 or fro_sq <= 0.0:
        raise DegenerateInputError("all-zero matrix has no sampling distribution")
    for sh in shards:
        ledger.record(round_no, DIR_DOWN, KIND_STATS_BROADCAST, d + 2)
    for sh in shards:
        rows = sh.local_rows
        row_sq = np.einsum("ij,ij->i", rows, rows)

        def prob_row(k):
            q = m * ((row_sq[k] + col_sq) / (2.0 * n * fro_sq) + np.abs(rows[k]) / l11)
            return np.minimum(q, 1.0)

        sh.local_samples = draw_bernoulli_rows(
            n, d, sh.row_set, prob_row, lambda k, js: rows[k, js], seed, rng.TAG_DIST_SAMPLE
        )
        sh.touched_cols = sh.local_samples.observed_cols()
        if sh.touched_cols.size:
            ledger.record(round_no, DIR_UP, KIND_COL_LISTS, int(sh.touched_cols.size))


def dist_init(
    shards: list[ServerShard], r: int, rounds: int, ledger: CommLedger, seed: int = 0
) -> np.ndarray:
    """Distributed power iteration for the top-r right factor.

    The CP seeds a random d x r iterate, QR-normalizes it, and broadcasts each
    server its touched-column block; every round each server returns the block
    of R^T R applied to the iterate and the CP folds the partial sums in
    ascending server id, re-normalizes, and broadcasts again.  ``rounds`` 0
    returns the seeded iterate after QR.
    """
    if rounds < 0:
        raise ParameterError("init round count must be nonnegative")
    d = shards[0].local_rows.shape[1]
    if any(sh.local_samples is None for sh in shards):
        raise ParameterError("dist_sample must run before dist_init")
    Y = orthonormal_columns(rng.stream(seed, rng.TAG_DIST_INIT).standard_normal((d, r)))
    round_no = ledger.advance_round()
    for sh in shards:
        if sh.touched_cols.size:
            ledger.record(round_no, DIR_DOWN, KIND_INIT_Y_BLOCK, int(sh.touched_cols.size) * r)
    for _ in range(rounds):
        round_no = ledger.advance_round()
        partials = []
        for sh in shards:
            csr = sh.local_samples.weighted_csr()
            # the product touches only the server's own Y block: csr has
            # support exactly on (row_set x touched_cols)
            partials.append(csr.T @ (csr @ Y))
            if sh.touched_cols.size:
                ledger.record(
                    round_no, DIR_UP, KIND_INIT_Y_PARTIAL, int(sh.touched_cols.size) * r
                )
        folded = np.zeros((d, r))
        for z in partials:  # fixed ascending server id
            folded = folded + z
        Y = orthonormal_columns(folded)
        for sh in shards:
            if sh.touched_cols.size:
                ledger.record(
                    round_no, DIR_DOWN, KIND_INIT_Y_BLOCK, int(sh.touched_cols.size) * r
                )
    return Y


def _rows_ls_update(samples: SampleSet, row_ids: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Weighted LS update of the given rows against fixed V (local, no comm)."""
    local_pos = np.searchsorted(row_ids, samples.rows)
    B, z = normal_equations(
        local_pos, V[samples.cols], samples.weights, samples.vals, row_ids.size
    )
    return pseudo_solve_spd_batch(B, z, eig_floor=LS_EIG_FLOOR)


def _column_messages(samples: SampleSet, row_ids: np.ndarray, U_local: np.ndarray, d: int):
    """Per-column (B_j, z_j) partial sums from one server's samples."""
    local_pos = np.searchsorted(row_ids, samples.rows)
    return normal_equations(samples.cols, U_local[local_pos], samples.weights, samples.vals, d)


def dist_waltmin_round(
    shards: list[ServerShard], V_current: np.ndarray, ledger: CommLedger
) -> tuple[list[np.ndarray], np.ndarray]:
    """One alternating round: local row updates, then the column update at CP.

    Every server solves the weighted LS problems for its own rows (nothing is
    sent for that), uploads per touched column a z vector in R^r and a B block
    in R^{r x r}, and receives back its block of the new right factor.
    Returns the per-server row factors and the new right factor at the CP.
    """
    d = V_current.shape[0]
    r = V_current.shape[1]
    round_no = ledger.advance_round()
    u_blocks = []
    z_total = np.zeros((d, r))
    b_total = np.zeros((d, r, r))
    for sh in shards:  # fixed ascending server id
        u_local = _rows_ls_update(sh.local_samples, sh.row_set, V_current)
        u_blocks.append(u_local)
        b_k, z_k = _column_messages(sh.local_samples, sh.row_set, u_local, d)
        z_total = z_total + z_k
        b_total = b_total + b_k
        if sh.touched_cols.size:
            ledger.record(
                round_no, DIR_UP, KIND_Z_AND_B, int(sh.touched_cols.size) * (r + r * r)
            )
    V_new = pseudo_solve_spd_batch(b_total, z_total, eig_floor=LS_EIG_FLOOR)
    for sh in shards:
        if sh.touched_cols.size:
            ledger.record(round_no, DIR_DOWN, KIND_V_ROWS_BLOCK, int(sh.touched_cols.size) * r)
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

    The returned left factor is gathered across servers for auditing only;
    that gather is not a protocol message and is excluded from the ledger.
    """
    if r < 1 or r > min(M.n_rows, M.n_cols):
        raise ParameterError("rank must lie in [1, min(n, d)]")
    if iterations < 1:
        raise ParameterError("iteration count must be at least 1")
    shards = partition_rows(M, s, policy=policy, seed=seed)
    ledger = CommLedger()
    dist_sample(shards, m, ledger, seed=seed)
    V = dist_init(shards, r, init_rounds, ledger, seed=seed)
    u_blocks: list[np.ndarray] = []
    for _ in range(iterations):
        u_blocks, V = dist_waltmin_round(shards, V, ledger)
    U = np.zeros((M.n_rows, r))
    for sh, block in zip(shards, u_blocks):
        U[sh.row_set] = block
    return Factorization(U, V), ledger
