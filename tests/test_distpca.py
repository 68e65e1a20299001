import numpy as np
import pytest

import lela.sampling as lela_sampling
from lela import (
    CommLedger,
    DegenerateInputError,
    DenseMatrix,
    ParameterError,
    communication_bound,
    run_distpca,
)
from lela.distpca import (
    DIR_DOWN,
    DIR_UP,
    KIND_COL_LISTS,
    KIND_COL_NORMS,
    KIND_INIT_Y_BLOCK,
    KIND_INIT_Y_PARTIAL,
    KIND_STATS_BROADCAST,
    KIND_V_ROWS_BLOCK,
    KIND_Z_AND_B,
    PARTITION_POLICIES,
    dist_init,
    dist_sample,
    dist_waltmin_round,
    partition_rows,
)
from lela.linalg import Grouping, orthonormal_columns
from lela.sampling import SampleSet
from lela import rng as lrng
from oracles import (
    centralized_init,
    centralized_reference,
    centralized_sample,
    coo_sample_set,
    cp_column_solve,
    row_ids,
    total_samples,
)


def make_matrix(n, d, seed):
    return DenseMatrix(np.random.default_rng(seed).standard_normal((n, d)))


def init_rounds_run(ledger, before):
    """The init rounds whose partial sums the messages after ``before`` carry."""
    return {m.round for m in ledger.messages[before:] if m.kind == KIND_INIT_Y_PARTIAL}


def sampled_shards(M, s, m, seed=0, policy="contiguous"):
    shards = partition_rows(M, s, policy=policy, seed=seed)
    ledger = CommLedger()
    dist_sample(shards, m, ledger, seed=seed)
    return shards, ledger


def samples_of(shards):
    """The servers' sample sets, as run_distpca hands them to the stages."""
    return [sh.local_samples for sh in shards]


def test_partition_single_server():
    M = make_matrix(7, 4, 0)
    shards = partition_rows(M, 1)
    assert len(shards) == 1
    assert shards[0].row_set.tolist() == list(range(7))


def test_partition_contiguous_fixed_layout():
    M = make_matrix(10, 3, 1)
    shards = partition_rows(M, 3, policy="contiguous")
    assert [sh.row_set.tolist() for sh in shards] == [
        [0, 1, 2, 3],
        [4, 5, 6],
        [7, 8, 9],
    ]


def test_partition_round_robin_and_random_cover():
    M = make_matrix(11, 3, 2)
    for policy in ("round-robin", "seeded-random"):
        shards = partition_rows(M, 4, policy=policy, seed=5)
        rows = np.concatenate([sh.row_set for sh in shards])
        assert sorted(rows.tolist()) == list(range(11))
        for sh in shards:
            assert np.all(np.diff(sh.row_set) > 0)  # sorted row sets


def test_partition_seeded_random_deterministic():
    M = make_matrix(9, 2, 3)
    a = partition_rows(M, 3, policy="seeded-random", seed=7)
    b = partition_rows(M, 3, policy="seeded-random", seed=7)
    assert all(x.row_set.tolist() == y.row_set.tolist() for x, y in zip(a, b))


def test_partition_too_many_servers():
    with pytest.raises(ParameterError):
        partition_rows(make_matrix(3, 2, 4), 4)


def test_dist_sample_single_server_matches_centralized_law():
    M = make_matrix(20, 12, 5)
    shards, _ = sampled_shards(M, 1, 60, seed=9)
    S = centralized_sample(M, 60, seed=9)
    local = shards[0].local_samples
    assert np.array_equal(shards[0].row_set[row_ids(local)], row_ids(S))
    assert np.array_equal(local.cols, S.cols)
    assert np.array_equal(local.vals, S.vals)
    # weights agree to rounding (the shard computes its stats on a row copy)
    assert np.allclose(local.weights, S.weights, rtol=1e-12, atol=0.0)


def test_dist_sample_identical_omega_across_server_counts():
    # each row's stream is keyed by its global row id, so the partition moves
    # no sample, no value and (up to the fold order of the stats) no weight
    M = make_matrix(24, 10, 6)
    omegas, unions = [], []
    for s in (1, 2, 4):
        shards, _ = sampled_shards(M, s, 80, seed=4)
        parts = [np.concatenate([sh.row_set[row_ids(sh.local_samples)] for sh in shards])] + [
            np.concatenate([getattr(sh.local_samples, f) for sh in shards])
            for f in ("cols", "vals", "weights")
        ]
        order = np.lexsort((parts[1], parts[0]))
        omegas.append([a[order] for a in parts])
        # contiguous shards hold consecutive rows, so their sets join with no
        # sort: each row pointer is offset by the entries before it
        indptr, before = [shards[0].local_samples.indptr[:1]], 0
        for sh in shards:
            indptr.append(sh.local_samples.indptr[1:] + before)
            before += sh.local_samples.size
        unions.append([np.concatenate(indptr)] + parts[1:])
    rows0, cols0, vals0, weights0 = omegas[0]
    for rows, cols, vals, weights in omegas[1:]:
        assert np.array_equal(rows, rows0)
        assert np.array_equal(cols, cols0)
        assert np.array_equal(vals, vals0)
        assert np.allclose(weights, weights0, rtol=1e-12, atol=0.0)
    one = unions[0]
    for union in unions[1:]:
        for x, y in zip(union[:3], one[:3]):  # indptr, cols and vals
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        assert np.allclose(union[3], one[3], rtol=1e-12, atol=0.0)


def test_dist_sample_step1_upload_is_sd_reals():
    M = make_matrix(30, 14, 7)
    for s in (2, 5):
        _, ledger = sampled_shards(M, s, 100, seed=1)
        up_col_norms = sum(
            msg.payload_reals
            for msg in ledger.messages
            if msg.kind == KIND_COL_NORMS and msg.direction == DIR_UP
        )
        assert up_col_norms == s * 14
        down_stats = sum(
            msg.payload_reals
            for msg in ledger.messages
            if msg.kind == KIND_STATS_BROADCAST and msg.direction == DIR_DOWN
        )
        assert down_stats == s * (14 + 2)


def test_dist_sample_disjoint_across_shards():
    M = make_matrix(18, 8, 8)
    shards, _ = sampled_shards(M, 3, 50, seed=2)
    seen = set()
    for sh in shards:
        local = sh.local_samples
        assert local.n == sh.row_set.size
        for i, j in zip(sh.row_set[row_ids(local)], local.cols):
            assert (i, j) not in seen
            seen.add((i, j))
        assert sorted(set(local.cols.tolist())) == local.observed_cols().tolist()


def test_dist_sample_all_zero_matrix_degenerate():
    M = DenseMatrix(np.zeros((6, 4)))
    shards = partition_rows(M, 2)
    with pytest.raises(DegenerateInputError):
        dist_sample(shards, 10, CommLedger(), seed=0)


def test_dist_sample_refuses_column_norms_that_overflow_once_folded():
    # each server's column norms are finite; their sum at the CP is not
    M = DenseMatrix(np.full((2, 3), 1.2e154))
    with pytest.raises(DegenerateInputError, match="overflows"):
        dist_sample(partition_rows(M, 2), 10, CommLedger(), seed=0)


def test_dist_init_zero_rounds_is_seeded_qr():
    M = make_matrix(16, 9, 9)
    shards, ledger = sampled_shards(M, 2, 70, seed=3)
    Y = dist_init(samples_of(shards), 3, 0, ledger, seed=3)
    expected = orthonormal_columns(
        lrng.stream(3, lrng.TAG_DIST_INIT).standard_normal((9, 3))
    )
    assert np.array_equal(Y, expected)


def test_dist_init_matches_centralized_power_iteration():
    # a Gaussian matrix has no gap at r = 2, so the cap of 5 rounds binds
    M = make_matrix(22, 11, 10)
    for s in (1, 3):
        shards, ledger = sampled_shards(M, s, 90, seed=6)
        before = len(ledger.messages)
        Y = dist_init(samples_of(shards), 2, 5, ledger, seed=6)
        assert len(init_rounds_run(ledger, before)) == 5
        S = centralized_sample(M, 90, seed=6)
        csr = S.weighted_csr()
        Yc = orthonormal_columns(lrng.stream(6, lrng.TAG_DIST_INIT).standard_normal((11, 2)))
        for _ in range(5):
            Yc = orthonormal_columns(csr.T @ (csr @ Yc))
        assert np.abs(Y - Yc).max() <= 1e-10


def test_dist_init_stops_before_its_cap_on_a_gapped_instance():
    # rank 2 with singular values 2 and 1 plus small noise: Y settles in a
    # few rounds, and the CP stops there with no further message
    g = np.random.default_rng(31)
    P = np.linalg.qr(g.standard_normal((40, 2)))[0]
    Q = np.linalg.qr(g.standard_normal((20, 2)))[0]
    M = DenseMatrix(P @ np.diag([2.0, 1.0]) @ Q.T + 0.01 * g.standard_normal((40, 20)) / 40**0.5)
    cap, r = 50, 2
    Yc, rounds = centralized_init(centralized_sample(M, 400, seed=5), r, cap, seed=5)
    assert 1 < rounds < cap
    for s in (1, 3):
        shards, ledger = sampled_shards(M, s, 400, seed=5)
        before = len(ledger.messages)
        Y = dist_init(samples_of(shards), r, cap, ledger, seed=5)
        assert len(init_rounds_run(ledger, before)) == rounds
        touched = sum(sh.local_samples.observed_cols().size for sh in shards)
        partial = ledger.totals_by_kind[KIND_INIT_Y_PARTIAL]
        assert partial == rounds * touched * r
        assert np.abs(Y - Yc).max() <= 1e-10


def test_dist_init_keeps_its_width_r_stop_past_a_near_tie():
    # s_3 / s_2 = 0.8 in M: an iterate of width r = 2 settles at (s_3/s_2)^2
    # per round, so its stop comes late; dist_init passes topk_svd's loop its
    # own width and stops at the oracle's round, not at an oversampled one
    g = np.random.default_rng(32)
    P = np.linalg.qr(g.standard_normal((40, 3)))[0]
    Q = np.linalg.qr(g.standard_normal((20, 3)))[0]
    M = DenseMatrix(
        P @ np.diag([2.0, 1.0, 0.8]) @ Q.T + 0.01 * g.standard_normal((40, 20)) / 40**0.5
    )
    cap, r = 50, 2
    Yc, rounds = centralized_init(centralized_sample(M, 400, seed=5), r, cap, seed=5)
    assert 20 < rounds < cap
    for s in (1, 4):
        shards, ledger = sampled_shards(M, s, 400, seed=5)
        before = len(ledger.messages)
        Y = dist_init(samples_of(shards), r, cap, ledger, seed=5)
        assert len(init_rounds_run(ledger, before)) == rounds
        assert np.abs(Y - Yc).max() <= 1e-10


def test_dist_init_ledger_per_round():
    M = make_matrix(20, 10, 11)
    shards, ledger = sampled_shards(M, 4, 80, seed=7)
    r = 3
    rounds = 4
    before = len(ledger.messages)
    dist_init(samples_of(shards), r, rounds, ledger, seed=7)
    msgs = ledger.messages[before:]
    expected_per_round = sum(sh.local_samples.observed_cols().size for sh in shards) * r
    init_rounds = sorted({m.round for m in msgs})
    first = init_rounds[0]
    # initial broadcast round carries only down blocks
    down0 = sum(m.payload_reals for m in msgs if m.round == first and m.kind == KIND_INIT_Y_BLOCK)
    assert down0 == expected_per_round
    for rnd in init_rounds[1:]:
        ups = sum(m.payload_reals for m in msgs if m.round == rnd and m.kind == KIND_INIT_Y_PARTIAL)
        downs = sum(m.payload_reals for m in msgs if m.round == rnd and m.kind == KIND_INIT_Y_BLOCK)
        assert ups == expected_per_round
        assert downs == expected_per_round
        assert ups + downs == 2 * expected_per_round


def test_dist_round_z_and_b_payload_counts():
    M = make_matrix(20, 15, 12)
    shards, ledger = sampled_shards(M, 4, 120, seed=8)
    r = 3
    V = dist_init(samples_of(shards), r, 2, ledger, seed=8)
    before = len(ledger.messages)
    dist_waltmin_round(samples_of(shards), V, ledger)
    msgs = ledger.messages[before:]
    for k, sh in enumerate(shards):
        # z plus B's packed upper triangle per touched column
        expected = sh.local_samples.observed_cols().size * (r + r * (r + 1) // 2)
        got = [
            m.payload_reals
            for m in msgs
            if m.kind == KIND_Z_AND_B and m.payload_reals == expected
        ]
        assert got, f"missing z-and-B message for server {k}"
    v_down = sum(m.payload_reals for m in msgs if m.kind == KIND_V_ROWS_BLOCK)
    assert v_down == sum(sh.local_samples.observed_cols().size for sh in shards) * r


def test_cp_solves_exactly_the_triangles_the_ledger_counts():
    # folding the servers' symmetric B blocks adds the uploaded triangle
    # entries in the same order as folding the triangles and mirroring once
    M = make_matrix(40, 18, 31)
    for s in (1, 2, 4):
        for policy in PARTITION_POLICIES:
            shards, ledger = sampled_shards(M, s, 200, seed=31, policy=policy)
            samples = samples_of(shards)
            V = dist_init(samples, 3, 3, ledger, seed=31)
            u_blocks, V_new = dist_waltmin_round(samples, V, ledger)
            assert np.array_equal(V_new, cp_column_solve(samples, u_blocks)), (s, policy)


def test_dist_round_single_server_matches_centralized():
    M = make_matrix(18, 9, 13)
    F, _ = run_distpca(M, 1, 2, 70, 3, init_rounds=4, seed=5)
    C = centralized_reference(M, 2, 70, 3, init_rounds=4, seed=5)
    assert np.abs(F.u - C.u).max() <= 1e-10
    assert np.abs(F.v - C.v).max() <= 1e-10


def test_one_layout_per_shard_over_a_run(monkeypatch):
    M = make_matrix(24, 13, 24)
    shards = partition_rows(M, 3)
    ledger = CommLedger()
    built = []

    def counted_grouping(w, wy):
        built.append((w.format, w.shape))
        return Grouping(w, wy)

    monkeypatch.setattr(lela_sampling, "Grouping", counted_grouping)
    dist_sample(shards, 120, ledger, seed=4)
    V = dist_init(samples_of(shards), 2, 3, ledger, seed=4)
    for _ in range(3):
        _, V = dist_waltmin_round(samples_of(shards), V, ledger)
    # one by-row CSR pair per shard; each column upload wraps its CSC transposes
    shapes = [(sh.row_set.size, 13) for sh in shards]
    assert sorted(s for f, s in built if f == "csr") == sorted(shapes)
    assert sorted(s for f, s in built if f == "csc") == sorted([s[::-1] for s in shapes] * 3)


def test_disjoint_touched_columns_aggregation_is_copy():
    # two servers whose samples touch disjoint column sets: the CP solution
    # for each column must equal the single-server solve
    n, d, r = 6, 6, 2
    arr = np.random.default_rng(14).standard_normal((n, d))
    # rows are local: server 0 holds rows 0-2 and server 1 rows 3-5
    S0 = coo_sample_set(3, d, [0, 1, 2, 0], [0, 1, 2, 1], arr[[0, 1, 2, 0], [0, 1, 2, 1]], np.ones(4))
    S1 = coo_sample_set(3, d, [0, 1, 2, 1], [3, 4, 5, 5], arr[[3, 4, 5, 4], [3, 4, 5, 5]], np.ones(4))
    ledger = CommLedger()
    V0 = orthonormal_columns(np.random.default_rng(1).standard_normal((d, r)))
    _, V_new = dist_waltmin_round([S0, S1], V0, ledger)
    _, V_only0 = dist_waltmin_round([S0], V0, CommLedger())
    _, V_only1 = dist_waltmin_round([S1], V0, CommLedger())
    assert np.allclose(V_new[[0, 1, 2]], V_only0[[0, 1, 2]], atol=1e-14)
    assert np.allclose(V_new[[3, 4, 5]], V_only1[[3, 4, 5]], atol=1e-14)


def test_round_gives_a_shard_without_samples_zero_rows():
    n, d, r = 6, 5, 2
    arr = np.random.default_rng(15).standard_normal((n, d))
    rows, cols = [0, 0, 1, 1, 2, 2], [0, 1, 2, 3, 4, 0]
    samples = [
        SampleSet(3, d, [0, 0, 0, 0], [], [], []),
        coo_sample_set(3, d, rows, cols, arr[[3 + i for i in rows], cols], np.full(6, 2.0)),
    ]
    V0 = orthonormal_columns(np.random.default_rng(2).standard_normal((d, r)))
    ledger = CommLedger()
    u_blocks, V_new = dist_waltmin_round(samples, V0, ledger)
    assert u_blocks[0].shape == (3, r) and not u_blocks[0].any()
    u_only1, V_only1 = dist_waltmin_round(samples[1:], V0, CommLedger())
    assert np.array_equal(u_blocks[1], u_only1[0])
    assert np.array_equal(V_new, V_only1)
    assert len(ledger.messages) == 2  # the empty shard sends and receives nothing


def test_run_distpca_matches_centralized_multi_server():
    for s, seed in ((2, 21), (4, 22)):
        M = make_matrix(40, 18, seed)
        F, ledger = run_distpca(M, s, 2, 200, 3, init_rounds=4, seed=seed)
        C = centralized_reference(M, 2, 200, 3, init_rounds=4, seed=seed)
        assert np.abs(F.u - C.u).max() <= 1e-10
        assert np.abs(F.v - C.v).max() <= 1e-10
        assert ledger.verify()


def test_run_distpca_rounds_stop_before_a_large_cap():
    # the exact rounds contract fast on a gapped instance: the CP stops once V
    # settles, with no further z-and-B round, and still matches the reference
    g = np.random.default_rng(33)
    P = np.linalg.qr(g.standard_normal((60, 2)))[0]
    Q = np.linalg.qr(g.standard_normal((40, 2)))[0]
    M = DenseMatrix(P @ np.diag([2.0, 1.0]) @ Q.T + 0.01 * g.standard_normal((60, 40)) / 60**0.5)
    cap = 50
    C = centralized_reference(M, 2, 1200, cap, seed=6)
    for s in (1, 2, 3, 4):
        for policy in PARTITION_POLICIES:
            F, ledger = run_distpca(M, s, 2, 1200, cap, seed=6, policy=policy)
            rounds = {msg.round for msg in ledger.messages if msg.kind == KIND_Z_AND_B}
            assert 1 < len(rounds) < cap
            assert np.abs(F.u - C.u).max() <= 1e-10
            assert np.abs(F.v - C.v).max() <= 1e-10
            assert ledger.verify()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"r": 0}, "rank must lie in"),
        ({"r": 7}, "rank must lie in"),  # min(n, d) = 6
        ({"iterations": 0}, "iteration count must be at least 1"),
        ({"m": 0}, "sample budget m must be at least 1"),
        ({"init_rounds": -1}, "init round count must be nonnegative"),
        ({"policy": "by-size"}, "unknown partition policy"),
    ],
)
def test_run_distpca_refuses_bad_parameters(kwargs, message):
    args = {"s": 2, "r": 2, "m": 40, "iterations": 2, **kwargs}
    with pytest.raises(ParameterError, match=message):
        run_distpca(make_matrix(9, 6, 29), **args)


def test_run_distpca_deterministic():
    M = make_matrix(25, 12, 23)
    F1, l1 = run_distpca(M, 3, 2, 100, 2, init_rounds=3, seed=9)
    F2, l2 = run_distpca(M, 3, 2, 100, 2, init_rounds=3, seed=9)
    assert np.array_equal(F1.u, F2.u)
    assert np.array_equal(F1.v, F2.v)
    assert l1.grand_total() == l2.grand_total()
    assert [m.payload_reals for m in l1.messages] == [m.payload_reals for m in l2.messages]


def test_server_id_permutation_leaves_results_unchanged():
    M = make_matrix(30, 14, 24)
    shards, ledger = sampled_shards(M, 3, 150, seed=2)
    Y = dist_init(samples_of(shards), 2, 3, ledger, seed=2)
    u_blocks, V = dist_waltmin_round(samples_of(shards), Y, ledger)

    perm_shards, perm_ledger = sampled_shards(M, 3, 150, seed=2)
    order = [2, 0, 1]
    perm_list = [perm_shards[k].local_samples for k in order]
    Yp = dist_init(perm_list, 2, 3, perm_ledger, seed=2)
    up_blocks, Vp = dist_waltmin_round(perm_list, Yp, perm_ledger)

    assert np.abs(V - Vp).max() <= 1e-10
    for k, orig in enumerate(order):
        assert np.abs(up_blocks[k] - u_blocks[orig]).max() <= 1e-10
    assert perm_ledger.grand_total() == ledger.grand_total()


def test_ledger_totals_and_csv(tmp_path):
    M = make_matrix(20, 10, 25)
    _, ledger = run_distpca(M, 2, 2, 80, 2, init_rounds=2, seed=3)
    assert ledger.verify()
    assert ledger.grand_total() == sum(ledger.totals_by_kind.values())
    ledger.totals_by_kind[KIND_Z_AND_B] += 1
    assert not ledger.verify()
    ledger.totals_by_kind[KIND_Z_AND_B] -= 1
    path = tmp_path / "ledger.csv"
    ledger.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "round,direction,kind,reals"
    assert len(lines) == len(ledger.messages) + 1


def test_ledger_logs_each_stage_in_its_own_round():
    # record() writes into the round the last advance_round() opened
    M = make_matrix(20, 10, 25)
    T = 2
    _, ledger = run_distpca(M, 2, 2, 80, T, init_rounds=3, seed=3)
    kinds = {}
    for msg in ledger.messages:
        kinds.setdefault(msg.round, set()).add(msg.kind)
    last = len(kinds) - 1
    assert list(kinds) == list(range(last + 1))
    assert kinds[0] == {KIND_COL_NORMS, KIND_STATS_BROADCAST, KIND_COL_LISTS}
    assert kinds[1] == {KIND_INIT_Y_BLOCK}
    assert all(kinds[k] == {KIND_INIT_Y_PARTIAL, KIND_INIT_Y_BLOCK} for k in range(2, last - T + 1))
    assert all(kinds[k] == {KIND_Z_AND_B, KIND_V_ROWS_BLOCK} for k in range(last - T + 1, last + 1))
    assert last - T >= 2  # at least one power round ran


def test_ledger_rejects_empty_payload():
    ledger = CommLedger()
    with pytest.raises(ParameterError):
        ledger.record(DIR_UP, KIND_COL_NORMS, 0)


def test_ledger_bound_holds_on_moderate_instance():
    M = make_matrix(60, 30, 26)
    s, r, m, T, init_rounds = 3, 3, 8 * 60 * 3, 3, 4
    F, ledger = run_distpca(M, s, r, m, T, init_rounds=init_rounds, seed=11)
    shards, _ = sampled_shards(M, s, m, seed=11)
    omega = total_samples(shards)
    assert ledger.grand_total() <= communication_bound(30, s, omega, r, init_rounds)


def test_col_lists_payload_matches_touched_columns():
    M = make_matrix(16, 8, 27)
    shards, ledger = sampled_shards(M, 2, 60, seed=12)
    col_list_total = sum(
        msg.payload_reals for msg in ledger.messages if msg.kind == KIND_COL_LISTS
    )
    assert col_list_total == sum(sh.local_samples.observed_cols().size for sh in shards)
