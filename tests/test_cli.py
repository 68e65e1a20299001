import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse

import lela
import lela.cli as cli
from lela import (
    DenseMatrix,
    Factorization,
    ParameterError,
    load_factorization,
    read_matrix,
    save_factorization,
)
from lela.cli import main
from oracles import write_matrix


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_defaults_mirror_reported_protocol():
    parser = cli.build_parser()
    args = parser.parse_args(["bench"])
    assert args.iters == 15
    assert args.trials == 20
    assert args.rank == 5
    assert args.noise_list == "0.01,0.05,0.1"


def test_lela_synthetic_run_and_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main([
        "lela", "--n", "24", "--d", "20", "--rank", "2", "--m", "400",
        "--iters", "3", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "passes over M: 2" in text
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header == "algorithm,rank,m,iters,seed,spectral_err,fro_err"


def test_parameter_error_exit_code():
    code = main(["lela", "--n", "10", "--d", "10", "--rank", "0", "--m", "40"])
    assert code == cli.EXIT_PARAMETER


def test_degenerate_input_exit_code(tmp_path):
    path = tmp_path / "zero.mtx"
    write_matrix(path, DenseMatrix(np.zeros((4, 4))))
    code = main(["lela", "--matrix", str(path), "--rank", "2", "--m", "40"])
    assert code == cli.EXIT_DEGENERATE


@pytest.mark.parametrize(
    "argv",
    [
        ["lela", "--matrix", "{tmp}/big.mtx"],
        ["lela", "--matrix", "{tmp}/big.mtx", "--mode", "bernoulli"],
        ["covariance", "--matrix", "{tmp}/big.mtx"],
        ["distpca", "--matrix", "{tmp}/big.mtx"],
        # the L1 mass |M|_1,1 overflows too
        ["lela", "--matrix", "{tmp}/huge.mtx"],
        ["lela", "--matrix", "{tmp}/huge.mtx", "--mode", "bernoulli"],
        ["covariance", "--matrix", "{tmp}/huge.mtx"],
        ["distpca", "--matrix", "{tmp}/huge.mtx"],
        # each factor's norm is finite, the bound |A|_F^2 |B|_F^2 on the product's is not
        ["product", "--matrix", "{tmp}/a.mtx", "--matrix-b", "{tmp}/b.mtx"],
    ],
)
def test_overflowing_squared_norm_is_degenerate_input(tmp_path, capsys, argv):
    g = np.random.default_rng(4)
    # finite entries whose squares overflow
    write_matrix(tmp_path / "big.mtx", DenseMatrix(1e160 * (1.0 + g.random((30, 20)))))
    write_matrix(tmp_path / "huge.mtx", DenseMatrix(np.full((100, 100), 1e305)))
    write_matrix(tmp_path / "a.mtx", DenseMatrix(1e80 * (1.0 + g.random((30, 20)))))
    write_matrix(tmp_path / "b.mtx", DenseMatrix(1e80 * (1.0 + g.random((20, 30)))))
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--rank", "2", "--m", "300", "--iters", "2"]
    assert main(argv) == cli.EXIT_DEGENERATE
    err = capsys.readouterr().err
    assert err.startswith("degenerate input: ") and "overflows" in err


def test_bench_records_overflowing_noise_as_error_rows(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main([
        "bench", "--n", "40", "--d", "30", "--rank", "2", "--noise-list", "1e300",
        "--m-list", "640", "--trials", "2", "--iters", "2", "--algorithms", "lela,distpca",
        "--out", str(out),
    ])
    assert code == 0
    statuses = [line.split(",")[-1] for line in out.read_text().splitlines()[1:]]
    assert statuses == ["error:DegenerateInputError"] * 4


def test_bench_refuses_a_covariance_instance_whose_gram_overflows(tmp_path):
    # its truth squares Y's singular values, which would overflow under -W error
    out = tmp_path / "bench.csv"
    code = main([
        "bench", "--n", "40", "--d", "30", "--rank", "2", "--trials", "1", "--iters", "2",
        "--m-list", "640", "--noise-list", "1e300", "--algorithms", "covariance-direct",
        "--out", str(out),
    ])
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert [line.split(",")[-1] for line in rows] == ["error:DegenerateInputError"]


def test_env_var_seed(monkeypatch, capsys):
    monkeypatch.setenv("LELA_SEED", "41")
    code = main(["lela", "--n", "16", "--d", "12", "--rank", "2", "--m", "150", "--iters", "2"])
    assert code == 0
    monkeypatch.setenv("LELA_SEED", "not-an-int")
    code = main(["lela", "--n", "16", "--d", "12", "--rank", "2", "--m", "150"])
    assert code == cli.EXIT_PARAMETER


def test_matrix_roundtrip_array_and_coordinate(tmp_path):
    arr = np.random.default_rng(0).standard_normal((6, 4))
    dense_path = tmp_path / "dense.mtx"
    write_matrix(dense_path, DenseMatrix(arr))
    back = read_matrix(dense_path)
    assert np.allclose(back.data, arr, atol=1e-12)

    import scipy.io
    import scipy.sparse

    coo_path = tmp_path / "sparse.mtx"
    sparse = scipy.sparse.random(8, 5, density=0.4, random_state=1)
    scipy.io.mmwrite(coo_path, sparse)
    loaded = read_matrix(coo_path)
    assert loaded.shape == (8, 5)
    assert np.allclose(loaded.data, sparse.toarray(), atol=1e-12)


def test_factorization_roundtrip(tmp_path):
    g = np.random.default_rng(1)
    F = Factorization(g.standard_normal((7, 2)), g.standard_normal((5, 2)))
    prefix = tmp_path / "fact"
    save_factorization(prefix, F, {"iterations": 4, "seed": 3})
    G, meta = load_factorization(prefix)
    assert np.allclose(F.u, G.u, atol=1e-12)
    assert np.allclose(F.v, G.v, atol=1e-12)
    assert meta["iterations"] == 4
    assert meta["r"] == 2


@pytest.mark.parametrize(
    "suffix, text",
    [
        (".u.mtx", None),  # missing
        (".meta.json", "{not json"),
        (".meta.json", '{"d": 3, "r": 2}'),  # no "n"
        (".meta.json", "[4, 3, 2]"),  # not an object
    ],
)
def test_unreadable_factorization_is_parameter_error(tmp_path, suffix, text):
    # refused as read_matrix refuses a file it cannot read
    prefix = tmp_path / "fact"
    save_factorization(prefix, Factorization(np.ones((4, 2)), np.ones((3, 2))))
    damaged = tmp_path / ("fact" + suffix)
    if text is None:
        damaged.unlink()
    else:
        damaged.write_text(text)
    with pytest.raises(ParameterError):
        load_factorization(prefix)


@pytest.mark.parametrize("field, value", [("n", 5), ("d", 4), ("r", 1)])
def test_factorization_disagreeing_with_its_metadata_is_parameter_error(tmp_path, field, value):
    prefix = tmp_path / "fact"
    save_factorization(prefix, Factorization(np.ones((4, 2)), np.ones((3, 2))))
    meta = tmp_path / "fact.meta.json"
    meta.write_text(json.dumps({**json.loads(meta.read_text()), field: value}))
    with pytest.raises(ParameterError, match="disagree with their metadata"):
        load_factorization(prefix)


def test_coordinate_format_factor_is_densified(tmp_path):
    # a factor written from a sparse matrix loads as read_matrix reads it
    g = np.random.default_rng(2)
    F = Factorization(g.standard_normal((6, 2)), g.standard_normal((4, 2)))
    prefix = tmp_path / "fact"
    save_factorization(prefix, F)
    u = F.u.copy()
    u[[1, 4]] = 0.0
    scipy.io.mmwrite(str(prefix) + ".u.mtx", scipy.sparse.coo_matrix(u))
    G, _ = load_factorization(prefix)
    assert np.allclose(G.u, u, atol=1e-12)
    assert np.allclose(G.v, F.v, atol=1e-12)


def test_lela_save_factors(tmp_path):
    prefix = tmp_path / "factors"
    code = main([
        "lela", "--n", "18", "--d", "14", "--rank", "2", "--m", "250", "--iters", "2",
        "--seed", "3", "--save-factors", str(prefix),
    ])
    assert code == 0
    F, meta = load_factorization(prefix)
    assert F.shape == (18, 14)
    assert meta["m"] == 250


@pytest.mark.parametrize(
    "argv, n",
    [
        (["lela", "--n", "18", "--d", "14"], 18),
        (["product", "--n", "30"], 30),  # A @ B is n x n
        (["covariance", "--n", "20", "--d", "8"], 20),
    ],
)
def test_default_budget_is_8_n_r(tmp_path, argv, n):
    # without --m each command samples 8 n r entries and records that budget
    prefix = tmp_path / "factors"
    code = main(argv + ["--rank", "2", "--iters", "2", "--save-factors", str(prefix)])
    assert code == 0
    _, meta = load_factorization(prefix)
    assert meta["m"] == 8 * n * 2


def test_product_subcommand(capsys):
    code = main([
        "product", "--n", "30", "--rank", "2", "--m", "1500", "--iters", "4",
        "--seed", "5", "--baseline",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "direct error vs exact product" in out
    assert "stagewise error vs exact product" in out


def test_covariance_subcommand(capsys):
    code = main([
        "covariance", "--n", "20", "--d", "8", "--rank", "2", "--m", "2000",
        "--iters", "3", "--seed", "6",
    ])
    assert code == 0
    assert "spectral asymmetry" in capsys.readouterr().out


def test_covariance_spectral_asymmetry_matches_dense(tmp_path, capsys):
    # a lean budget, so the two factors differ and the asymmetry is not ~0
    prefix = tmp_path / "cov"
    code = main([
        "covariance", "--n", "30", "--d", "10", "--rank", "2", "--m", "300",
        "--iters", "2", "--noise", "0.5", "--seed", "6", "--save-factors", str(prefix),
    ])
    assert code == 0
    label = "spectral asymmetry of the output: "
    printed = float(capsys.readouterr().out.split(label)[1].split()[0])
    F, _ = load_factorization(prefix)
    P = F.u @ F.v.T
    assert printed > 1e-3
    assert abs(printed - np.linalg.norm(P - P.T, 2)) <= 1e-10


def test_distpca_subcommand_with_config_and_ledger(tmp_path, capsys):
    conf = tmp_path / "scenario.cfg"
    conf.write_text(
        "# scenario\nn=24\nd=16\ns=3\nr=2\nm=300\nT=2\nseed=11\npartition=round-robin\n"
    )
    ledger_csv = tmp_path / "ledger.csv"
    code = main(["distpca", "--config", str(conf), "--ledger-csv", str(ledger_csv)])
    assert code == 0
    out = capsys.readouterr().out
    assert "servers: 3" in out
    assert "partition: round-robin" in out
    assert ledger_csv.read_text().splitlines()[0] == "round,direction,kind,reals"


def test_scenario_init_rounds_key_is_refused(tmp_path, capsys):
    conf = tmp_path / "scenario.cfg"
    conf.write_text("n=24\nd=16\ninit_rounds=3\n")
    assert main(["distpca", "--config", str(conf)]) == cli.EXIT_PARAMETER
    assert capsys.readouterr().err.startswith("parameter error: unknown scenario key 'init_rounds'")


def test_bench_subcommand_tiny(tmp_path):
    out = tmp_path / "bench.csv"
    code = main([
        "bench", "--n", "20", "--d", "20", "--rank", "2", "--alpha", "0",
        "--noise-list", "0.05", "--m-list", "160", "--trials", "1", "--iters", "2",
        "--seed", "1", "--algorithms", "lela", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2


def test_product_requires_second_matrix(tmp_path):
    arr = np.eye(4)
    path = tmp_path / "a.mtx"
    write_matrix(path, DenseMatrix(arr))
    code = main(["product", "--matrix", str(path), "--rank", "1", "--m", "10"])
    assert code == cli.EXIT_PARAMETER


@pytest.mark.parametrize(
    "argv",
    [
        ["distpca", "--config", "{tmp}/bad.conf"],
        ["distpca", "--config", "{tmp}/missing.conf"],
        ["lela", "--matrix", "{tmp}/missing.mtx"],
        ["bench", "--noise-list", "0.1,x"],
        ["bench", "--m-list", "10,y"],
        ["lela", "--save-factors", "{tmp}/missing/f"],
        ["lela", "--out", "{tmp}/missing/run.csv"],
        ["distpca", "--ledger-csv", "{tmp}/missing/ledger.csv"],
        ["lela", "--matrix", "{tmp}/big.mtx", "--rank", "2", "--oracle"],
        ["distpca", "--matrix", "{tmp}/big.mtx", "--rank", "2", "--oracle"],
        ["distpca", "--config", "{tmp}/servers.conf"],
        ["distpca", "--config", "{tmp}/partition.conf"],
        # synthetic-instance settings next to --matrix, which they cannot affect
        ["lela", "--matrix", "{tmp}/m30.mtx", "--n", "500", "--d", "7", "--alpha", "2",
         "--noise", "5", "--rank", "2", "--m", "300", "--iters", "2"],
        ["lela", "--matrix", "{tmp}/m30.mtx", "--noise", "0", "--rank", "2"],
        ["covariance", "--matrix", "{tmp}/m30.mtx", "--n", "500", "--rank", "2"],
        ["covariance", "--matrix", "{tmp}/m30.mtx", "--alpha", "1", "--rank", "2"],
        ["distpca", "--matrix", "{tmp}/m30.mtx", "--d", "7", "--rank", "2"],
        ["distpca", "--matrix", "{tmp}/m30.mtx", "--config", "{tmp}/n.conf"],
        ["product", "--matrix", "{tmp}/m30.mtx", "--matrix-b", "{tmp}/m30t.mtx", "--n", "30"],
        ["product", "--matrix-b", "{tmp}/m30t.mtx", "--rank", "2"],
        # mmread would drop the imaginary parts
        ["lela", "--matrix", "{tmp}/complex.mtx", "--rank", "1"],
        # the adversarial product needs n >= 2r
        ["product", "--n", "3", "--rank", "2"],
        # no algorithm left after the commas are split off
        ["bench", "--algorithms", ","],
        # a dense 10^6 x 10^6 copy cannot be allocated; refused from the header
        ["lela", "--matrix", "{tmp}/huge.mtx", "--rank", "1"],
        ["covariance", "--matrix", "{tmp}/huge.mtx", "--rank", "1"],
        ["lela", "--matrix", "{tmp}/huge_array.mtx", "--rank", "1"],
        ["distpca", "--matrix", "{tmp}/huge_array.mtx", "--rank", "1"],
        # NaN passes a "< 0" check; gen_powerlaw's SVD then fails to converge
        ["lela", "--n", "50", "--d", "40", "--rank", "3", "--m", "500", "--alpha", "nan"],
        ["lela", "--n", "50", "--d", "40", "--rank", "3", "--m", "500", "--alpha", "inf"],
        ["bench", "--n", "40", "--d", "30", "--rank", "2", "--alpha", "nan"],
        # grid settings that fail in every cell, refused before any work
        ["bench", "--n", "0"],
        ["bench", "--n", "40", "--d", "30", "--rank", "2", "--noise-list", "nan"],
        ["bench", "--n", "40", "--d", "30", "--rank", "2", "--noise-list", "inf"],
        ["bench", "--n", "40", "--d", "30", "--rank", "2", "--noise-list", "-0.1"],
        ["bench", "--n", "40", "--d", "30", "--rank", "2", "--m-list", "0"],
        ["bench", "--n", "40", "--d", "30", "--rank", "2", "--m-list", "99999999999999999999"],
        ["bench", "--n", "40", "--d", "30", "--rank", "0"],
        ["bench", "--n", "40", "--d", "30", "--rank", "31"],
        ["bench", "--n", "40", "--d", "30", "--rank", "2", "--iters", "0"],
        ["bench", "--n", "40", "--d", "30", "--rank", "2", "--servers", "0",
         "--algorithms", "distpca"],
        ["bench", "--n", "40", "--d", "30", "--rank", "2", "--trials", "1", "--servers", "100",
         "--algorithms", "distpca"],
        # NaN passes a "< 0" check too; refused before the noise matrix's SVD
        ["lela", "--n", "50", "--d", "40", "--rank", "2", "--m", "400", "--noise", "nan"],
        ["lela", "--n", "50", "--d", "40", "--rank", "2", "--m", "400", "--noise", "inf"],
        ["covariance", "--n", "50", "--d", "40", "--rank", "2", "--m", "400", "--noise", "nan"],
        ["distpca", "--n", "50", "--d", "40", "--rank", "2", "--m", "400", "--noise", "inf"],
        # k ** 1e308 is infinite from k = 2 on: one nonzero weight cannot plant rank 2
        ["lela", "--n", "30", "--d", "20", "--rank", "2", "--m", "200", "--alpha", "1e308"],
    ],
)
def test_malformed_outside_input_is_parameter_error(tmp_path, capsys, monkeypatch, argv):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started before its input and output paths were checked")

    for name in ("lela", "run_distpca", "run_experiment", "lowrank_product",
                 "lowrank_covariance"):
        monkeypatch.setattr(cli, name, no_run)
    (tmp_path / "bad.conf").write_text("n=abc\n")
    (tmp_path / "servers.conf").write_text("servers=3\n")  # the key is s
    (tmp_path / "partition.conf").write_text("partition=bogus\n")
    (tmp_path / "n.conf").write_text("n=30\nr=2\n")
    arr = np.random.default_rng(3).standard_normal((30, 20))
    write_matrix(tmp_path / "m30.mtx", DenseMatrix(arr))
    write_matrix(tmp_path / "m30t.mtx", DenseMatrix(arr.T))
    # above the oracle size guard, yet quick to write and read
    (tmp_path / "big.mtx").write_text(
        "%%MatrixMarket matrix coordinate real general\n2001 2001 2\n1 1 1.0\n2001 2001 2.0\n"
    )
    (tmp_path / "complex.mtx").write_text(
        "%%MatrixMarket matrix coordinate complex general\n2 2 2\n1 1 1.0 2.0\n2 2 3.0 -1.0\n"
    )
    (tmp_path / "huge.mtx").write_text(
        "%%MatrixMarket matrix coordinate real general\n1000000 1000000 1\n1 1 1.0\n"
    )
    (tmp_path / "huge_array.mtx").write_text(
        "%%MatrixMarket matrix array real general\n1000000 1000000\n1.0\n"
    )
    code = main([a.format(tmp=tmp_path) for a in argv])
    assert code == cli.EXIT_PARAMETER
    assert capsys.readouterr().err.startswith("parameter error: ")
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        # the default multinomial sampler would allocate the m draws
        (["lela", "--n", "50", "--d", "40", "--rank", "3", "--m", "99999999999999999999"],
         cli.EXIT_PARAMETER),
        (["lela", "--n", "50", "--d", "40", "--rank", "3", "--m", "9223372036854775807"],
         cli.EXIT_PARAMETER),
        # the Bernoulli-law paths saturate every cell instead
        (["lela", "--n", "50", "--d", "40", "--rank", "3", "--m", "99999999999999999999",
          "--mode", "bernoulli"], 0),
        (["product", "--n", "20", "--rank", "2", "--m", "99999999999999999999"], 0),
        (["distpca", "--n", "50", "--d", "40", "--rank", "3", "--m", "99999999999999999999"], 0),
    ],
)
def test_huge_budget_is_refused_or_saturates(capsys, argv, code):
    assert main(argv + ["--iters", "2"]) == code
    err = capsys.readouterr().err
    assert err.startswith("parameter error: ") if code else err == ""


@pytest.mark.parametrize("shape", ["0 0", "0 3"])
def test_empty_array_header_is_parameter_error(tmp_path, shape):
    # in a child process: reading such a file with mmread kills the process
    path = tmp_path / "empty.mtx"
    path.write_text(f"%%MatrixMarket matrix array real general\n{shape}\n")
    env = {**os.environ, "PYTHONPATH": str(Path(lela.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "lela.cli", "lela", "--matrix", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == cli.EXIT_PARAMETER
    assert proc.stderr.startswith("parameter error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["product", "--d", "10"],
        ["product", "--alpha", "1"],
        ["product", "--noise", "0.1"],
        ["product", "--out", "p.csv"],
        ["covariance", "--out", "c.csv"],
        ["distpca", "--out", "d.csv"],
        ["bench", "--matrix", "/nonexistent.mtx"],
        ["bench", "--m", "100"],
        ["bench", "--l", "10"],
        ["bench", "--noise", "0.1"],
        ["lela", "--l", "10"],
        # the init stops when its iterate settles; no flag sets its round count
        ["distpca", "--init-rounds", "3"],
        ["bench", "--n", "40", "--d", "30", "--rank", "2", "--trials", "1", "--init-rounds",
         "-1", "--algorithms", "distpca"],
    ],
)
def test_flag_a_subcommand_ignores_is_refused(monkeypatch, argv):
    def no_run(*args, **kwargs):
        raise AssertionError("an ignored flag was accepted and the run started")

    for name in ("lowrank_product", "lowrank_covariance", "run_distpca", "run_experiment"):
        monkeypatch.setattr(cli, name, no_run)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_writers_refuse_missing_directory(tmp_path):
    with pytest.raises(ParameterError):
        save_factorization(tmp_path / "missing" / "f", Factorization(np.eye(3), np.eye(3)))
    assert not (tmp_path / "missing").exists()
