import numpy as np
import pytest

import lela.cli as cli
from lela import (
    DenseMatrix,
    Factorization,
    ParameterError,
    load_factorization,
    read_matrix,
    save_factorization,
    write_matrix,
)
from lela.cli import main


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
    assert "max asymmetry" in capsys.readouterr().out


def test_distpca_subcommand_with_config_and_ledger(tmp_path, capsys):
    conf = tmp_path / "scenario.cfg"
    conf.write_text(
        "# scenario\nn=24\nd=16\ns=3\nr=2\nm=300\nT=2\ninit_rounds=3\nseed=11\npartition=round-robin\n"
    )
    ledger_csv = tmp_path / "ledger.csv"
    code = main(["distpca", "--config", str(conf), "--ledger-csv", str(ledger_csv)])
    assert code == 0
    out = capsys.readouterr().out
    assert "servers: 3" in out
    assert "partition: round-robin" in out
    assert ledger_csv.read_text().splitlines()[0] == "round,direction,kind,reals"


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


def test_write_matrix_coordinate_roundtrip(tmp_path):
    arr = np.random.default_rng(2).standard_normal((5, 7))
    arr[arr < 0] = 0.0
    path = tmp_path / "coo_out.mtx"
    write_matrix(path, DenseMatrix(arr), fmt="coordinate")
    assert "coordinate" in path.read_text().splitlines()[0]
    back = read_matrix(path)
    assert np.allclose(back.data, arr, atol=1e-12)


def test_budget_from_projection_dimension(capsys):
    code = main(["lela", "--n", "20", "--d", "20", "--rank", "2", "--l", "10",
                 "--iters", "2", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "samples:" in out
    # inconsistent pairing is a parameter error
    code = main(["lela", "--n", "20", "--d", "20", "--rank", "2",
                 "--m", "100", "--l", "9", "--iters", "2"])
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
    ],
)
def test_malformed_outside_input_is_parameter_error(tmp_path, capsys, monkeypatch, argv):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started before its input and output paths were checked")

    for name in ("lela", "run_distpca", "run_experiment"):
        monkeypatch.setattr(cli, name, no_run)
    (tmp_path / "bad.conf").write_text("n=abc\n")
    # above the oracle size guard, yet quick to write and read
    (tmp_path / "big.mtx").write_text(
        "%%MatrixMarket matrix coordinate real general\n2001 2001 2\n1 1 1.0\n2001 2001 2.0\n"
    )
    code = main([a.format(tmp=tmp_path) for a in argv])
    assert code == cli.EXIT_PARAMETER
    assert capsys.readouterr().err.startswith("parameter error: ")
    assert not (tmp_path / "missing").exists()


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
    M = DenseMatrix(np.eye(3))
    with pytest.raises(ParameterError):
        write_matrix(tmp_path / "missing" / "m.mtx", M)
    with pytest.raises(ParameterError):
        save_factorization(tmp_path / "missing" / "f", Factorization(np.eye(3), np.eye(3)))
    assert not (tmp_path / "missing").exists()
