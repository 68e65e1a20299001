"""Command-line interface.

Subcommands: lela, product, covariance, distpca, bench.  Matrices come from
MatrixMarket files (--matrix) or are synthesized from the power-law model.
Exit codes: 0 success, 2 parameter error, 3 degenerate input.  The default
seed can be set through the LELA_SEED environment variable.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .bench import (
    ALGORITHMS,
    ExperimentConfig,
    add_noise,
    gen_powerlaw,
    make_adversarial_product,
    run_experiment,
)
from .distpca import KIND_COL_LISTS, PARTITION_POLICIES, run_distpca
from .driver import evaluate, lela, require_oracle_size
from .errors import DegenerateInputError, ParameterError
from .linalg import Factorization, low_rank_diff_spectral_norm
from .matprod import ProductTask, lowrank_covariance, lowrank_product, stagewise_product_baseline
from .mmio import read_matrix, require_parent_dir, save_factorization

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_DEGENERATE = 3


def _default_seed() -> int:
    raw = os.environ.get("LELA_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ParameterError(f"LELA_SEED must be an integer, got {raw!r}")


# Flags that more than one subcommand reads.  Each subcommand registers only
# the flags its handler reads, so a flag it would ignore is refused instead.
_SHARED_FLAGS = {
    "--n": dict(type=int, default=200, help="rows of the synthetic instance"),
    "--d": dict(type=int, default=200, help="columns of the synthetic instance"),
    "--rank": dict(type=int, default=5, help="target rank r"),
    "--alpha": dict(type=float, default=0.0, help="power-law exponent"),
    "--noise": dict(type=float, default=0.0, help="spectral norm of the added noise"),
    "--m": dict(type=int, default=None, help="sample budget"),
    "--iters": dict(type=int, default=15, help="cap on alternating rounds T"),
    "--seed": dict(type=int, default=None, help="seed (default LELA_SEED or 0)"),
    "--matrix": dict(default=None, help="MatrixMarket input path"),
    "--out": dict(default=None, help="CSV output path"),
    "--mode": dict(choices=("bernoulli", "multinomial"), default="multinomial"),
    "--oracle": dict(action="store_true", help="also compute dense-SVD gaps"),
    "--save-factors": dict(default=None, help="prefix for factor output files"),
    "--servers": dict(type=int, default=4),
}


# Flags that only shape a synthetic instance.  Where --matrix is also
# accepted they parse to None, so that one given next to --matrix, which it
# could not affect, is refused; _synthetic_instance fills in the default.
_INSTANCE_FLAGS = ("--n", "--d", "--alpha", "--noise")


def _subcommand(sub, name: str, summary: str, func, *shared: str) -> argparse.ArgumentParser:
    # no abbreviations: `bench --noise` must not silently mean --noise-list
    p = sub.add_parser(name, help=summary, allow_abbrev=False)
    for flag in shared:
        spec = _SHARED_FLAGS[flag]
        if flag in _INSTANCE_FLAGS and "--matrix" in shared:
            spec = {**spec, "default": None}
        p.add_argument(flag, **spec)
    p.set_defaults(func=func)
    return p


def _synthetic_instance(args) -> None:
    """Refuse synthetic-instance settings next to --matrix, else default them."""
    names = [f[2:] for f in _INSTANCE_FLAGS if hasattr(args, f[2:])]
    given = [k for k in names if getattr(args, k) is not None]
    if args.matrix is not None and given:
        raise ParameterError(
            f"synthetic-instance settings ({', '.join(given)}) cannot be combined with --matrix"
        )
    for k in names:
        if getattr(args, k) is None:
            setattr(args, k, _SHARED_FLAGS["--" + k]["default"])


def _load_or_generate(args):
    _synthetic_instance(args)
    if args.matrix is not None:
        return read_matrix(args.matrix)
    seed = args.seed
    M_r, _ = gen_powerlaw(args.n, args.d, args.rank, args.alpha, seed=seed)
    return add_noise(M_r, args.noise, seed=seed)


def _resolve_budget(args, n):
    """Sample budget from --m, or 8 n r."""
    if args.m is not None:
        return args.m
    return 8 * n * args.rank


def _cmd_lela(args) -> int:
    M = _load_or_generate(args)
    if args.oracle:
        require_oracle_size(M.shape)
    m = _resolve_budget(args, M.n_rows)
    report = lela(M, args.rank, m, args.iters, mode=args.mode, seed=args.seed)
    bundle = evaluate(M, report.factorization, seed=args.seed, want_oracle=args.oracle)
    print(f"samples: {report.sample_count}")
    print(f"passes over M: {report.passes_over_M}")
    print(f"spectral error: {bundle.spectral_err:.6g}")
    print(f"frobenius error: {bundle.fro_err:.6g}")
    if bundle.oracle_spectral is not None:
        print(f"oracle spectral gap: {bundle.oracle_spectral:.6g}")
        print(f"oracle frobenius gap: {bundle.oracle_fro:.6g}")
    if args.save_factors:
        save_factorization(
            args.save_factors,
            report.factorization,
            {"iterations": args.iters, "seed": args.seed, "m": m},
        )
        print(f"factors written to {args.save_factors}.{{u,v}}.mtx")
    if args.out:
        _write_single_row_csv(args.out, args, m, bundle.spectral_err, bundle.fro_err)
    return EXIT_OK


def _write_single_row_csv(path, args, m, spectral, fro) -> None:
    import csv

    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "rank", "m", "iters", "seed", "spectral_err", "fro_err"])
        writer.writerow(["lela", args.rank, m, args.iters, args.seed, repr(spectral), repr(fro)])


def _cmd_product(args) -> int:
    _synthetic_instance(args)
    if (args.matrix is None) != (args.matrix_b is None):
        raise ParameterError("--matrix and --matrix-b must be given together")
    if args.matrix is not None:
        A = read_matrix(args.matrix)
        B = read_matrix(args.matrix_b)
        truth = None
    else:
        A, B, truth = make_adversarial_product(args.n, args.rank, seed=args.seed)
    m = _resolve_budget(args, max(A.n_rows, B.n_cols))
    task = ProductTask(a=A, b=B, rank=args.rank, m=m, iterations=args.iters, seed=args.seed)
    F = lowrank_product(task)
    print(f"direct factors: {F.u.shape[0]}x{F.rank} and {F.v.shape[0]}x{F.rank}")
    if truth is not None:
        print(f"direct error vs exact product: {low_rank_diff_spectral_norm(truth, F):.6g}")
    if args.baseline:
        G = stagewise_product_baseline(A, B, args.rank, m, args.iters, seed=args.seed)
        if truth is not None:
            print(f"stagewise error vs exact product: {low_rank_diff_spectral_norm(truth, G):.6g}")
        else:
            print("stagewise baseline computed")
    if args.save_factors:
        save_factorization(args.save_factors, F, {"iterations": args.iters, "seed": args.seed, "m": m})
    return EXIT_OK


def _cmd_covariance(args) -> int:
    Y = _load_or_generate(args)
    m = _resolve_budget(args, Y.n_rows)
    F = lowrank_covariance(Y, args.rank, m, args.iters, seed=args.seed, symmetrize=args.symmetrize)
    print(f"covariance factors: {F.u.shape[0]}x{F.rank} and {F.v.shape[0]}x{F.rank}")
    # ||u v^T - v u^T||_2 from the factors; the n x n output is never formed.
    asym = low_rank_diff_spectral_norm(F, Factorization(F.v, F.u))
    print(f"spectral asymmetry of the output: {asym:.12g}")
    if args.save_factors:
        save_factorization(args.save_factors, F, {"iterations": args.iters, "seed": args.seed, "m": m})
    return EXIT_OK


def _number(text: str, convert, source: str):
    """One number read from outside text; a malformed one is a parameter error."""
    try:
        return convert(text)
    except ValueError:
        raise ParameterError(f"{source} expects {convert.__name__} values, got {text!r}")


# Scenario-file keys of the distributed run, each with the flag it sets.
_SCENARIO_KEYS = {
    "n": "n", "d": "d", "s": "servers", "r": "rank", "m": "m", "T": "iters",
    "seed": "seed", "partition": "partition",
}


def _parse_config_file(path) -> dict:
    """Flat key=value scenario file for the distributed run; unknown keys are refused."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read scenario file {path!r}: {exc}")
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"malformed scenario line {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _SCENARIO_KEYS:
            raise ParameterError(
                f"unknown scenario key {key!r} (known: {', '.join(_SCENARIO_KEYS)})"
            )
        values[key] = value.strip()
    return values


def _cmd_distpca(args) -> int:
    if args.config is not None:
        for key, value in _parse_config_file(args.config).items():
            if key != "partition":
                value = _number(value, int, f"scenario key {key!r}")
            elif value not in PARTITION_POLICIES:
                raise ParameterError(f"unknown partition policy {value!r}")
            setattr(args, _SCENARIO_KEYS[key], value)
    M = _load_or_generate(args)
    if args.oracle:
        require_oracle_size(M.shape)
    m = _resolve_budget(args, M.n_rows)
    F, ledger = run_distpca(
        M,
        args.servers,
        args.rank,
        m,
        args.iters,
        seed=args.seed,
        policy=args.partition,
    )
    bundle = evaluate(M, F, seed=args.seed, want_oracle=args.oracle)
    omega = ledger.totals_by_kind.get(KIND_COL_LISTS, 0)
    print(f"servers: {args.servers}  partition: {args.partition}")
    print(f"total communication (reals): {ledger.grand_total()}")
    print(f"touched-column list entries: {omega}")
    print(f"spectral error: {bundle.spectral_err:.6g}")
    print(f"frobenius error: {bundle.fro_err:.6g}")
    if bundle.oracle_spectral is not None:
        print(f"oracle spectral gap: {bundle.oracle_spectral:.6g}")
    if args.ledger_csv:
        ledger.to_csv(args.ledger_csv)
        print(f"ledger written to {args.ledger_csv}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    noise_levels = [_number(x, float, "--noise-list") for x in args.noise_list.split(",")]
    if args.m_list:
        m_grid = [_number(x, int, "--m-list") for x in args.m_list.split(",")]
    else:
        m_grid = [k * args.n * args.rank for k in (4, 8, 16, 32)]
    cfg = ExperimentConfig(
        n=args.n,
        d=args.d,
        r=args.rank,
        alpha=args.alpha,
        noise_levels=noise_levels,
        m_grid=m_grid,
        trials=args.trials,
        iterations=args.iters,
        seed=args.seed,
        algorithms=algorithms,
        servers=args.servers,
        sampler_mode=args.mode,
    )
    rows = run_experiment(cfg, out_path=args.out)
    print(f"{len(rows)} rows" + (f" written to {args.out}" if args.out else ""))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lela",
        description="Sampled low-rank approximation of matrices, products, and covariances",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(
        sub, "lela", "low-rank approximation of one matrix", _cmd_lela,
        "--n", "--d", "--rank", "--alpha", "--noise", "--m", "--iters", "--seed",
        "--matrix", "--out", "--mode", "--oracle", "--save-factors",
    )

    p = _subcommand(
        sub, "product", "low-rank approximation of a product A @ B", _cmd_product,
        "--n", "--rank", "--m", "--iters", "--seed", "--matrix", "--save-factors",
    )
    p.add_argument("--matrix-b", default=None, help="MatrixMarket path of the right factor")
    p.add_argument("--baseline", action="store_true", help="also run the stagewise baseline")

    p = _subcommand(
        sub, "covariance", "low-rank approximation of Y @ Y.T", _cmd_covariance,
        "--n", "--d", "--rank", "--alpha", "--noise", "--m", "--iters", "--seed",
        "--matrix", "--save-factors",
    )
    p.add_argument("--symmetrize", action="store_true", help="symmetrize the output")

    p = _subcommand(
        sub, "distpca", "simulated distributed run with a communication ledger", _cmd_distpca,
        "--n", "--d", "--rank", "--alpha", "--noise", "--m", "--iters", "--seed",
        "--matrix", "--oracle", "--servers",
    )
    p.add_argument(
        "--partition",
        choices=PARTITION_POLICIES,
        default="contiguous",
    )
    p.add_argument("--config", default=None, help="flat key=value scenario file")
    p.add_argument("--ledger-csv", default=None, dest="ledger_csv")

    p = _subcommand(
        sub, "bench", "experiment grid with CSV output", _cmd_bench,
        "--n", "--d", "--rank", "--alpha", "--iters", "--seed", "--out", "--mode",
        "--servers",
    )
    p.add_argument(
        "--algorithms",
        default="lela,gaussian-projection",
        help=f"comma list from {','.join(ALGORITHMS)}",
    )
    p.add_argument("--noise-list", default="0.01,0.05,0.1", dest="noise_list")
    p.add_argument("--m-list", default=None, dest="m_list", help="comma list of budgets")
    p.add_argument("--trials", type=int, default=20)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is None:
            args.seed = _default_seed()
        # refuse a missing output directory before the run, not after it
        for attr in ("out", "save_factors", "ledger_csv"):
            path = getattr(args, attr, None)
            if path is not None:
                require_parent_dir(path)
        return args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except DegenerateInputError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
