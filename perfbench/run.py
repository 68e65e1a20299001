"""lela benchmark: one closed-loop caller timing one workload's entry point.

    python3 perfbench/run.py --workload square-2000 --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src`` directory.  One caller in one process issues the next call
as soon as the previous one returns.  Inputs are generated from ``--seed``;
only calls into lela are timed, and every call's output is checked.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced calls with calls traced by outside-in spans (see tracing.py) and
prints the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Spans and the full result are written under ``.perfbench_out/`` in the
checkout.
"""
from __future__ import annotations

import os
import sys
import time

START = time.perf_counter()

# Pinned before numpy loads so every BLAS call runs on this many threads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402  (this file's directory is on sys.path)
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPS = 3  # set-ups per run; setup_s is their median
TAIL_BEYOND = 10  # the tail percentile keeps this many calls beyond it

END_TO_END = (
    ("solve_p50_s", "s"),
    ("solve_tail_s", "s"),
    ("solves_per_s", "1/s"),
    ("err_spectral", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_lela():
    """Import lela from this checkout's src; exit non-zero when it is not there."""
    if not (SRC / "lela" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lela package under {SRC}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("lela")
    if Path(pkg.__file__).resolve().parent != (SRC / "lela").resolve():
        sys.exit(f"perfbench: imported lela from {pkg.__file__}, not from {SRC}")
    return pkg


def environment(pkg) -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lela": getattr(pkg, "__version__", "unknown"),
    }


def call_seed(seed: int, k: int) -> int:
    """Library seed of call k; every call gets its own, so no call repeats another."""
    return (seed << 20) + k


def tail(times: list[float]) -> tuple[float, str]:
    """Highest percentile with at least TAIL_BEYOND calls beyond it, and its label.

    With fewer than 2 * TAIL_BEYOND calls that percentile lies below the
    median; the median is reported instead, since no tail is resolved.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), f"median of {n} calls (fewer than {2 * TAIL_BEYOND}, so no percentile above it has {TAIL_BEYOND} calls beyond it)"
    pct = 100.0 * (n - TAIL_BEYOND) / n
    return ordered[n - TAIL_BEYOND - 1], f"p{pct:.0f} of {n} calls, {TAIL_BEYOND} beyond it"


class Loop:
    """Closed-loop caller: runs, times and checks calls, counting failures.

    Call k runs on input instance k mod spec.instances with library seed
    call_seed(seed, k).  Calls are numbered from the first set-up call on, so
    the outputs of calls 0 .. spec.instances - 1 (one on each instance) are
    fixed by the workload seed alone.
    """

    def __init__(self, pkg, family, seed):
        self.pkg, self.family, self.seed = pkg, family, seed
        self.attempted = 0
        self.failed = 0
        self.errs: dict[int, float] = {}
        self.first = None  # output of the first call that returned

    def one(self, invoke=None, extra_check=None):
        """Run, time and check call k; returns (k, seconds, output or None)."""
        k = self.attempted
        self.attempted += 1
        inputs = self.family[k % len(self.family)]
        args = (self.pkg, inputs, call_seed(self.seed, k))
        t0 = time.perf_counter()
        try:
            out = invoke(k, *args) if invoke else workloads.call(*args)
        except Exception:  # a call that raises is a failed call; keep measuring
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return k, time.perf_counter() - t0, None
        dt = time.perf_counter() - t0
        err, problems = workloads.check(inputs, out)
        if extra_check is not None:
            problems += extra_check(k, out)
        if problems:
            self.failed += 1
            print(f"call {k} failed: {'; '.join(problems)}", file=sys.stderr)
        self.errs[k] = err
        if self.first is None:
            self.first = out
        return k, dt, out


def timed(loop, seconds, step, min_calls):
    """Call ``step`` until ``seconds`` have passed and ``min_calls`` were made."""
    t0 = time.perf_counter()
    first = loop.attempted
    while loop.attempted - first < min_calls or time.perf_counter() - t0 < seconds:
        step()
    return time.perf_counter() - t0


def output_counts(spec, out, counters) -> dict[str, float]:
    """Per-call counts read from a call's output rather than from spans."""
    counts = {"kept_per_draw": counters.get("samples_kept", 0.0) / spec.m}
    if "passes_over_M" in out.extra:
        counts["passes_over_M"] = out.extra["passes_over_M"]
    ledger = out.extra.get("ledger")
    if ledger is not None:
        counts["messages"] = len(ledger.messages)
        counts["comm_reals"] = ledger.grand_total()
        for kind, reals in ledger.totals_by_kind.items():
            counts[f"comm_reals.{kind}"] = reals
        bound = getattr(importlib.import_module("lela.distpca"), "communication_bound", None)
        if bound is not None and "samples_kept" in counters:
            omega = int(counters["samples_kept"])
            counts["bound_ratio"] = ledger.grand_total() / bound(
                spec.d, spec.servers, omega, workloads.RANK, spec.init_rounds
            )
    return counts


def end_to_end(loop, seconds, setup_s):
    times = []

    def step():
        _, dt, out = loop.one()
        if out is not None:
            times.append(dt)

    per_instance = len(loop.family)
    wall = timed(loop, seconds, step, max(1, per_instance - loop.attempted))
    errs = [loop.errs[k] for k in range(per_instance) if k in loop.errs]
    tail_s, tail_label = tail(times) if times else (float("nan"), "no completed calls")
    print(f"loop: closed, 1 caller, {len(times)} completed timed calls in {wall:.3f} s")
    print(f"solve_tail_s is the {tail_label}")
    print(f"err_spectral is the mean over calls 0..{per_instance - 1}, one on each instance (set-up calls included)")
    return {
        "solve_p50_s": statistics.median(times) if times else float("nan"),
        "solve_tail_s": tail_s,
        "solves_per_s": len(times) / wall,
        "err_spectral": statistics.fmean(errs) if errs else float("nan"),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(loop, seconds, spec):
    """Alternate untraced and traced calls; per-layer medians over traced ones."""
    tracer = tracing.Tracer()
    plain, traced, per_call = [], [], []

    def invoke(k, pkg, inputs, seed):
        tracer.install()
        try:
            return tracer.run(k, workloads.call, pkg, inputs, seed)
        finally:
            tracer.uninstall()

    def bound_check(k, out):
        counts = output_counts(spec, out, tracer.counters[k])
        tracer.add(k, counts)
        ratio = counts.get("bound_ratio")
        return [] if ratio is None or ratio <= 1.0 else [f"bound_ratio {ratio:.4g} > 1"]

    def step():
        _, dt, out = loop.one()
        if out is not None:
            plain.append(dt)
        k, dt, out = loop.one(invoke, bound_check)
        if out is not None:
            traced.append(dt)
            per_call.append(tracer.call_metrics(k))

    timed(loop, seconds, step, 1)
    metrics = tracing.layer_metrics(per_call) if per_call else {}
    p50_plain = statistics.median(plain) if plain else float("nan")
    p50_traced = statistics.median(traced) if traced else float("nan")
    metrics.update(
        {
            "trace.untraced_p50_s": p50_plain,
            "trace.traced_p50_s": p50_traced,
            "trace.overhead_s": p50_traced - p50_plain,
            "trace.missing_spans": len(tracer.missing),
        }
    )
    print(f"loop: closed, 1 caller, {len(plain)} untraced and {len(traced)} traced calls, alternating")
    print(f"tracing overhead: {p50_traced - p50_plain:+.4f} s on a {p50_plain:.4f} s untraced p50")
    for site in tracer.missing:
        print(f"missing span: {site}")
    for note in sorted(set(tracer.hook_errors)):
        print(f"hook error: {note}")
    if per_call:
        print("share of the traced p50 per span (inclusive time, median per call):")
        keys = {k for c in per_call for k in c if k.endswith(".s") and k != "call.s"}
        medians = {k: statistics.median(c.get(k, 0.0) for c in per_call) for k in keys}
        for key in sorted(keys, key=lambda k: -medians[k]):
            print(f"  {key[:-2]:<40} {medians[key]:9.4f} s  {100.0 * medians[key] / p50_traced:5.1f}%")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{spec.name}-seed{loop.seed}.jsonl")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    pkg = import_lela()
    import_s = time.perf_counter() - START  # numpy and scipy included

    if args.workload not in workloads.SPECS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(workloads.SPECS)}")
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    spec = workloads.SPECS[args.workload]
    family = workloads.make_family(spec, args.seed)
    inputs_digest = workloads.family_digest(family)
    loop = Loop(pkg, family, args.seed)
    env = environment(pkg)
    print(f"perfbench workload={spec.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {spec.why}")
    print("env: " + json.dumps(env))
    print(f"inputs sha256 ({len(family)} instances): {inputs_digest}")

    setup_s = import_s + statistics.median(loop.one()[1] for _ in range(SETUP_REPS))
    if args.trace == 0:
        metrics = end_to_end(loop, args.seconds, setup_s)
        units = dict(END_TO_END)
    else:
        metrics = per_layer(loop, args.seconds, spec)
        units = {name: unit for name, unit, _, _ in tracing.PER_LAYER}
        units.update({name: unit for name, unit, _ in tracing.TRACE_METRICS})
    print(f"setup_s: import {import_s:.4f} s + median of {SETUP_REPS} warm-up calls")
    print(f"fail_rate = {loop.failed}/{loop.attempted} = {loop.failed / loop.attempted:.4g} (set-up calls included)")
    digest = loop.first.digest() if loop.first is not None else None
    if loop.first is not None and "ledger" in loop.first.extra:
        print(f"comm_reals = {loop.first.extra['ledger'].grand_total()} reals (first call)")
    print(f"outputs sha256 (first call): {digest}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    report = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    result = {"workload": spec.name, "seed": args.seed, "env": env, "inputs_sha256": inputs_digest, "outputs_sha256": digest, **report}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{spec.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
