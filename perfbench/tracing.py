"""Outside-in spans around lela's layer functions, and the per-layer metrics.

A span is installed by replacing a function at the module attribute its caller
looks it up by (``lela.driver.spectral_error``, ``lela.rng.stream``, ...), so
the library is traced without being edited.  Submodules are found through
``importlib`` because the package attribute ``lela.waltmin`` is the function,
which shadows the submodule.  A site that no longer exists is reported as a
missing span instead of failing the run.
"""
from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict

# (module, attribute, span name); a span is named <defining module>.<function>.
SITES = (
    ("lela", "lela", "driver.lela"),
    ("lela", "lowrank_product", "matprod.lowrank_product"),
    ("lela", "run_distpca", "distpca.run_distpca"),
    ("lela.driver", "build_plan", "sampling.build_plan"),
    ("lela.driver", "draw_multinomial", "sampling.draw_multinomial"),
    ("lela.driver", "waltmin", "waltmin.waltmin"),
    ("lela.driver", "spectral_error", "linalg.spectral_error"),
    ("lela.driver", "streaming_fro_error", "driver.streaming_fro_error"),
    ("lela.sampling", "compute_stats", "linalg.compute_stats"),
    ("lela.waltmin", "initialize", "waltmin.initialize"),
    ("lela.waltmin", "als_half_step", "waltmin.als_half_step"),
    ("lela.waltmin", "topk_svd", "linalg.topk_svd"),
    ("lela.waltmin", "pseudo_solve_spd_batch", "linalg.pseudo_solve_spd_batch"),
    ("lela.matprod", "build_product_plan", "sampling.build_product_plan"),
    ("lela.matprod", "materialize_product_samples", "sampling.materialize_product_samples"),
    ("lela.matprod", "waltmin", "waltmin.waltmin"),
    ("lela.distpca", "dist_sample", "distpca.dist_sample"),
    ("lela.distpca", "dist_init", "distpca.dist_init"),
    ("lela.distpca", "dist_waltmin_round", "distpca.dist_waltmin_round"),
    ("lela.distpca", "pseudo_solve_spd_batch", "linalg.pseudo_solve_spd_batch"),
    ("lela.rng", "stream", "rng.stream"),
)

# Ledger kinds of lela.distpca, one comm_reals metric each.
LEDGER_KINDS = (
    "col-norms",
    "stats-broadcast",
    "col-lists",
    "init-Y-block",
    "init-Y-partial",
    "z-and-B",
    "V-rows-block",
)

# (metric, unit, better, source); source is (span, "s" | "self_s" | "calls")
# for span timings and counts, or a counter name filled by the hooks below.
PER_LAYER = (
    ("linalg.compute_stats.s", "s", "lower", ("linalg.compute_stats", "s")),
    ("linalg.compute_stats.bytes", "bytes", "lower", "compute_stats.bytes"),
    ("linalg.topk_svd.s", "s", "lower", ("linalg.topk_svd", "s")),
    ("linalg.pseudo_solve_spd_batch.s", "s", "lower", ("linalg.pseudo_solve_spd_batch", "s")),
    ("linalg.pseudo_solve_spd_batch.calls", "count", "lower", ("linalg.pseudo_solve_spd_batch", "calls")),
    ("linalg.spectral_error.s", "s", "lower", ("linalg.spectral_error", "s")),
    ("linalg.spectral_error.bytes", "bytes", "lower", "spectral_error.bytes"),
    ("sampling.build_plan.self_s", "s", "lower", ("sampling.build_plan", "self_s")),
    ("sampling.draw_multinomial.s", "s", "lower", ("sampling.draw_multinomial", "s")),
    ("sampling.build_product_plan.s", "s", "lower", ("sampling.build_product_plan", "s")),
    ("sampling.materialize_product_samples.s", "s", "lower", ("sampling.materialize_product_samples", "s")),
    ("sampling.samples_kept", "count", "higher", "samples_kept"),
    ("sampling.kept_per_draw", "ratio", "higher", "kept_per_draw"),
    ("rng.stream.calls", "count", "lower", ("rng.stream", "calls")),
    ("rng.stream.s", "s", "lower", ("rng.stream", "s")),
    ("waltmin.initialize.self_s", "s", "lower", ("waltmin.initialize", "self_s")),
    ("waltmin.als_half_step.self_s", "s", "lower", ("waltmin.als_half_step", "self_s")),
    ("waltmin.als_half_step.calls", "count", "lower", ("waltmin.als_half_step", "calls")),
    ("waltmin.waltmin.self_s", "s", "lower", ("waltmin.waltmin", "self_s")),
    ("driver.lela.self_s", "s", "lower", ("driver.lela", "self_s")),
    ("driver.streaming_fro_error.s", "s", "lower", ("driver.streaming_fro_error", "s")),
    ("driver.streaming_fro_error.bytes", "bytes", "lower", "streaming_fro_error.bytes"),
    ("driver.passes_over_M", "count", "lower", "passes_over_M"),
    ("matprod.lowrank_product.self_s", "s", "lower", ("matprod.lowrank_product", "self_s")),
    ("distpca.dist_sample.s", "s", "lower", ("distpca.dist_sample", "s")),
    ("distpca.dist_init.s", "s", "lower", ("distpca.dist_init", "s")),
    ("distpca.dist_waltmin_round.s", "s", "lower", ("distpca.dist_waltmin_round", "s")),
    ("distpca.messages", "count", "lower", "messages"),
    ("distpca.comm_reals", "count", "lower", "comm_reals"),
    *(
        (f"distpca.comm_reals.{kind}", "count", "lower", f"comm_reals.{kind}")
        for kind in LEDGER_KINDS
    ),
    ("distpca.bound_ratio", "ratio", "lower", "bound_ratio"),
)

# Per-run metrics of the tracing itself, filled in by the runner.
TRACE_METRICS = (
    ("trace.untraced_p50_s", "s", "lower"),
    ("trace.traced_p50_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.missing_spans", "count", "lower"),
)


def _argument(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


# span name -> hook(fn, args, kwargs, result) returning {counter: amount}.
# Bytes are computed from array sizes: the reads of M the function makes.
HOOKS = {
    "linalg.compute_stats": lambda fn, a, k, res: {
        "compute_stats.bytes": _argument(fn, a, k, "M").data.nbytes
    },
    "linalg.spectral_error": lambda fn, a, k, res: {
        "spectral_error.bytes": 2
        * _argument(fn, a, k, "iters")
        * _argument(fn, a, k, "M").data.nbytes
    },
    "driver.streaming_fro_error": lambda fn, a, k, res: {
        "streaming_fro_error.bytes": _argument(fn, a, k, "M").data.nbytes
    },
    "sampling.draw_multinomial": lambda fn, a, k, res: {"samples_kept": res.size},
    "sampling.materialize_product_samples": lambda fn, a, k, res: {"samples_kept": res.size},
    "distpca.dist_sample": lambda fn, a, k, res: {
        "samples_kept": sum(sh.local_samples.size for sh in _argument(fn, a, k, "shards"))
    },
}


class Tracer:
    """Span recorder.  Spans are (call, name, start, end, parent index)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.missing: list[str] = []
        self.hook_errors: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.call_id = -1

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [self.call_id, name, time.perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[3] = time.perf_counter()
            if hook is not None:
                try:
                    for key, amount in hook(fn, args, kwargs, result).items():
                        self.counters[self.call_id][key] += amount
                except (AttributeError, KeyError, TypeError) as exc:
                    self.hook_errors.append(f"{name}: {exc!r}")
            return result

        return traced

    def install(self) -> None:
        """Replace every site that exists; remember the ones that do not."""
        self.missing = []
        for module_name, attr, name in SITES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed = []

    def run(self, call_id: int, fn, *args):
        """Run one timed call under the benchmark's own root span "call"."""
        self.call_id = call_id
        return self._wrap("call", fn)(*args)

    def add(self, call_id: int, counts: dict[str, float]) -> None:
        for key, amount in counts.items():
            self.counters[call_id][key] += amount

    def call_metrics(self, call_id: int) -> dict[str, float]:
        """Inclusive time, self time and call count per span name for one call."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[0] == call_id]
        child_time = defaultdict(float)
        for _, (_, _, start, end, parent) in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (_, name, start, end, _) in spans:
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[i]
            out[f"{name}.calls"] += 1
        for key, value in self.counters[call_id].items():
            out[key] += value
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for call_id, name, start, end, parent in self.spans:
                fh.write(json.dumps([call_id, name, start, end, parent]) + "\n")


def layer_metrics(per_call: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced calls of each per-layer metric (0 where never seen)."""
    out = {}
    for metric, _, _, source in PER_LAYER:
        key = f"{source[0]}.{source[1]}" if isinstance(source, tuple) else source
        out[metric] = statistics.median(c.get(key, 0.0) for c in per_call)
    return out
