"""The benchmark workloads: seeded inputs, the timed call, output checks.

Inputs are generated here with plain numpy from the workload seed, never with
``lela.bench``: a later library edit must not be able to change what the
benchmark feeds the library.  The planted model is the paper's power-law
matrix D U V^T D (D_ii proportional to i^-alpha) rescaled to unit singular
values, plus i.i.d. Gaussian noise rescaled to a fixed spectral norm.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

RANK = 5
NOISE = 0.05


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str  # "lela", "product" or "distpca": which entry point runs
    why: str
    n: int
    d: int
    m: int
    iterations: int
    alpha: float
    # Input matrices per seed, called in rotation.  err_spectral averages one
    # call on each, so it does not rest on one draw of the input; the product
    # needs more because its error varies most from instance to instance.
    instances: int = 10
    inner: int = 0  # product only: A is n x inner, B is inner x d
    servers: int = 0  # distpca only
    init_rounds: int = 0  # distpca only


# The coherent (alpha = 1) instances are deliberate: the multinomial sampler's
# law/weight defect shows only under concentrated leverage.  BENCHMARK.json
# lists all but tall-8000x200: four workloads leave each run too short to be
# steady on a 2-core machine, and square-2000 runs the same layers.  Run it by
# hand for sampler and ALS changes, which it shows most.
SPECS = {
    s.name: s
    for s in (
        Spec(
            "square-2000", "lela",
            "dense per-cell sweeps: the stats pass, the sampler and the error evaluation dominate; ALS is small",
            n=2000, d=2000, m=4 * 2000 * RANK, iterations=15, alpha=1.0,
        ),
        Spec(
            "tall-8000x200", "lela",
            "per-row work: the row-by-row multinomial sampler and ALS half steps over 8000 rows dominate",
            n=8000, d=200, m=4 * 8000 * RANK, iterations=15, alpha=1.0,
        ),
        Spec(
            "product-1000", "product",
            "A @ B path: exact Bernoulli product law, dot-product fills, trim scores; no stats pass and no evaluation",
            n=1000, d=1000, inner=500, m=16 * 1000 * RANK, iterations=15, alpha=0.5,
            instances=15,
        ),
        Spec(
            "distpca-s4", "distpca",
            "the only run of the distributed layer: four servers, exact communication ledger",
            n=1000, d=1000, m=16 * 1000 * RANK, iterations=10, alpha=1.0,
            servers=4, init_rounds=10,
        ),
    )
}


@dataclass
class Inputs:
    """Raw input arrays plus the reference X_r = P diag(sigma) Q^T."""

    spec: Spec
    arrays: dict[str, np.ndarray]
    p: np.ndarray
    sigma: np.ndarray
    q: np.ndarray

    def update(self, h) -> None:
        for key in sorted(self.arrays):
            arr = np.ascontiguousarray(self.arrays[key])
            h.update(f"{key}{arr.shape}{arr.dtype}".encode())
            h.update(arr.tobytes())


@dataclass
class Output:
    u: np.ndarray
    v: np.ndarray
    extra: dict = field(default_factory=dict)

    def digest(self) -> str:
        h = hashlib.sha256()
        for arr in (self.u, self.v):
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        return h.hexdigest()


def _generator(seed: int, *path: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *path])))


def _planted(g, n: int, d: int, r: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Factors (P, Q) with P @ Q.T the power-law rank-r matrix, spectrum all ones."""
    u0 = np.linalg.qr(g.standard_normal((n, r)))[0]
    v0 = np.linalg.qr(g.standard_normal((d, r)))[0]
    qa, ra = np.linalg.qr(u0 / np.arange(1, n + 1)[:, None] ** alpha)
    qb, rb = np.linalg.qr(v0 / np.arange(1, d + 1)[:, None] ** alpha)
    uc, _, vct = np.linalg.svd(ra @ rb.T)
    return qa @ uc, qb @ vct.T


def _noise(g, n: int, d: int) -> np.ndarray:
    """Gaussian matrix rescaled so its power-iteration spectral norm is NOISE."""
    z = g.standard_normal((n, d))
    v = g.standard_normal(d)
    for _ in range(60):
        v = z.T @ (z @ v)
        v /= np.linalg.norm(v)
    return z * (NOISE / np.linalg.norm(z @ v))


def _noisy_powerlaw(g, n, d, r, alpha):
    p, q = _planted(g, n, d, r, alpha)
    return p @ q.T + _noise(g, n, d), p, q


def make_family(spec: Spec, seed: int) -> list[Inputs]:
    """The spec.instances input sets of one workload seed."""
    return [make_inputs(spec, seed, i) for i in range(spec.instances)]


def family_digest(family: list[Inputs]) -> str:
    h = hashlib.sha256()
    for inputs in family:
        inputs.update(h)
    return h.hexdigest()


def make_inputs(spec: Spec, seed: int, instance: int) -> Inputs:
    g = _generator(seed, list(SPECS).index(spec.name), instance)
    if spec.kind != "product":
        x, p, q = _noisy_powerlaw(g, spec.n, spec.d, RANK, spec.alpha)
        return Inputs(spec, {"M": x}, p, np.ones(RANK), q)
    a = _noisy_powerlaw(g, spec.n, spec.inner, 2 * RANK, spec.alpha)[0]
    b = _noisy_powerlaw(g, spec.inner, spec.d, 2 * RANK, spec.alpha)[0]
    # top-r SVD of A @ B through thin QRs of both sides
    qa, ra = np.linalg.qr(a)
    qb, rb = np.linalg.qr(b.T)
    uc, s, vct = np.linalg.svd(ra @ rb.T)
    return Inputs(spec, {"A": a, "B": b}, qa @ uc[:, :RANK], s[:RANK], qb @ vct[:RANK].T)


def call(pkg, inputs: Inputs, seed: int) -> Output:
    """One timed call: build the DenseMatrix inputs, then run the entry point.

    Entry points are looked up on the package at call time, so the traced run
    can put its span around them.
    """
    spec = inputs.spec
    if spec.kind == "lela":
        report = pkg.lela(
            pkg.DenseMatrix(inputs.arrays["M"]), RANK, spec.m, spec.iterations, seed=seed
        )
        f = report.factorization
        return Output(f.u, f.v, {"passes_over_M": report.passes_over_M})
    if spec.kind == "product":
        task = pkg.ProductTask(
            a=pkg.DenseMatrix(inputs.arrays["A"]),
            b=pkg.DenseMatrix(inputs.arrays["B"]),
            rank=RANK,
            m=spec.m,
            iterations=spec.iterations,
            seed=seed,
        )
        f = pkg.lowrank_product(task)
        return Output(f.u, f.v)
    f, ledger = pkg.run_distpca(
        pkg.DenseMatrix(inputs.arrays["M"]),
        spec.servers,
        RANK,
        spec.m,
        spec.iterations,
        init_rounds=spec.init_rounds,
        seed=seed,
        policy="contiguous",
    )
    return Output(f.u, f.v, {"ledger": ledger})


def spectral_err(inputs: Inputs, out: Output) -> float:
    """|F - X_r|_2 / |X_r|_2 via the (2r)-column factored difference."""
    left = np.hstack([out.u, -inputs.p * inputs.sigma])
    right = np.hstack([out.v, inputs.q])
    core = np.linalg.qr(left)[1] @ np.linalg.qr(right)[1].T
    return float(np.linalg.svd(core, compute_uv=False)[0] / inputs.sigma[0])


def check(inputs: Inputs, out: Output) -> tuple[float, list[str]]:
    """Spectral error of one call's output and the list of failed checks."""
    spec = inputs.spec
    problems = []
    if out.u.shape != (spec.n, RANK) or out.v.shape != (spec.d, RANK):
        problems.append(f"factor shapes {out.u.shape}, {out.v.shape}")
        return float("nan"), problems
    if not (np.isfinite(out.u).all() and np.isfinite(out.v).all()):
        problems.append("non-finite factor entries")
        return float("nan"), problems
    err = spectral_err(inputs, out)
    if not err < 1.0 - 1e-9:  # the zero approximation scores 1 up to rounding
        problems.append(f"err_spectral {err:.4g} is no better than the zero approximation")
    if spec.kind == "lela" and out.extra["passes_over_M"] != 2:
        problems.append(f"passes_over_M = {out.extra['passes_over_M']}, expected 2")
    if spec.kind == "distpca" and not out.extra["ledger"].verify():
        problems.append("ledger totals disagree with its message log")
    return err, problems
