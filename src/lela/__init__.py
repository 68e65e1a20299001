"""Sampled low-rank approximation: leveraged-element sampling plus weighted
alternating minimization, with product, covariance, and distributed variants.

The package exports the pipelines and what their callers need; the kernels
they are built from live in ``lela.sampling``, ``lela.waltmin``,
``lela.linalg`` and ``lela.distpca``.
"""

__version__ = "0.1.0"

from .errors import DegenerateInputError, LelaError, ParameterError
from .linalg import DenseMatrix, Factorization
from .driver import LelaReport, evaluate, lela
from .matprod import (
    ProductTask,
    lowrank_covariance,
    lowrank_product,
    stagewise_product_baseline,
)
from .distpca import CommLedger, communication_bound, run_distpca
from .bench import (
    ExperimentConfig,
    add_noise,
    gaussian_projection_baseline,
    gen_powerlaw,
    make_adversarial_product,
    run_experiment,
)
from .mmio import load_factorization, read_matrix, save_factorization

__all__ = [
    "LelaError",
    "ParameterError",
    "DegenerateInputError",
    "DenseMatrix",
    "Factorization",
    "lela",
    "LelaReport",
    "evaluate",
    "ProductTask",
    "lowrank_product",
    "lowrank_covariance",
    "stagewise_product_baseline",
    "run_distpca",
    "CommLedger",
    "communication_bound",
    "gen_powerlaw",
    "add_noise",
    "gaussian_projection_baseline",
    "make_adversarial_product",
    "run_experiment",
    "ExperimentConfig",
    "read_matrix",
    "save_factorization",
    "load_factorization",
]
