import types

import lela

# The entry points the README documents and the CLI and the benchmark call;
# everything else is reached through its submodule.
SURFACE = [
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


def test_package_exports_only_the_documented_surface():
    assert len(lela.__all__) == len(set(lela.__all__)) == 24
    assert sorted(lela.__all__) == sorted(SURFACE)
    for name in lela.__all__:
        assert getattr(lela, name) is not None
    # no exported function shadows the solver's submodule
    assert isinstance(lela.waltmin, types.ModuleType)
