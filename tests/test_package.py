import ast
import importlib
import importlib.util
import inspect
import os
import pathlib
import re
import subprocess
import sys
import types

import lela
from lela.waltmin import LS_EIG_FLOOR, als_half_step

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


ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lela"


def _entry_points():
    """(module, function) of each console script in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'"lela\.(\w+):(\w+)"', scripts))


def test_every_top_level_definition_has_a_caller_in_the_package():
    # A top-level function or class of src/lela is exported, a console
    # script, or referenced from another statement of the package; one that
    # only tests use belongs in tests/.
    defined = []
    referenced = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = (path.stem, stmt.name)
                defined.append(own)
            for node in ast.walk(stmt):
                name = None
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                if name is not None and (own is None or name != own[1]):
                    referenced.add(name)
    entry = _entry_points()
    assert entry == {("cli", "main")}
    unused = [
        f"{module}.{name}"
        for module, name in defined
        if name not in lela.__all__ and (module, name) not in entry and name not in referenced
    ]
    assert defined and unused == []


def test_grouping_is_constructed_only_in_sampling():
    # SampleSet builds the one layout of its samples and wraps its transposes;
    # the samplers emit entries in row order, so nothing sorts them back
    callers, sorters = set(), []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name == "Grouping":
                    callers.add(path.stem)
                if name == "lexsort":
                    sorters.append((path.stem, node.lineno))
    assert callers == {"sampling"}
    assert sorters == []


def test_the_subspace_stop_rule_is_read_in_one_function():
    # topk_svd and the distributed init both stop through one function
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name == "SVD_STEP_TOL" and isinstance(node.ctx, ast.Load):
                    readers.add((path.stem, owner))
    assert readers == {("linalg", "subspace_iteration")}


def test_every_round_loop_runs_through_subspace_iteration():
    # the init SVD, the distributed init and both alternating solvers stop by
    # one rule, and no other function loops `for _ in range(...)` over rounds
    callers, loops = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    fn = node.func
                    name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                    if name == "subspace_iteration":
                        callers.add((path.stem, owner))
                if (
                    isinstance(node, ast.For)
                    and isinstance(node.target, ast.Name)
                    and node.target.id == "_"
                    and isinstance(node.iter, ast.Call)
                    and getattr(node.iter.func, "id", None) == "range"
                ):
                    loops.add((path.stem, owner))
    assert callers == {
        ("linalg", "topk_svd"),
        ("distpca", "dist_init"),
        ("waltmin", "waltmin"),
        ("distpca", "run_distpca"),
    }
    assert loops == {("linalg", "subspace_iteration")}


def test_row_and_column_norms_are_summed_in_two_functions():
    # every reader of M gets its norms from the stats pass, distpca's servers
    # too; the product plan reads the norms of its two factors
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                norm_einsum = name == "einsum" and any(
                    isinstance(arg, ast.Constant) and arg.value in ("ij,ij->i", "ij,ij->j")
                    for arg in node.args[:1]
                )
                if name == "vecdot" or norm_einsum:
                    callers.add((path.stem, owner))
    assert callers == {("sampling", "compute_stats"), ("sampling", "build_product_plan")}


def test_the_sampling_law_is_clipped_in_one_class():
    # every path's min(q, 1) is the one law object's
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    fn = node.func
                    name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                    if name == "minimum":
                        callers.add((path.stem, owner))
    assert callers == {("sampling", "ElementLaw")}


def test_the_packed_triangle_has_one_owner():
    # B's storage format is known only where B is built; its readers take
    # the symmetric stack, so no second packer or mirror comes back
    callers, mirrors = set(), []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            # a class's members are owned by their own names, methods included
            members = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
            for member in members:
                owner = getattr(member, "name", None)
                if member is not stmt:
                    owner = f"{stmt.name}.{owner}"
                for node in ast.walk(member):
                    if isinstance(node, ast.FunctionDef) and node.name == "mirror_upper":
                        mirrors.append(path.stem)
                    if isinstance(node, ast.Call):
                        call = node.func
                        name = call.id if isinstance(call, ast.Name) else getattr(call, "attr", None)
                        if name == "triu_indices":
                            callers.add((path.stem, owner))
    assert callers == {("linalg", "Grouping.normal_equations")}
    assert mirrors == []


def test_the_package_creates_no_fortran_ordered_array():
    # DenseMatrix is row-major and every kernel reads M by rows: one layout
    makers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                fortran = name == "asfortranarray" or any(
                    kw.arg == "order" and isinstance(kw.value, ast.Constant) and kw.value.value == "F"
                    for kw in node.keywords
                )
                if fortran:
                    makers.append((path.stem, node.lineno))
    assert makers == []


def test_every_least_squares_floor_is_built_from_ls_eig_floor():
    # one LS rule: als_half_step floors at LS_EIG_FLOOR by default, and every
    # floor passed in src/lela is built from it or forwards als_half_step's own
    assert inspect.signature(als_half_step).parameters["eig_floor"].default == LS_EIG_FLOOR
    floors = [
        {name.id for name in ast.walk(kw.value) if isinstance(name, ast.Name)}
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        for kw in node.keywords
        if kw.arg == "eig_floor"
    ]
    assert floors and all(names & {"LS_EIG_FLOOR", "eig_floor"} for names in floors)


def _tracing():
    """perfbench/tracing.py, loaded from its file (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves_to_a_callable():
    # the benchmark traces these module attributes; one that is gone would
    # only show up as a missing span in its report
    sites = _tracing().SITES
    assert sites
    for module_name, attr, _ in sites:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            f"{module_name}.{attr}"
        )


def _hook_arguments():
    """(span, name) of each argument a perfbench hook reads through ``_argument``."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    hooks = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["HOOKS"]
    )
    reads = set()
    for key, hook in zip(hooks.keys, hooks.values):
        for node in ast.walk(hook):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_argument":
                reads.add((key.value, node.args[-1].value))
    return reads


# Hook arguments that their traced function no longer takes: each hook call
# records a hook error in place of its counter.  Mending the hook empties this.
UNRESOLVED_HOOK_ARGUMENTS = {("lela.driver", "spectral_error", "iters")}


def test_every_hook_argument_is_a_parameter_of_its_traced_function():
    # a renamed parameter would only show up as a hook error in a traced run
    reads = _hook_arguments()
    sites = _tracing().SITES
    assert reads and {span for span, _ in reads} <= {span for _, _, span in sites}
    unresolved = set()
    for module_name, attr, span in sites:
        params = inspect.signature(getattr(importlib.import_module(module_name), attr)).parameters
        unresolved |= {
            (module_name, attr, name) for s, name in reads if s == span and name not in params
        }
    assert unresolved == UNRESOLVED_HOOK_ARGUMENTS


def test_the_benchmark_does_not_build_inputs_with_lela_bench():
    # perfbench/workloads.py generates its inputs with plain numpy, so a
    # change to the experiment grid cannot change what the benchmark measures
    import lela.bench

    generators = {"gen_powerlaw", "add_noise", "make_adversarial_product"}
    assert all(callable(getattr(lela.bench, name)) for name in generators)
    banned = generators | {"bench", "lela.bench"}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):  # from lela import bench, too
                names = {node.module} | {a.name for a in node.names}
            elif isinstance(node, ast.Attribute):  # lela.bench, lela.gen_powerlaw
                names = {node.attr}
            elif isinstance(node, ast.Constant):  # import_module or getattr by name
                names = {node.value}
            else:
                continue
            assert not names & banned, f"{path.name}:{node.lineno} reaches {names & banned}"


def test_import_leaves_scipy_sparse_linalg_unloaded():
    # the benchmark's setup time counts `import lela`
    probe = "import sys, lela; print('scipy.sparse.linalg' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert out.stdout.strip() == "False"


def _reads_fields(cls):
    """Whether a class's own code reads its fields through ``dataclasses.fields``."""
    for node in ast.walk(cls):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if name == "fields":
                return True
    return False


def test_every_class_member_is_read():
    # A method or annotated field of a class of src/lela, exported or not, is
    # read as an attribute somewhere in src/lela or perfbench/; state or code
    # that only tests read is not kept.  Dunder methods are called by the
    # language.
    members = []
    read = set()
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        if path.parent != SRC:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or _reads_fields(cls):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("__"):
                    members.append((path.stem, cls.name, stmt.name))
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    members.append((path.stem, cls.name, stmt.target.id))
    unread = [f"{module}.{cls}.{name}" for module, cls, name in members if name not in read]
    assert members and unread == []
