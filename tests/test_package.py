"""How the package loads: public names on first use, and the command line's
one-thread BLAS rule, which must act before numpy loads and only then."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import witnesskit

SRC = str(Path(__file__).resolve().parents[1] / "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# the public names, by the submodule that defines them
EXPORTS = {
    "bases": ["bloch_compose", "bloch_decompose", "generalized_basis"],
    "linalg": ["hs_inner", "hs_norm", "partial_transpose"],
    "measures": ["BntReport", "MeasureResult", "ProjectionConfig", "ProjectionError",
                 "bnt_check", "gbi_violation", "hs_measure_isotropic", "infinite_d_trend",
                 "nearest_separable"],
    "states": ["DensityMatrix", "IsotropicParams", "ProductEnsemble",
               "density_from_json", "density_to_json", "gamma_operator", "gamma_signs",
               "is_ppt", "isotropic", "isotropic_gamma_form", "max_entangled",
               "twirl_invariance_check"],
    "witness": ["SolverConfig", "SolverError", "WitnessReport", "chsh_max_violation",
                "chsh_operator", "min_over_separable", "optimal_witness_isotropic",
                "verify_nearest_separable", "witness_candidate"],
}


def run_python(code: str, **env_vars) -> str:
    """stdout of a fresh interpreter running ``code`` with witnesskit on its
    path, the BLAS thread variables removed and then ``env_vars`` set."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env.update(env_vars)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_all_is_the_export_list():
    assert witnesskit.__all__ == [name for names in EXPORTS.values() for name in names]
    assert len(witnesskit.__all__) == 36


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_export_is_the_submodule_object(module, name):
    home = importlib.import_module(f"witnesskit.{module}")
    assert getattr(witnesskit, name) is getattr(home, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        witnesskit.no_such_name
    assert not hasattr(witnesskit, "nearest_separable_")


def test_star_import():
    namespace = {}
    exec("from witnesskit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(witnesskit.__all__)


def test_import_alone_loads_no_numpy():
    code = ("import sys, witnesskit\n"
            "print('numpy' in sys.modules, set(witnesskit.__all__) <= set(dir(witnesskit)))\n")
    assert run_python(code) == "False True"


def test_benchmark_names_resolve():
    # the imports of perfbench/workloads.py and perfbench/run.py, and every
    # (module, name) pair perfbench/layers.py patches, in a fresh process
    code = (
        "from witnesskit import bases, cli, measures, states, witness\n"
        "from witnesskit import isotropic, min_over_separable\n"
        "from witnesskit.measures import ProjectionConfig\n"
        "pairs = [(witness, 'min_over_separable'), (measures, 'min_over_separable'),\n"
        "         (witness, 'verify_nearest_separable'), (cli, 'verify_nearest_separable'),\n"
        "         (witness, 'chsh_max_violation'), (cli, 'chsh_max_violation'),\n"
        "         (measures, 'nearest_separable'), (cli, 'nearest_separable'),\n"
        "         (measures, 'gbi_violation'), (cli, 'gbi_violation'),\n"
        "         (states.DensityMatrix, '__post_init__'),\n"
        "         (states, 'gamma_signs'), (cli, 'gamma_signs'),\n"
        "         (states, 'gamma_operator'), (witness, 'gamma_operator'),\n"
        "         (states, 'is_ppt'), (bases, 'generalized_basis'), (states, 'generalized_basis'),\n"
        "         (measures, 'MeasureResult'), (measures, 'ProjectionError')]\n"
        "print(all(callable(getattr(owner, name)) for owner, name in pairs))\n"
    )
    assert run_python(code) == "True"


def test_benchmark_fields_resolve():
    # what perfbench/workloads.py and perfbench/layers.py read of a projection,
    # and the oracle parameters layers._oracle_info binds by name
    from witnesskit.measures import ProjectionError, bnt_check
    from witnesskit.states import DensityMatrix, isotropic
    from witnesskit.witness import min_over_separable

    rep = bnt_check(isotropic(2, 0.8))
    mr = rep.measure
    assert len(mr.nearest.terms) == len(mr.nearest.weights) >= 1
    assert isinstance(mr.nearest.to_density(), DensityMatrix)
    assert all(isinstance(x, float) for x in (rep.d_value, rep.b_value, mr.gap_certificate))
    assert isinstance(mr.iterations, int) and mr.converged is True
    assert ProjectionError("gap above tolerance", mr).result is mr
    params = inspect.signature(min_over_separable).parameters
    assert {"cfg", "extra_starts"} <= set(params)
    assert params["cfg"].default.n_starts >= 1


THREADS_AFTER_CLI = "import os, witnesskit.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"


def test_cli_sets_one_blas_thread():
    assert run_python(THREADS_AFTER_CLI) == "1"


def test_cli_keeps_the_users_openblas_count():
    assert run_python(THREADS_AFTER_CLI, OPENBLAS_NUM_THREADS="3") == "3"


def test_cli_keeps_the_users_omp_count():
    assert run_python(THREADS_AFTER_CLI, OMP_NUM_THREADS="3") == "None"


def test_cli_after_numpy_leaves_environment():
    code = ("import os, numpy\n"
            "before = dict(os.environ)\n"
            "import witnesskit.cli\n"
            "print(dict(os.environ) == before)\n")
    assert run_python(code) == "True"
