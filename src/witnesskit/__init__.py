"""witnesskit: entanglement witnesses, Hilbert-Schmidt distances to the
separable set, and generalized Bell inequality violations for bipartite
qudit states.

Public names load on first use: ``import witnesskit`` imports none of its
submodules, and so not numpy, which lets the command line choose the BLAS
thread count before numpy starts (see :mod:`witnesskit.cli`).
``witnesskit.<name>`` and ``from witnesskit import <name>`` import the
submodule that defines the name.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "bases": ("bloch_compose", "bloch_decompose", "generalized_basis"),
    "linalg": ("hs_inner", "hs_norm", "partial_transpose"),
    "measures": (
        "BntReport", "MeasureResult", "ProjectionConfig", "ProjectionError",
        "bnt_check", "gbi_violation", "hs_measure_isotropic", "infinite_d_trend",
        "nearest_separable",
    ),
    "states": (
        "DensityMatrix", "IsotropicParams", "ProductEnsemble",
        "density_from_json", "density_to_json", "gamma_operator", "gamma_signs",
        "is_ppt", "isotropic", "isotropic_gamma_form", "max_entangled", "twirl_invariance_check",
    ),
    "witness": (
        "SolverConfig", "SolverError", "WitnessReport", "chsh_max_violation",
        "chsh_operator", "min_over_separable", "optimal_witness_isotropic",
        "verify_nearest_separable", "witness_candidate",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
