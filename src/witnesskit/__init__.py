"""witnesskit: entanglement witnesses, Hilbert-Schmidt distances to the
separable set, and generalized Bell inequality violations for bipartite
qudit states."""

from .bases import (
    BasisSet,
    BlochVector,
    bloch_compose,
    bloch_decompose,
    gell_mann_basis,
    generalized_basis,
    pauli_basis,
    single_bloch_vector,
)
from .linalg import (
    hs_inner,
    hs_norm,
    partial_transpose,
)
from .measures import (
    BntReport,
    MeasureResult,
    ProjectionConfig,
    ProjectionError,
    bnt_check,
    gbi_violation,
    hs_measure_isotropic,
    infinite_d_trend,
    nearest_separable,
)
from .states import (
    DensityMatrix,
    GammaFormError,
    IsotropicParams,
    ProductEnsemble,
    density_from_json,
    density_to_json,
    gamma_operator,
    gamma_signs,
    is_ppt,
    isotropic,
    isotropic_gamma_form,
    isotropic_separability,
    max_entangled,
    twirl_invariance_check,
)
from .witness import (
    SolverConfig,
    SolverError,
    WitnessCandidate,
    WitnessReport,
    chsh_max_violation,
    chsh_operator,
    min_over_separable,
    optimal_witness_isotropic,
    verify_nearest_separable,
    witness_candidate,
)

__version__ = "0.1.0"
