"""tlspin: Temperley-Lieb representations, R-matrices, L-operators, and
open spin-chain verification, all generated by one invertible matrix b.

The library constructs the two-site rank-one generator from b, the braid
solution R = q I + X and its Baxterization, the auxiliary-space L-operator
and its coproduct tower, and the chain Hamiltonian; it verifies every
defining identity numerically and matches spectra against the integer
representation-ring predictions.
"""

from .bform import (
    BForm,
    builtin_bform,
    gauge_transform,
    graded_congruence,
    load_bform,
    make_bform,
    parse_b_matrix,
)
from .chain import (
    IsotypicAssignment,
    SpectrumReport,
    chain_spectrum,
    check_isotypic,
    check_weight_symmetry,
    hamiltonian,
    spectrum,
)
from .errors import (
    ConvergenceFailure,
    DegenerateParameter,
    NormalizationFailure,
    SingularMatrix,
    SizeBudgetExceeded,
    TLSpinError,
    UnsupportedDimension,
    ZeroSpectralParameter,
)
from .qalg import (
    AuxOperatorMatrix,
    CasimirResult,
    casimir,
    casimir_grouplike,
    check_centralizer,
    check_coassociativity,
    check_pminus_invariance,
    check_rll,
    coproduct_T,
    generator_blocks,
    highest_weight_scan,
)
from .rep_ring import (
    DecompositionTable,
    SymmetrizerResult,
    catalan,
    decomposition_table,
    dims_p,
    mult_nu,
    poincare_series,
    quantum_plane_dims,
    symmetrizer,
)
from .reports import CheckResult, ResidualReport
from .rmatrix import (
    check_antisymmetrizer,
    check_braid,
    check_spectral_ybe,
    check_tl_cubic,
    check_unitarity,
    constant_R,
    constant_R_inverse,
    projectors,
    spectral_R,
)
from .tl_rep import ChainOp, LocalOp, check_tl_relations, embed, local_X

__version__ = "0.1.0"

__all__ = [
    "BForm",
    "builtin_bform",
    "make_bform",
    "gauge_transform",
    "graded_congruence",
    "load_bform",
    "parse_b_matrix",
    "LocalOp",
    "ChainOp",
    "local_X",
    "embed",
    "check_tl_relations",
    "constant_R",
    "constant_R_inverse",
    "projectors",
    "spectral_R",
    "check_braid",
    "check_spectral_ybe",
    "check_tl_cubic",
    "check_unitarity",
    "check_antisymmetrizer",
    "AuxOperatorMatrix",
    "generator_blocks",
    "coproduct_T",
    "check_centralizer",
    "casimir",
    "casimir_grouplike",
    "CasimirResult",
    "check_rll",
    "check_coassociativity",
    "check_pminus_invariance",
    "highest_weight_scan",
    "dims_p",
    "mult_nu",
    "catalan",
    "decomposition_table",
    "DecompositionTable",
    "poincare_series",
    "quantum_plane_dims",
    "symmetrizer",
    "SymmetrizerResult",
    "hamiltonian",
    "spectrum",
    "chain_spectrum",
    "SpectrumReport",
    "check_isotypic",
    "IsotypicAssignment",
    "check_weight_symmetry",
    "CheckResult",
    "ResidualReport",
    "TLSpinError",
    "SingularMatrix",
    "DegenerateParameter",
    "SizeBudgetExceeded",
    "ZeroSpectralParameter",
    "UnsupportedDimension",
    "NormalizationFailure",
    "ConvergenceFailure",
]
