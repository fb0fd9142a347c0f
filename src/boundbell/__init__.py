"""Numerical toolkit for a bound-entangled multiqubit state family.

Builds the GHZ-plus-flip-projector family, certifies its partial-transpose
structure across all bipartitions, evaluates and optimizes the recursive
multiqubit Bell operator, and simulates the local-filtering extraction of a
maximally entangled pair from any entangled pure state.
"""

from .bell import (
    BellSettings,
    bell_value,
    optimize_settings,
)
from .extraction import (
    ExtractionResult,
    ExtractionStep,
    NotEntangledError,
    NumericDegeneracyError,
    PairUnavailableError,
    extract,
    reduce_to_parties,
    replay,
    target_pair_choice,
)
from .ppt import (
    PptReport,
    Verdicts,
    classify_family,
    cut_verdicts,
    ppt_check,
    scan,
)
from .states import (
    RhoFamilySpec,
    default_alpha,
    ghz,
    random_pure,
    rho_family,
)
from .tensor import (
    DensityOperator,
    FilterOperator,
    PartyLayout,
    PureState,
    apply_local,
    hermitian_eigenvalues,
    partial_transpose,
    schmidt,
)

__version__ = "0.1.0"

__all__ = [
    "BellSettings",
    "DensityOperator",
    "ExtractionResult",
    "ExtractionStep",
    "FilterOperator",
    "NotEntangledError",
    "NumericDegeneracyError",
    "PairUnavailableError",
    "PartyLayout",
    "PptReport",
    "PureState",
    "RhoFamilySpec",
    "Verdicts",
    "apply_local",
    "bell_value",
    "classify_family",
    "cut_verdicts",
    "default_alpha",
    "extract",
    "ghz",
    "hermitian_eigenvalues",
    "optimize_settings",
    "partial_transpose",
    "ppt_check",
    "random_pure",
    "reduce_to_parties",
    "replay",
    "rho_family",
    "scan",
    "schmidt",
    "target_pair_choice",
]
