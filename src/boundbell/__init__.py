"""Numerical toolkit for a bound-entangled multiqubit state family.

Builds the GHZ-plus-flip-projector family, certifies its partial-transpose
structure across all bipartitions, evaluates and optimizes the recursive
multiqubit Bell operator, and simulates the local-filtering extraction of a
maximally entangled pair from any entangled pure state.
"""

import importlib

# Each public name, by the module that defines it.  The names load on first
# access (PEP 562), so importing the package, or ``boundbell.cli`` through it,
# loads no numpy until a numpy-backed module is asked for.
_SOURCES = {
    "bell": ("bell_value", "optimize_settings"),
    "extraction": (
        "ExtractionResult", "ExtractionStep", "NotEntangledError", "NumericDegeneracyError",
        "PairUnavailableError", "extract", "reduce_to_parties", "replay", "target_pair_choice",
    ),
    "family": (
        "BellSettings", "PartyLayout", "PptReport", "RhoFamilySpec", "Verdicts", "classify_family",
        "default_alpha",
    ),
    "ppt": ("cut_verdicts", "ppt_check", "scan"),
    "states": ("ghz", "random_pure", "rho_family"),
    "tensor": (
        "DensityOperator", "FilterOperator", "PureState", "apply_local",
        "hermitian_eigenvalues", "partial_transpose", "schmidt",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
