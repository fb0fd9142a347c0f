"""The package's public names: a change that adds or drops one edits this set."""

import boundbell

PUBLIC = {
    # tensor
    "DensityOperator", "FilterOperator", "PartyLayout", "PureState",
    "apply_local", "hermitian_eigenvalues", "partial_transpose", "schmidt",
    # states
    "RhoFamilySpec", "default_alpha", "ghz", "random_pure", "rho_family",
    # ppt
    "PptReport", "Verdicts", "classify_family", "cut_verdicts", "ppt_check", "scan",
    # bell
    "BellSettings", "bell_value", "optimize_settings",
    # extraction
    "ExtractionResult", "ExtractionStep", "NotEntangledError",
    "NumericDegeneracyError", "PairUnavailableError", "extract", "reduce_to_parties", "replay",
    "target_pair_choice",
}


def test_public_names_are_pinned():
    assert sorted(boundbell.__all__) == sorted(PUBLIC)  # each listed once
    for name in PUBLIC:
        assert getattr(boundbell, name).__module__.startswith("boundbell."), name
