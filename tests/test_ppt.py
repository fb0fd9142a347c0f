"""Partial-transpose certification and the family's verdict logic."""

from itertools import combinations

import numpy as np
import pytest

from boundbell import (
    BellSettings,
    DensityOperator,
    PartyLayout,
    RhoFamilySpec,
    bell_value,
    classify_family,
    ppt_check,
    rho_family,
    scan,
)
from boundbell import ppt
from boundbell.ppt import NOT_PSD, PSD, cut_verdicts
from helpers import (
    dense_matrix,
    dense_min_eigenvalue,
    dense_operator,
    dense_partial_transpose,
    raises_value_error,
    random_density,
    random_sparse_hermitian,
    separable_fixture,
    symmetric_qubit_operator,
    traced_peak,
)


def test_ppt_check_family_single_vs_pair():
    rho = rho_family(RhoFamilySpec(4))
    single = ppt_check(rho, (1,))
    assert single.verdict == PSD
    assert single.min_eigenvalue >= -1e-9
    pair = ppt_check(rho, (1, 2))
    assert pair.verdict == NOT_PSD
    assert pair.min_eigenvalue < -1e-9


def test_ppt_check_separable_fixture_all_psd():
    rho = separable_fixture(n=3, terms=6, seed=11)
    for size in (1,):
        for subset in combinations((1, 2, 3), size):
            assert ppt_check(rho, subset).verdict == PSD
    assert all(r.verdict == PSD for r in scan(rho))


def test_ppt_check_rejects_bad_subsets():
    rho = rho_family(RhoFamilySpec(3))
    with pytest.raises(ValueError):
        ppt_check(rho, ())
    with pytest.raises(ValueError):
        ppt_check(rho, (1, 2, 3))
    with pytest.raises(ValueError):
        ppt_check(rho, (4,))
    with pytest.raises(ValueError):
        ppt_check(rho, (1.9,))  # not truncated to party 1
    for subset in [(1.0,), (np.int64(1),)]:
        assert ppt_check(rho, subset).subset == (1,)


def test_scan_family_five_parties():
    reports = scan(rho_family(RhoFamilySpec(5)))
    for report in reports:
        if len(report.subset) == 1:
            assert report.verdict == PSD
        else:
            assert report.verdict == NOT_PSD
    assert not all(r.verdict == PSD for r in reports)


def test_scan_subset_enumeration_order():
    subsets = [r.subset for r in scan(rho_family(RhoFamilySpec(4)))]
    expected = [(1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert subsets == expected


def test_scan_maximally_mixed():
    layout = PartyLayout.qubits(3)
    rho = dense_operator(layout, np.eye(8) / 8)
    reports = scan(rho)
    assert all(r.verdict == PSD for r in reports)
    for report in reports:
        assert abs(report.min_eigenvalue - 1 / 8) < 1e-12


def test_scan_three_party_family_all_psd():
    reports = scan(rho_family(RhoFamilySpec(3)))
    assert all(r.verdict == PSD for r in reports)  # only single-party cuts are in range at N=3
    assert all(len(r.subset) == 1 for r in reports)


def test_scan_needs_two_parties():
    rho = DensityOperator(PartyLayout((2,)), np.arange(2), np.arange(2), np.full(2, 0.5))
    with pytest.raises(ValueError):
        scan(rho)


def test_classify_family_examples():
    c4 = classify_family(4)
    assert (c4.ppt_single, c4.npt_pairs, c4.bound_entangled_claim) == (True, True, True)
    c8 = classify_family(8)
    assert (c8.ppt_single, c8.npt_pairs, c8.bound_entangled_claim) == (True, True, True)
    c2 = classify_family(2)
    assert c2.ppt_single is True
    assert c2.npt_pairs is None  # a pair cut would transpose the whole system
    assert c2.bound_entangled_claim is False
    c3 = classify_family(3)
    assert c3.npt_pairs is False  # pair cuts mirror single cuts at N=3
    assert c3.bound_entangled_claim is False


def test_classify_family_range():
    with pytest.raises(ValueError):
        classify_family(1)
    with pytest.raises(ValueError):
        classify_family(32)
    for n in (5.9, 4.5):  # fractional counts are rejected, not cut to an integer
        with pytest.raises(ValueError):
            classify_family(n)


@pytest.mark.parametrize("alpha", [None, 0.3, 2.9])
def test_classify_family_two_cuts_match_the_full_scan(alpha):
    # cuts (1,) and (1, 2) stand for every single and pair cut of the family
    for n in range(2, 13):
        rho = rho_family(RhoFamilySpec(n, alpha))
        c = classify_family(n, alpha)
        full = cut_verdicts(scan(rho), n)
        assert (c.ppt_single, c.npt_pairs, c.bound_entangled_claim) == full, n


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2)])
def test_three_party_scan_verdicts_match_all_six_cuts(dims):
    # scan stops at size 1; each single cut also stands for its complementary pair
    layout = PartyLayout(dims)
    cuts = [s for size in (1, 2) for s in combinations((1, 2, 3), size)]
    seen = set()
    for seed in (1, 2, 3):
        m, noise = dense_matrix(random_density(layout, seed=seed)), np.eye(layout.dim) / layout.dim
        for p in (0.2, 0.4, 0.6, 1.0):  # white noise makes some cuts PSD
            rho = dense_operator(layout, p * m + (1 - p) * noise)
            verdicts = cut_verdicts(scan(rho), 3)
            assert verdicts == cut_verdicts([ppt_check(rho, s) for s in cuts], 3), (seed, p)
            seen.add(verdicts)
    assert len(seen) > 1, seen


def test_family_table_to_31_parties():
    # the paper's three claims at every N the layout admits, against closed forms
    for n in range(2, 32):
        rho = rho_family(RhoFamilySpec(n))
        want = 2 ** ((n - 1) / 2) / (n + 1)
        assert abs(bell_value(rho, BellSettings.xy(n)) - want) <= 1e-12 * want, n
        singles = [ppt_check(rho, (k,)).min_eigenvalue for k in range(1, n + 1)]
        assert min(singles) >= -1e-12, n  # PSD; a zero eigenvalue from N = 3 on
        assert n == 2 or max(map(abs, singles)) <= 1e-12, n
        if n >= 4:
            for pair in combinations(range(1, n + 1), 2):
                eig = ppt_check(rho, pair).min_eigenvalue
                assert abs(eig + 1 / (2 * (n + 1))) <= 1e-12, (n, pair)


def test_ppt_check_refuses_a_block_above_the_dense_cap():
    # a chain linking basis states 0..4200 of 14 qubits: one 4201-state block,
    # left intact by transposing party 1 (all its states have party-1 digit 0)
    chain = np.arange(4200)
    rows = np.concatenate([[0], chain, chain + 1])
    cols = np.concatenate([[0], chain + 1, chain])
    vals = np.concatenate([[1.0], np.full(2 * chain.size, 1e-4)])
    rho = DensityOperator(PartyLayout.qubits(14), rows, cols, vals)
    refused, peak = traced_peak(lambda: raises_value_error(lambda: ppt_check(rho, (1,))))
    assert refused
    assert peak < 4 * 2**20, peak


def test_ppt_check_splits_many_blocks_into_capped_stacks():
    # 5000 one-state blocks exceed one stack of 4096 rows; the verdict is unchanged
    diag = np.arange(5000)
    vals = np.linspace(1.0, 2.0, diag.size) / np.linspace(1.0, 2.0, diag.size).sum()
    vals[1234] = -1e-3
    rho = DensityOperator(PartyLayout.qubits(13), diag, diag, vals)
    report = ppt_check(rho, (13,))
    assert report.min_eigenvalue == -1e-3
    assert report.verdict == NOT_PSD


def test_family_statement_across_alphas():
    # quantified reproduction: single cuts PSD and pair cuts NPT for any phase
    rng = np.random.default_rng(5150)
    for n in range(4, 9):
        for alpha in rng.uniform(-np.pi, np.pi, size=20):
            rho = rho_family(RhoFamilySpec(n, float(alpha)))
            for k in range(1, n + 1):
                assert ppt_check(rho, (k,)).verdict == PSD
            for pair in combinations(range(1, n + 1), 2):
                assert ppt_check(rho, pair).verdict == NOT_PSD


def test_family_verdicts_permutation_invariant():
    # the family is symmetric under party exchange, so transpose spectra
    # depend only on the subset size
    rho = rho_family(RhoFamilySpec(5, 0.9))
    singles = [ppt_check(rho, (k,)).min_eigenvalue for k in range(1, 6)]
    assert max(singles) - min(singles) < 1e-10
    pairs = [ppt_check(rho, p).min_eigenvalue for p in combinations(range(1, 6), 2)]
    assert max(pairs) - min(pairs) < 1e-10


def test_transpose_complement_equivalence():
    for seed in (1, 2, 3):
        rho = random_density(PartyLayout((2, 2, 2)), seed=seed)
        for subset in [(1,), (2,), (1, 3)]:
            complement = tuple(p for p in (1, 2, 3) if p not in subset)
            a = ppt_check(rho, subset).min_eigenvalue
            b = ppt_check(rho, complement).min_eigenvalue
            assert abs(a - b) < 1e-10


@pytest.mark.parametrize("n", range(2, 9))
def test_ppt_check_matches_dense_oracle_on_family(n):
    rho = rho_family(RhoFamilySpec(n, 0.7 * n))
    for report in scan(rho):
        want = dense_min_eigenvalue(dense_partial_transpose(rho, report.subset))
        assert abs(report.min_eigenvalue - want) <= 1e-12, report


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2, 2, 2)])
@pytest.mark.parametrize("make", [random_density, random_sparse_hermitian])
def test_ppt_check_matches_dense_oracle_on_random_operators(dims, make):
    n = len(dims)
    for seed in (1, 2):
        rho = make(PartyLayout(dims), seed=seed)
        for size in range(1, n):
            for subset in combinations(range(1, n + 1), size):
                want = dense_min_eigenvalue(dense_partial_transpose(rho, subset))
                assert abs(ppt_check(rho, subset).min_eigenvalue - want) <= 1e-12


def test_scan_family_ten_parties_exact():
    n = 10
    reports = scan(rho_family(RhoFamilySpec(n)))
    assert len(reports) == 637
    for report in reports:
        if len(report.subset) == 1:
            assert report.verdict == PSD
            assert abs(report.min_eigenvalue) <= 1e-12
        else:
            assert abs(report.min_eigenvalue + 1 / (2 * (n + 1))) <= 1e-12, report


@pytest.mark.parametrize("tol", [float("nan"), -1e-9, float("inf")])
def test_ppt_check_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError):
        ppt_check(rho_family(RhoFamilySpec(4)), (1,), tol)


def _cuts(n):
    return [s for size in range(1, n // 2 + 1) for s in combinations(range(1, n + 1), size)]


def _scan_and_checked_cuts(rho):
    """scan's reports and the cuts it handed to ppt_check."""
    checked = []
    check = ppt.ppt_check
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ppt, "ppt_check", lambda r, s, tol: checked.append(s) or check(r, s, tol))
        reports = scan(rho)
    return reports, checked


@pytest.mark.parametrize("n", range(2, 13))
def test_scan_checks_one_cut_per_size_of_a_symmetric_operator(n):
    # entries that depend on (|r|, |c|, |r & c|) alone are invariant bit for bit,
    # so scan checks cut (1..k) for each size k and repeats its report; checked
    # on its own, every cut agrees with the repeated report
    operators = [symmetric_qubit_operator(n)]
    if n <= 5:
        operators.append(symmetric_qubit_operator(n, full=True))
    for rho in operators:
        reports, checked = _scan_and_checked_cuts(rho)
        assert checked == [tuple(range(1, k + 1)) for k in range(1, n // 2 + 1)]
        assert [r.subset for r in reports] == _cuts(n)
        for report in reports:
            own = ppt_check(rho, report.subset)
            assert abs(report.min_eigenvalue - own.min_eigenvalue) <= 1e-15, report
            assert report.verdict == own.verdict, report
    if n >= 6:  # the X-state's single cuts are PSD, its larger ones not
        assert {r.verdict for r in reports} == {PSD, NOT_PSD}


def _one_ulp_off(rho):
    """``rho`` with its diagonal entry at basis state 1 (party N flipped) moved
    by one unit in the last place; swapping party N with another moves that
    entry, so the result is not invariant."""
    vals = rho.vals.copy()
    entry = np.flatnonzero((rho.rows == 1) & (rho.cols == 1))[0]
    vals[entry] = np.nextafter(vals[entry].real, 1.0)
    return DensityOperator(rho.layout, rho.rows, rho.cols, vals)


@pytest.mark.parametrize(
    "rho",
    [
        random_density(PartyLayout.qubits(5), seed=3),
        _one_ulp_off(symmetric_qubit_operator(6)),
        _one_ulp_off(rho_family(RhoFamilySpec(6))),
        # every value is permutation invariant, but the local dims are not equal
        dense_operator(PartyLayout((2, 3, 2, 3)), np.eye(36) / 36),
    ],
    ids=["random", "symmetric-one-ulp-off", "family-one-ulp-off", "mixed-dims"],
)
def test_scan_checks_every_cut_of_other_operators(rho):
    n = rho.layout.num_parties
    reports, checked = _scan_and_checked_cuts(rho)
    assert checked == _cuts(n) == [r.subset for r in reports]
    for report in reports:
        want = dense_min_eigenvalue(dense_partial_transpose(rho, report.subset))
        assert abs(report.min_eigenvalue - want) <= 1e-12, report


def test_scan_checks_one_cut_per_size_of_symmetric_qutrits():
    rho = dense_operator(PartyLayout((3, 3, 3, 3)), np.eye(81) / 81)
    reports, checked = _scan_and_checked_cuts(rho)
    assert checked == [(1,), (1, 2)]
    assert all(r.min_eigenvalue == 1 / 81 and r.verdict == PSD for r in reports)
