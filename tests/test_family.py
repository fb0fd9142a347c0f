"""Closed forms of the family against the sparse path they replace in the CLI."""

import copy
import math
import pickle
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from boundbell import (
    BellSettings, PartyLayout, PptReport, RhoFamilySpec, bell_value, classify_family, ghz, ppt_check,
    rho_family,
)
from boundbell.cli import build_parser, cmd_bell, cmd_sweep
from boundbell.family import (
    DEFAULT_OPT_TOL, DEFAULT_PPT_TOL, PSD, ghz_obj, min_eigenvalue, never_violates, operator_obj,
    scan_reports, xy_value,
)
from boundbell.serialize import canonical_dumps, operator_to_obj, state_to_obj
from helpers import sparse_classify_family

# default phase first, then exact zeros of both signs, multiples of pi and seeded draws
EDGE_PHASES = [None, 0.0, -0.0, math.pi, -math.pi / 2, 2 * math.pi, 1e-300, 5e-324, 1e10]
PHASES = EDGE_PHASES + [float(a) for a in np.random.default_rng(2020).uniform(-10.0, 10.0, 200)]
PAPER = {2: (True, None, False), 3: (True, False, False)}  # N >= 4: (True, True, True)


def paper_verdicts(n: int) -> tuple:
    return PAPER.get(n, (True, True, True))


def test_min_eigenvalue_per_cut_size():
    for n in range(2, 32):
        w = Fraction(1, 2 * (n + 1))
        for size in range(1, n):
            want = Fraction(1, 6) if n == 2 else 0 if size in (1, n - 1) else -w
            assert min_eigenvalue(n, size) == want, (n, size)


def _spread(cuts: list, count: int) -> list:
    """At most ``count`` cuts evenly spaced over ``cuts``, first and last included."""
    if len(cuts) <= count:
        return cuts
    return [cuts[round(k * (len(cuts) - 1) / (count - 1))] for k in range(count)]


@pytest.mark.parametrize("alpha", [None, 0.0, 0.3, -1.3, 2.9, math.pi])
def test_scan_rows_match_the_sparse_check(alpha):
    for n in range(2, 13):
        rho = rho_family(RhoFamilySpec(n, alpha))
        reports = scan_reports(n)
        assert [r.subset for r in reports] == [
            s for size in range(1, n // 2 + 1) for s in combinations(range(1, n + 1), size)
        ]
        by_size = {}
        for r in reports:
            by_size.setdefault(len(r.subset), []).append(r)
        for size, rows in by_size.items():
            assert {(r.min_eigenvalue, r.verdict) for r in rows} == {(rows[0].min_eigenvalue, rows[0].verdict)}
            assert rows[0].min_eigenvalue == float(min_eigenvalue(n, size))
            for r in _spread(rows, 8):
                sparse = ppt_check(rho, r.subset)
                assert abs(sparse.min_eigenvalue - r.min_eigenvalue) <= 2e-16, (n, alpha, r.subset)
                assert sparse.verdict == r.verdict, (n, alpha, r.subset)


def test_state_files_match_the_sparse_encoders():
    for n in range(2, 32):
        for alpha in PHASES[:24]:
            spec = RhoFamilySpec(n, alpha)
            assert canonical_dumps(operator_obj(spec)) == canonical_dumps(
                operator_to_obj(rho_family(spec))
            ), (n, alpha)
            # a dense GHZ vector is refused above 12 qubits; its two amplitudes do not depend on N
            dense = state_to_obj(ghz(min(n, 12), spec.alpha))
            dense["dims"], dense["amps"][1][0] = [2] * n, 2**n - 1
            assert canonical_dumps(ghz_obj(spec)) == canonical_dumps(dense), (n, alpha)


def test_xy_value_is_bell_value_bit_for_bit():
    for n in range(2, 32):
        xy = BellSettings.xy(n)
        for alpha in PHASES:
            spec = RhoFamilySpec(n, alpha)
            assert repr(xy_value(spec)) == repr(bell_value(rho_family(spec), xy)), (n, alpha)


def test_bell_n_sums_the_entries_to_the_closed_form_of_sweep():
    # bell --n sums the member's 2N+4 entries (family.entries_bell_value); sweep
    # keeps xy_value.  Both print the same value and verdict for every member
    parser = build_parser()
    texts = [None if alpha is None else repr(alpha) for alpha in PHASES]
    sweep = parser.parse_args(["sweep", "--n-min", "2", "--n-max", "31", "--scan-max", "1"])
    sweep.tol = DEFAULT_PPT_TOL
    rows = []
    for text in texts:
        sweep.alpha = text
        rows.append(cmd_sweep(sweep)[0]["rows"])
    for n in range(2, 32):
        args = parser.parse_args(["bell", "--n", str(n)])
        args.tol = DEFAULT_OPT_TOL
        for alpha, text, sweep_rows in zip(PHASES, texts, rows):
            args.alpha = text
            report, row = cmd_bell(args)[0], sweep_rows[n - 2]
            value = repr(report["value"])
            assert value == repr(xy_value(RhoFamilySpec(n, alpha))) == repr(row["bell_xy"]), (n, alpha)
            assert report["violation"] is row["violation"], (n, alpha)


def test_xy_value_at_the_default_phase():
    # N = 7 sits on the local bound exactly; every other N is far from it.  The
    # value is never_violates' bound on every setting, at most 1 at N = 3, 5, 7
    for n in range(2, 32):
        value = xy_value(RhoFamilySpec(n))
        if n == 7:
            assert value == 1.0
        else:
            assert abs(value - 1.0) > 0.19, n
        assert value == pytest.approx(2 ** ((n - 1) / 2) / (n + 1), rel=1e-15)
        assert never_violates(n) is (n in (3, 5, 7)) is (n % 2 == 1 and value <= 1.0), n


@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.01])
def test_classify_family_gives_the_papers_verdicts_at_any_tolerance(tol):
    # the exact minima sit at 0 on single cuts and at -1/(2(N+1)) <= -1/64 on
    # pairs, so a check granting a margin of tol decides as classify_family does
    for n in range(2, 32):
        verdicts = classify_family(n)
        assert tuple(verdicts) == paper_verdicts(n), n
        assert (min_eigenvalue(n, 1) >= -tol) is verdicts.ppt_single, (n, tol)
        if n >= 3:
            assert (min_eigenvalue(n, 2) < -tol) is verdicts.npt_pairs, (n, tol)


def test_classify_family_agrees_with_the_sparse_check():
    # the verdicts hold for every phase; at the default tolerance the float
    # eigenvalues of each phase's operator decide the same way
    for n in range(2, 32):
        for alpha in (None, 0.0, 0.4, 2.1):
            assert classify_family(n) == sparse_classify_family(n, alpha), (n, alpha)


def test_records_print_compare_hash_and_refuse_assignment():
    # the family's records are plain classes, not dataclasses, with the same contract
    layout, spec = PartyLayout((2, 3)), RhoFamilySpec(4, 0.5)
    report = PptReport((1,), 0.0, PSD)
    settings = BellSettings(((1, 0, 0),), ((0, 1, 0),))
    assert repr(layout) == "PartyLayout(dims=(2, 3))"
    assert repr(spec) == "RhoFamilySpec(n=4, alpha=0.5)"
    assert repr(report) == "PptReport(subset=(1,), min_eigenvalue=0.0, verdict='PSD')"
    assert repr(settings) == "BellSettings(a=((1.0, 0.0, 0.0),), a_prime=((0.0, 1.0, 0.0),))"
    # value equality and hashing by the constructor's fields
    assert layout == PartyLayout(dims=[2, 3]) and hash(layout) == hash(PartyLayout((2, 3)))
    assert spec == RhoFamilySpec(n=4, alpha=0.5) and hash(spec) == hash(RhoFamilySpec(4.0, 0.5))
    assert RhoFamilySpec(4) == RhoFamilySpec(4, math.pi * 3 / 4) != spec
    assert report == PptReport((1,), 0.0, PSD) and hash(report) == hash(PptReport((1,), 0.0, PSD))
    assert layout != (2, 3) and spec != (4, 0.5) and layout != spec
    # settings compare and hash by identity
    twin = BellSettings(settings.a, settings.a_prime)
    assert settings == settings and settings != twin and len({settings, twin}) == 2
    for record, field in [(layout, "dims"), (layout, "dim"), (spec, "alpha"), (settings, "a"),
                          (report, "verdict")]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        layout.extra = 1  # no other attribute either
    # copies and pickles rebuild through the constructor
    for record in (layout, spec, report):
        assert pickle.loads(pickle.dumps(record)) == copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(settings)).a_prime == settings.a_prime
