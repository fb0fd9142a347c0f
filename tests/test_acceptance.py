"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 7 (determinism) rebuilds every report produced by criteria 1-6
and compares the rendered bytes, so the heavy computations run exactly
twice overall.

Non-distillability of the family is a theorem-level corollary of the
single-cut PPT facts checked in criterion 2 and is deliberately not given
a numeric test of its own.
"""

import json
import time
from pathlib import Path

import numpy as np

from boundbell import (
    BellSettings,
    PartyLayout,
    PureState,
    RhoFamilySpec,
    bell_value,
    extract,
    ghz,
    optimize_settings,
    ppt_check,
    reduce_to_parties,
    replay,
    rho_family,
)
from boundbell.serialize import canonical_dumps
from helpers import (
    bell_matrix,
    closed_form_xy,
    flip_projectors,
    make_extraction_corpus,
    planar_grid_oracle,
    pure_operator,
    separable_fixture,
)

FIXTURES = Path(__file__).parent / "fixtures"

INV_SQRT2 = 2**-0.5

_report_cache: dict[str, str] = {}
_corpus = None


def _corpus_states():
    global _corpus
    if _corpus is None:
        _corpus = make_extraction_corpus()
    return _corpus


class _criterion:
    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] criterion {self.number}: {self.description}", flush=True)
        return False


def _cached(name, builder):
    if name not in _report_cache:
        _report_cache[name] = canonical_dumps(builder())
    return _report_cache[name]


# ---------------------------------------------------------------- builders


def build_threshold_report():
    rows = []
    for n in range(2, 13):
        spec = RhoFamilySpec(n)  # alpha = pi*(n-1)/4
        value = bell_value(rho_family(spec), BellSettings.xy(n))
        rows.append(
            {
                "n": n,
                "alpha": spec.alpha,
                "value": value,
                "expected": 2 ** ((n - 1) / 2) / (n + 1),
                "violation": bool(abs(value) > 1.0),
            }
        )
    return {"rows": rows}


def build_transpose_report():
    from itertools import combinations

    per_n = {}
    for n in range(4, 9):
        rho = rho_family(RhoFamilySpec(n))
        singles = [ppt_check(rho, (k,)).min_eigenvalue for k in range(1, n + 1)]
        pairs = [
            ppt_check(rho, pair).min_eigenvalue
            for pair in combinations(range(1, n + 1), 2)
        ]
        per_n[str(n)] = {"singles": singles, "pairs": pairs}
    return {"min_eigenvalues": per_n}


def build_equivalence_report():
    devs = {}
    for n in range(2, 11):
        b = bell_matrix(BellSettings.xy(n))
        devs[str(n)] = float(np.max(np.abs(b - closed_form_xy(n))))
    return {"max_entrywise_deviation": devs}


def build_ghz_max_report():
    rows = {}
    for n in range(2, 11):
        beta = np.pi * (n - 1) / 4
        xy = BellSettings.xy(n)
        value = bell_value(pure_operator(ghz(n, beta)), xy)
        flips = []
        for k in range(1, n + 1):
            flips.extend(abs(bell_value(p, xy)) for p in flip_projectors(n, k))
        rows[str(n)] = {"ghz_value": value, "flip_traces_max": max(flips)}
    return {"rows": rows}


def build_optimizer_report():
    rho8 = rho_family(RhoFamilySpec(8))
    _, value8 = optimize_settings(rho8, restarts=16, tol=1e-10, seed=0)
    phi = PureState(PartyLayout.qubits(2), np.array([1, 0, 0, 1]) / np.sqrt(2))
    _, value2 = optimize_settings(pure_operator(phi), restarts=16, seed=0)
    _, value_sep = optimize_settings(separable_fixture(n=3, terms=6, seed=11), restarts=16, seed=0)
    return {"rho8": value8, "two_qubit": value2, "separable": value_sep}


def build_extraction_report():
    cases = {}
    for case_id, psi in _corpus_states():
        res = extract(psi)
        full = replay(psi, res.steps)
        reduced = reduce_to_parties(full, res.pair)
        fidelity = float(
            abs(np.vdot(reduced.amplitudes, res.final_state.amplitudes)) ** 2
        )
        cases[case_id] = {
            "probability": res.probability,
            "replay_fidelity": fidelity,
            "coeffs": [float(c) for c in res.schmidt_coeffs],
        }
    ghz_probs = {}
    for n in (3, 4, 5, 6):
        ghz_probs[str(n)] = extract(ghz(n, 0.0)).probability
    return {"cases": cases, "ghz_probabilities": ghz_probs}


# ---------------------------------------------------------------- criteria


def test_criterion_1_threshold_table():
    with _criterion(1, "threshold table matches 2^((N-1)/2)/(N+1), violation iff N >= 8"):
        start = time.perf_counter()
        report = json.loads(_cached("threshold", build_threshold_report))
        elapsed = time.perf_counter() - start
        for row in report["rows"]:
            assert abs(row["value"] - row["expected"]) <= 1e-10, row
            assert row["violation"] == (row["n"] >= 8), row
            if row["n"] == 7:
                assert abs(row["value"] - 1.0) <= 1e-10
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


def test_criterion_2_partial_transpose_structure():
    with _criterion(2, "single cuts PPT and pair cuts NPT for N = 4..8"):
        start = time.perf_counter()
        report = json.loads(_cached("transpose", build_transpose_report))
        elapsed = time.perf_counter() - start
        for n, data in report["min_eigenvalues"].items():
            for eig in data["singles"]:
                assert eig >= -1e-9, (n, eig)
            for eig in data["pairs"]:
                assert eig < -1e-9, (n, eig)
        assert elapsed < 120.0, f"transpose checks took {elapsed:.1f}s"


def test_criterion_3_recursion_equals_closed_form():
    with _criterion(3, "recursion equals the x/y closed form entrywise for N = 2..10"):
        report = json.loads(_cached("equivalence", build_equivalence_report))
        for n, dev in report["max_entrywise_deviation"].items():
            assert dev <= 1e-12, (n, dev)


def test_criterion_4_ghz_maximum_and_flip_blindness():
    with _criterion(4, "GHZ expectation reaches 2^((N-1)/2); flip projectors trace to 0"):
        report = json.loads(_cached("ghz_max", build_ghz_max_report))
        for n, row in report["rows"].items():
            assert abs(row["ghz_value"] - 2 ** ((int(n) - 1) / 2)) <= 1e-10, (n, row)
            assert row["flip_traces_max"] <= 1e-12, (n, row)


def test_criterion_5_optimizer_adequacy():
    with _criterion(5, "optimizer reaches the x/y value, the two-qubit maximum, and respects separable bound"):
        report = json.loads(_cached("optimizer", build_optimizer_report))
        assert report["rho8"] >= 2**3.5 / 9 - 1e-6, report["rho8"]
        assert report["two_qubit"] >= np.sqrt(2) - 1e-6, report["two_qubit"]
        grid = planar_grid_oracle(1.0)  # brute-force two-qubit maximum
        assert abs(grid - np.sqrt(2)) < 3e-4
        assert report["two_qubit"] >= grid - 1e-9
        assert report["separable"] <= 1.0 + 1e-8, report["separable"]


def test_criterion_6_extraction_suite():
    with _criterion(6, "200 seeded extractions succeed with maximal pairs; GHZ runs are deterministic"):
        report = json.loads(_cached("extraction", build_extraction_report))
        cases = report["cases"]
        assert len(cases) == 200
        with open(FIXTURES / "extraction_probs.json", encoding="utf-8") as f:
            frozen = json.load(f)
        for case_id, data in cases.items():
            assert data["probability"] > 0.0, case_id
            assert data["replay_fidelity"] >= 1 - 1e-8, (case_id, data)
            for c in data["coeffs"]:
                assert abs(c - INV_SQRT2) <= 1e-8, (case_id, data)
            assert abs(data["probability"] - frozen[case_id]) <= 1e-10, case_id
        for n, prob in report["ghz_probabilities"].items():
            assert abs(prob - 1.0) <= 1e-10, (n, prob)


def test_criterion_7_determinism():
    with _criterion(7, "repeating criteria 1-6 yields byte-identical reports"):
        builders = {
            "threshold": build_threshold_report,
            "transpose": build_transpose_report,
            "equivalence": build_equivalence_report,
            "ghz_max": build_ghz_max_report,
            "optimizer": build_optimizer_report,
            "extraction": build_extraction_report,
        }
        for name, builder in builders.items():
            first = _cached(name, builder)
            second = canonical_dumps(builder())
            assert first == second, f"report {name!r} changed between runs"
