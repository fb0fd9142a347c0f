"""Bell operator product form, closed form, expectations, and optimization."""

import math

import numpy as np
import pytest

from boundbell import (
    BellSettings,
    DensityOperator,
    PartyLayout,
    PureState,
    RhoFamilySpec,
    bell_value,
    ghz,
    optimize_settings,
    random_pure,
    rho_family,
)
from boundbell.family import entries_bell_value
from boundbell.serialize import operator_entries_from_obj, operator_from_obj
from helpers import (
    bell_matrix,
    bell_matrix_recursion,
    closed_form_xy,
    dense_matrix,
    dense_operator,
    flip_projectors,
    planar_grid_oracle,
    pure_operator,
    random_density,
    random_sparse_hermitian,
    reference_bell_value,
    reference_optimize,
    separable_fixture,
    symmetric_qubit_operator,
    traced_peak,
)


def phi_plus_density():
    psi = PureState(PartyLayout.qubits(2), np.array([1, 0, 0, 1]) / np.sqrt(2))
    return pure_operator(psi)


# ---------------------------------------------------------------- settings


def test_settings_validation():
    with pytest.raises(ValueError):
        BellSettings(((1.0, 0.0, 0.0),), ((0.0, 2.0, 0.0),))
    with pytest.raises(ValueError):
        BellSettings(((1.0, 0.0, 0.0),), ())
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            BellSettings(((bad, 0.0, 0.0),), ((0.0, 1.0, 0.0),))
    xy = BellSettings.xy(3)
    assert xy.num_parties == 3


# ---------------------------------------------------------------- product form


def test_xy_value_matches_closed_form_small():
    rho = random_density(PartyLayout.qubits(3), seed=3)
    expected = np.einsum("ij,ji->", closed_form_xy(3), dense_matrix(rho)).real
    assert abs(bell_value(rho, BellSettings.xy(3)) - expected) <= 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_product_form_matches_recursion_oracle(n):
    vecs = np.random.default_rng(100 + n).standard_normal((2 * n, 3))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    settings = BellSettings(tuple(map(tuple, vecs[:n])), tuple(map(tuple, vecs[n:])))
    oracle = bell_matrix_recursion(vecs[:n], vecs[n:])
    rho = random_density(PartyLayout.qubits(n), seed=n)
    expected = np.einsum("ij,ji->", oracle, dense_matrix(rho)).real
    assert abs(bell_value(rho, settings) - expected) <= 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_recursion_closed_form_equivalence(n):
    b = bell_matrix(BellSettings.xy(n))
    assert np.max(np.abs(b - closed_form_xy(n))) <= 1e-12


def test_bell_value_degenerate_settings():
    # a = a' makes the difference term vanish: B_2 = sx (x) sx
    x = (1.0, 0.0, 0.0)
    settings = BellSettings((x, x), (x, x))
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sxsx = np.kron(sx, sx)
    np.testing.assert_allclose(bell_matrix(settings), sxsx, atol=1e-15)
    rho = random_density(PartyLayout.qubits(2), seed=5)
    expected = np.einsum("ij,ji->", sxsx, dense_matrix(rho)).real
    assert abs(bell_value(rho, settings) - expected) <= 1e-15


def test_ghz_expectation_two_parties():
    rho = pure_operator(ghz(2, np.pi / 4))
    value = bell_value(rho, BellSettings.xy(2))
    assert abs(value - np.sqrt(2)) < 1e-12


# ---------------------------------------------------------------- closed form


def test_closed_form_entries():
    c2 = closed_form_xy(2)
    assert abs(c2[3, 0] - np.sqrt(2) * np.exp(1j * np.pi / 4)) < 1e-12
    assert np.count_nonzero(c2) == 2
    c8 = closed_form_xy(8)
    assert abs(abs(c8[255, 0]) - 2**3.5) < 1e-12


@pytest.mark.parametrize("n", [2, 4, 6])
def test_closed_form_spectrum(n):
    eigs = np.sort(np.linalg.eigvalsh(closed_form_xy(n)))
    top = 2 ** ((n - 1) / 2)
    assert abs(eigs[0] + top) < 1e-12
    assert abs(eigs[-1] - top) < 1e-12
    assert np.max(np.abs(eigs[1:-1])) < 1e-12


# ---------------------------------------------------------------- expectation


def test_bell_value_threshold_examples():
    v8 = bell_value(rho_family(RhoFamilySpec(8)), BellSettings.xy(8))
    assert abs(v8 - 2**3.5 / 9) < 1e-10
    assert v8 > 1
    v7 = bell_value(rho_family(RhoFamilySpec(7)), BellSettings.xy(7))
    assert abs(v7 - 1.0) < 1e-10


def test_bell_value_maximally_mixed():
    layout = PartyLayout.qubits(3)
    rho = dense_operator(layout, np.eye(8) / 8)
    assert abs(bell_value(rho, BellSettings.xy(3))) < 1e-14


@pytest.mark.parametrize("n", range(2, 9))
def test_bell_value_and_optimizer_match_dense_oracle(n):
    vecs = np.random.default_rng(200 + n).standard_normal((2 * n, 3))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    settings = BellSettings(tuple(map(tuple, vecs[:n])), tuple(map(tuple, vecs[n:])))
    layout = PartyLayout.qubits(n)
    states = [
        rho_family(RhoFamilySpec(n, 0.9 * n)),
        random_density(layout, seed=n),
        random_sparse_hermitian(layout, seed=n),
    ]
    for rho in states:
        dense = np.einsum("ij,ji->", bell_matrix(settings), dense_matrix(rho)).real
        assert abs(bell_value(rho, settings) - dense) <= 1e-12
        best, value = optimize_settings(rho, restarts=1, seed=n, max_sweeps=2)
        dense = np.einsum("ij,ji->", bell_matrix(best), dense_matrix(rho)).real
        assert abs(value - dense) <= 1e-12


def test_bell_value_layout_mismatch():
    rho = rho_family(RhoFamilySpec(3))
    with pytest.raises(ValueError):
        bell_value(rho, BellSettings.xy(4))


def test_ghz_gives_quantum_maximum():
    for n in range(2, 9):
        beta = np.pi * (n - 1) / 4
        rho = pure_operator(ghz(n, beta))
        value = bell_value(rho, BellSettings.xy(n))
        assert abs(value - 2 ** ((n - 1) / 2)) < 1e-10


def test_flip_projectors_are_blind_to_the_operator():
    for n in (3, 5, 7):
        b = bell_matrix(BellSettings.xy(n))
        for k in range(1, n + 1):
            for p in flip_projectors(n, k):
                assert abs(np.einsum("ij,ji->", b, dense_matrix(p))) < 1e-12
                assert abs(bell_value(p, BellSettings.xy(n))) < 1e-12


def test_expectation_affine_in_each_direction():
    # convex combinations of one direction vector (evaluated unnormalized)
    rng = np.random.default_rng(8)
    rho = dense_matrix(rho_family(RhoFamilySpec(3, 0.8)))
    base = rng.standard_normal((6, 3))
    base /= np.linalg.norm(base, axis=1)[:, None]
    a, ap = base[:3].copy(), base[3:].copy()
    for j in range(3):
        for target in (a, ap):
            v1 = rng.standard_normal(3)
            v2 = rng.standard_normal(3)
            saved = target[j].copy()
            values = []
            for vec in (v1, v2):
                target[j] = vec
                values.append(np.einsum("ij,ji->", bell_matrix_recursion(a, ap), rho).real)
            c = float(rng.uniform(0, 1))
            target[j] = c * v1 + (1 - c) * v2
            mixed = np.einsum("ij,ji->", bell_matrix_recursion(a, ap), rho).real
            target[j] = saved
            assert abs(mixed - (c * values[0] + (1 - c) * values[1])) < 1e-10


def test_operator_norm_bound():
    def norm(settings):
        return np.max(np.abs(np.linalg.eigvalsh(bell_matrix(settings))))

    rng = np.random.default_rng(12)
    for n in (2, 3, 4, 5):
        for _ in range(3):
            vecs = rng.standard_normal((2 * n, 3))
            vecs /= np.linalg.norm(vecs, axis=1)[:, None]
            settings = BellSettings(
                tuple(tuple(v) for v in vecs[:n]), tuple(tuple(v) for v in vecs[n:])
            )
            assert norm(settings) <= 2 ** ((n - 1) / 2) + 1e-8
    assert norm(BellSettings.xy(8)) <= 2**3.5 + 1e-8


# ---------------------------------------------------------------- optimizer


def test_optimizer_two_qubit_maximum_vs_grid_oracle():
    settings, value = optimize_settings(phi_plus_density(), restarts=8, seed=2)
    assert value >= np.sqrt(2) - 1e-6
    grid = planar_grid_oracle(1.0)
    assert abs(grid - np.sqrt(2)) < 3e-4  # grid resolution limit
    assert value >= grid - 1e-9
    # the returned settings reproduce the returned value
    assert abs(bell_value(phi_plus_density(), settings) - value) < 1e-10


def test_optimizer_separable_fixture_bounded():
    rho = separable_fixture(n=3, terms=6, seed=11)
    _, value = optimize_settings(rho, restarts=8, seed=3)
    assert value <= 1.0 + 1e-8


def test_optimizer_deterministic():
    rho = phi_plus_density()
    s1, v1 = optimize_settings(rho, restarts=4, seed=9)
    s2, v2 = optimize_settings(rho, restarts=4, seed=9)
    assert v1 == v2
    assert s1.a == s2.a and s1.a_prime == s2.a_prime


def test_optimizer_zero_gradient_state():
    # maximally mixed state: every gradient vanishes, vectors stay put
    layout = PartyLayout.qubits(2)
    rho = dense_operator(layout, np.eye(4) / 4)
    _, value = optimize_settings(rho, restarts=2, seed=0)
    assert abs(value) < 1e-12


def test_optimizer_eleven_qubits_one_sweep():
    rho = rho_family(RhoFamilySpec(11))
    settings, value = optimize_settings(rho, restarts=1, seed=0, max_sweeps=1)
    assert abs(bell_value(rho, settings) - value) <= 1e-10


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_optimizer_rejects_nan_and_infinite_tolerance(tol):
    # NaN would never stop a restart early; +inf would stop every one after a sweep
    with pytest.raises(ValueError, match="tolerance"):
        optimize_settings(rho_family(RhoFamilySpec(6)), restarts=1, tol=tol)


def test_optimizer_minus_infinite_tolerance_runs_every_sweep():
    # -inf stops only at max_sweeps: one sweep gives 0.80159 here, all of
    # them the x/y maximum 2^(5/2)/7
    rho = rho_family(RhoFamilySpec(6))
    _, one_sweep = optimize_settings(rho, restarts=1, seed=0, tol=-math.inf, max_sweeps=1)
    _, full = optimize_settings(rho, restarts=1, seed=0, tol=-math.inf)
    assert abs(one_sweep - 0.80159) < 1e-5
    assert abs(full - 2**2.5 / 7) <= 1e-9


def test_optimizer_rejects_large_or_qutrit_layouts():
    with pytest.raises(ValueError):
        optimize_settings(separable_fixture(n=3), restarts=0)
    qutrit = dense_operator(PartyLayout((3,)), np.eye(3) / 3)
    with pytest.raises(ValueError):
        optimize_settings(qutrit)


@pytest.mark.parametrize(
    "kwargs",
    [{"seed": 1.7}, {"restarts": 1.5}, {"max_sweeps": 2.5}, {"max_sweeps": -1}, {"seed": "3"},
     {"seed": -1}],
    ids=["fractional_seed", "fractional_restarts", "fractional_sweeps", "negative_sweeps",
         "str_seed", "negative_seed"],
)
def test_optimizer_rejects_non_integer_or_negative_counts(kwargs):
    with pytest.raises(ValueError):
        optimize_settings(rho_family(RhoFamilySpec(3)), **kwargs)


def test_optimizer_accepts_numpy_integers_and_zero_sweeps():
    rho = rho_family(RhoFamilySpec(4))
    s1, v1 = optimize_settings(rho, restarts=np.int64(2), seed=np.int64(5), max_sweeps=np.int64(4))
    s2, v2 = optimize_settings(rho, restarts=2, seed=5, max_sweeps=4)
    assert repr((s1.a, s1.a_prime, v1)) == repr((s2.a, s2.a_prime, v2))
    # zero sweeps score the random start of each restart and keep the best
    start, value = optimize_settings(rho, restarts=1, seed=5, max_sweeps=0)
    assert value == bell_value(rho, start)


# ------------------------------------------------- bit identity with the reference


def _bit_identity_cases():
    cases = [(rho_family(RhoFamilySpec(n)), f"family{n}") for n in range(2, 13)]
    # exact cancellations in the gradient sums, where a zero's sign could slip
    for n in range(2, 13):
        for alpha in (0.0, -0.0, math.pi / 2, math.pi):
            cases.append((rho_family(RhoFamilySpec(n, alpha)), f"family{n}@{alpha!r}"))
    for n in (3, 4, 5, 6):
        cases.append((symmetric_qubit_operator(n), f"symmetric{n}"))
        cases.append((symmetric_qubit_operator(n, full=True), f"symmetric_full{n}"))
    for n in (2, 3, 4, 5):
        layout = PartyLayout.qubits(n)
        cases.append((random_density(layout, 40 + n), f"density{n}"))
        cases.append((random_sparse_hermitian(layout, 50 + n), f"sparse{n}"))
    # every gradient is exactly zero: the directions keep their random starts
    cases.append((DensityOperator(PartyLayout.qubits(2), [0, 1, 2, 3], [0, 1, 2, 3], [0.25] * 4), "mixed2"))
    return cases


def test_optimizer_bit_identical_to_reference():
    # repr equality: values and directions to the last bit, signed zeros included
    for rho, name in _bit_identity_cases():
        for seed in (0, 1, 7):
            for restarts, tol, sweeps in ((2, 1e-10, 500), (1, -math.inf, 3), (1, -math.inf, 0)):
                settings, value = optimize_settings(
                    rho, restarts=restarts, tol=tol, seed=seed, max_sweeps=sweeps
                )
                got = (settings.a, settings.a_prime, value)
                want = reference_optimize(rho, restarts, tol, seed, sweeps)
                assert repr(got) == repr(want), (name, seed, restarts)
                assert repr(bell_value(rho, settings)) == repr(
                    reference_bell_value(rho, settings.a, settings.a_prime)
                ), name


def test_bell_value_bit_identical_to_reference_on_axis_settings():
    # axis-aligned directions make most factor components exact zeros
    axes = [tuple(float(s * (i == k)) for i in range(3)) for k in range(3) for s in (1, -1)]
    rng = np.random.default_rng(17)
    for rho, name in _bit_identity_cases():
        n = rho.layout.num_parties
        for _ in range(12):
            a = tuple(axes[i] for i in rng.integers(0, 6, n))
            ap = tuple(axes[i] for i in rng.integers(0, 6, n))
            got = bell_value(rho, BellSettings(a, ap))
            assert repr(got) == repr(reference_bell_value(rho, a, ap)), name


def test_optimizer_restart_memory_on_dense_input():
    # one 3-sweep restart on a dense 9-qubit operator (262,144 entries) peaks
    # at about 72 MiB: the 8 N nnz code table (18 MiB), the 2 N nnz bin table
    # (4.5 MiB) and 16 (N+1) nnz of suffix products (40 MiB); one more code
    # table would pass 80 MiB
    rho = pure_operator(random_pure(PartyLayout.qubits(9), 3))
    _, peak = traced_peak(
        lambda: optimize_settings(rho, restarts=1, seed=0, tol=-math.inf, max_sweeps=3)
    )
    assert peak < 80 * 2**20, peak


def _random_operator_file(n: int, rng) -> dict:
    """A Hermitian trace-1 operator file over n qubits with up to 1,000 random
    entries (unit total modulus, so values stay O(1)), usually not PSD."""
    dim = 2**n
    entries = {}
    for r, c in rng.integers(0, dim, size=(int(rng.integers(1, 500)), 2)).tolist():
        v = complex(*rng.standard_normal(2)) / 500
        entries[r, c] = complex(v.real) if r == c else v
        entries[c, r] = entries[r, c].conjugate()
    entries[0, 0] = entries.get((0, 0), 0j) + 1.0 - sum(v.real for (r, c), v in entries.items() if r == c)
    return {"dims": [2] * n, "entries": [[r, c, v.real, v.imag] for (r, c), v in entries.items()]}


def _random_unit(rng) -> tuple[float, float, float]:
    v = rng.standard_normal(3)
    return tuple((v / np.linalg.norm(v)).tolist())


@pytest.mark.parametrize("n", range(1, 11))
def test_plain_bell_value_matches_bell_value(n):
    # the plain path of ``bell --input`` against the numpy path, to rounding
    rng = np.random.default_rng(2100 + n)
    for _ in range(8):
        obj = _random_operator_file(n, rng)
        settings = BellSettings(
            tuple(_random_unit(rng) for _ in range(n)), tuple(_random_unit(rng) for _ in range(n))
        )
        rho, plain = operator_from_obj(obj), operator_entries_from_obj(obj)
        assert set(plain.entries) == set(zip(rho.rows.tolist(), rho.cols.tolist(), rho.vals.tolist()))
        assert entries_bell_value(plain, settings) == pytest.approx(bell_value(rho, settings), abs=1e-12)


def test_plain_bell_value_keeps_overflowing_terms():
    # trace 1 and Hermitian, but the coherence times M = i overflows in the
    # sum: the plain path returns what the numpy path does, not an error
    obj = {"dims": [2], "entries": [[0, 0, 1.0, 0.0], [0, 1, 1.5e308, 0.0], [1, 0, 1.5e308, 0.0]]}
    settings = BellSettings(((0.0, 0.0, 1.0),), ((1.0, 0.0, 0.0),))
    plain = entries_bell_value(operator_entries_from_obj(obj), settings)
    with np.errstate(invalid="ignore", over="ignore"):
        want = bell_value(operator_from_obj(obj), settings)
    assert repr(plain) == repr(want)
