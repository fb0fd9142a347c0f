"""State constructors: GHZ, the mixed family, random states."""

import numpy as np
import pytest

from boundbell import (
    PartyLayout,
    RhoFamilySpec,
    default_alpha,
    ghz,
    hermitian_eigenvalues,
    random_pure,
    rho_family,
    schmidt,
)
from helpers import dense_matrix, flip_projectors


def test_ghz_amplitudes():
    psi = ghz(2, 0.0)
    np.testing.assert_allclose(
        psi.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15
    )
    psi = ghz(3, np.pi)
    assert abs(psi.amplitudes[7] - (-1 / np.sqrt(2))) < 1e-12
    assert np.all(psi.amplitudes[1:7] == 0)


def test_ghz_schmidt_phase_independent():
    coeffs, _, _ = schmidt(ghz(4, 0.3), (1,))
    np.testing.assert_allclose(coeffs, [2**-0.5, 2**-0.5], atol=1e-12)


def test_ghz_requires_two_parties():
    with pytest.raises(ValueError):
        ghz(1, 0.0)


def test_ghz_rejects_a_non_finite_phase():
    for alpha in (np.inf, np.nan):
        with pytest.raises(ValueError, match="alpha must be finite"):
            ghz(3, alpha)


def test_family_spec_defaults():
    spec = RhoFamilySpec(6)
    assert abs(spec.alpha - default_alpha(6)) < 1e-15
    assert abs(RhoFamilySpec(6, 0.25).alpha - 0.25) < 1e-15
    with pytest.raises(ValueError):
        RhoFamilySpec(1)
    with pytest.raises(ValueError):
        RhoFamilySpec(4, float("nan"))
    for n in (4.7, 2.5, "4", float("nan")):  # rejected, not cut to an integer
        with pytest.raises(ValueError):
            RhoFamilySpec(n)
    assert RhoFamilySpec(4.0).n == RhoFamilySpec(np.int64(4)).n == 4
    assert type(RhoFamilySpec(np.int64(4)).n) is int


def test_family_diagonal_entries():
    for n in (2, 4, 6):
        rho = rho_family(RhoFamilySpec(n, 0.1))
        want = 1.0 / (2 * (n + 1))
        assert abs(dense_matrix(rho)[0, 0].real - want) < 1e-15
        if n >= 3:  # flip indices distinct from each other only for n >= 3
            for k in range(1, n + 1):
                for idx in (1 << (n - k), 2**n - 1 - (1 << (n - k))):  # and its complement
                    assert abs(dense_matrix(rho)[idx, idx].real - want) < 1e-15


def test_family_rank_counts_projector_pieces():
    # GHZ projector plus 2N mutually orthogonal rank-1 projectors
    rho = rho_family(RhoFamilySpec(4, 0.7))
    eigs = hermitian_eigenvalues(dense_matrix(rho))
    assert int(np.sum(eigs > 1e-12)) == 9


def test_family_equals_projector_sum_bit_exact():
    # an oracle independent of the family module: 1/2 of every flip projector
    # summed densely, the GHZ projector's four corners written out, all over
    # N+1; compared byte for byte, so signed zeros count too
    for n in range(2, 11):
        flips = np.zeros((2**n, 2**n), dtype=complex)
        for k in range(1, n + 1):
            pk, pkbar = flip_projectors(n, k)
            flips += 0.5 * dense_matrix(pk)
            flips += 0.5 * dense_matrix(pkbar)
        for alpha in (0.0, -0.0, 0.4 * n, -2.5, np.pi, default_alpha(n)):
            phase = np.exp(1j * alpha)
            acc = flips.copy()  # the flip entries never reach the corners
            acc[0, 0] = acc[-1, -1] = 0.5
            acc[0, -1], acc[-1, 0] = 0.5 * np.conj(phase), 0.5 * phase
            acc *= 1.0 / (n + 1)
            rho = rho_family(RhoFamilySpec(n, alpha))
            assert dense_matrix(rho).tobytes() == acc.tobytes(), (n, alpha)


def test_ghz_projector_matches_outer_product():
    # the family's four corners, times N+1, are the GHZ projector: the flip
    # entries never reach |0..0> or |1..1>, and the outer product is 0 elsewhere
    for n, alpha in [(2, 0.0), (3, 1.1), (5, -0.4)]:
        psi = ghz(n, alpha)
        outer = np.outer(psi.amplitudes, psi.amplitudes.conj())
        corners = np.ix_([0, -1], [0, -1])
        scaled = (n + 1) * dense_matrix(rho_family(RhoFamilySpec(n, alpha)))[corners]
        np.testing.assert_allclose(scaled, outer[corners], atol=1e-15)
        assert np.count_nonzero(outer) == 4


def test_family_trace_one():
    for n in range(2, 13):
        rho = rho_family(RhoFamilySpec(n))
        assert abs(rho.trace - 1.0) < 1e-12


def test_family_psd():
    for n in range(2, 11):
        rho = rho_family(RhoFamilySpec(n))
        assert hermitian_eigenvalues(dense_matrix(rho))[0] >= -1e-10


def test_family_alpha_touches_only_ghz_corners():
    n = 5
    base = dense_matrix(rho_family(RhoFamilySpec(n, 0.2)))
    other = dense_matrix(rho_family(RhoFamilySpec(n, 1.9)))
    d = base.shape[0]
    corners = {(0, d - 1), (d - 1, 0)}
    diff = np.argwhere(base != other)
    assert {tuple(x) for x in diff} == corners


def test_random_pure_deterministic_and_normalized():
    layout = PartyLayout((2, 2, 2))
    a = random_pure(layout, 123)
    b = random_pure(layout, 123)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert not np.array_equal(a.amplitudes, random_pure(layout, 124).amplitudes)
    assert np.array_equal(a.amplitudes, random_pure(layout, np.int64(123)).amplitudes)
    for bad in (123.7, 1.7, "123"):  # rejected, not cut to an integer
        with pytest.raises(ValueError):
            random_pure(layout, bad)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
        random_pure(layout, -1)
    for seed in range(100):
        psi = random_pure(layout, seed)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


def test_random_pure_generic_full_rank():
    layout = PartyLayout((2, 2, 2))
    full = 0
    for seed in range(1000):
        psi = random_pure(layout, seed)
        if all(schmidt(psi, (p,))[0].size == 2 for p in (1, 2, 3)):
            full += 1
    assert full == 1000  # full Schmidt rank everywhere is measure-one
