"""Tensor-core tests: encoding, partial ops, eigensolves, Schmidt, filters."""

import itertools

import numpy as np
import pytest

from boundbell import (
    BellSettings,
    DensityOperator,
    FilterOperator,
    PartyLayout,
    PureState,
    apply_local,
    bell_value,
    classify_family,
    ghz,
    hermitian_eigenvalues,
    optimize_settings,
    partial_transpose,
    ppt_check,
    random_pure,
    rho_family,
    RhoFamilySpec,
    schmidt,
)
from helpers import (
    basis_state,
    brute_reduced_operator,
    dense_matrix,
    dense_operator,
    dense_partial_transpose,
    digits_to_index,
    index_to_digits,
    partial_trace,
    pure_operator,
    raises_value_error,
    random_density,
    random_sparse_hermitian,
    reference_schmidt,
    tensor_product,
    tensordot_apply_local,
    traced_peak,
    transpose_matricize,
)
from boundbell.tensor import _TIE_TOL, _matricize, _party_matrix


def qubit(amp0, amp1):
    amps = np.array([amp0, amp1], dtype=complex)
    return PureState(PartyLayout((2,)), amps / np.linalg.norm(amps))


def bell_phi_plus():
    return PureState(PartyLayout.qubits(2), np.array([1, 0, 0, 1]) / np.sqrt(2))


# ---------------------------------------------------------------- layout


def test_layout_validation():
    with pytest.raises(ValueError):
        PartyLayout(())
    with pytest.raises(ValueError):
        PartyLayout((2, 1))
    with pytest.raises(ValueError):
        PartyLayout((2,) * 32)  # int64 entry keys rows * dim + cols would wrap
    assert PartyLayout((2,) * 31).dim == 2**31  # no dense cap on a layout
    with pytest.raises(ValueError):
        PartyLayout((3037000500,))  # dim**2 just above 2**63 - 1
    assert PartyLayout((3037000499,)).num_parties == 1
    layout = PartyLayout((2, 3, 2))
    assert layout.dim == layout.dense_dim == 12
    assert PartyLayout.qubits(12).dense_dim == 4096
    assert layout.num_parties == 3
    assert layout.dim_of(2) == 3


def test_layout_compares_hashes_and_prints_by_dims_alone():
    # dim is computed once, at construction, and kept out of eq, hash and repr
    a, b = PartyLayout((2, 3)), PartyLayout((np.int64(2), 3))
    assert a == b and hash(a) == hash(b) and {a: "x"}[b] == "x"
    assert repr(a) == "PartyLayout(dims=(2, 3))"
    assert a != PartyLayout((3, 2)) and a.dim == PartyLayout((3, 2)).dim == 6
    assert PartyLayout(dims=(2, 2, 2)).dim == 8  # dim is derived, never passed in
    with pytest.raises(TypeError):
        PartyLayout((2, 3), dim=7)
    with pytest.raises(AttributeError):
        a.dim = 7
    assert a.dim == 6


def test_layout_rejects_non_integral_dims():
    for dims in [(2.9, 2), (2, 2.5), ("2", 2), (float("nan"), 2), (float("inf"), 2)]:
        with pytest.raises(ValueError):
            PartyLayout(dims)
    assert PartyLayout((2.0, np.int64(3))).dims == (2, 3)
    assert all(type(d) is int for d in PartyLayout((2.0, np.int64(3))).dims)


@pytest.mark.parametrize(
    "dims", [(2,) * 12, (2, 3, 2), (3,) * 7, (4, 4, 4, 4), (2, 3, 4, 5)]
)
def test_encoding_round_trip(dims):
    layout = PartyLayout(dims)
    for index in range(layout.dim):
        digits = index_to_digits(layout, index)
        assert digits_to_index(layout, digits) == index


def test_encoding_party_one_most_significant():
    layout = PartyLayout.qubits(4)
    # the single 1 at party k maps to index 2**(N-k)
    for k, index in [(1, 8), (2, 4), (3, 2), (4, 1)]:
        digits = [0, 0, 0, 0]
        digits[k - 1] = 1
        assert digits_to_index(layout, digits) == index


# ---------------------------------------------------------------- tensor product


def test_tensor_product_basis():
    zero = qubit(1, 0)
    one = qubit(0, 1)
    assert np.array_equal(
        tensor_product([zero, zero]).amplitudes, np.array([1, 0, 0, 0], dtype=complex)
    )
    out = tensor_product([one, zero, zero])
    assert out.amplitudes[4] == 1.0  # party 1 most significant


def test_tensor_product_linearity():
    plus = qubit(1, 1)
    zero = qubit(1, 0)
    out = tensor_product([plus, zero])
    expected = np.array([1, 0, 1, 0]) / np.sqrt(2)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)


def test_tensor_product_empty():
    with pytest.raises(ValueError):
        tensor_product([])


# ---------------------------------------------------------------- partial transpose


def test_partial_transpose_product_state():
    rho_a = random_density(PartyLayout((2,)), seed=3)
    rho_b = random_density(PartyLayout((3,)), seed=4)
    joint = dense_operator(PartyLayout((2, 3)), np.kron(dense_matrix(rho_a), dense_matrix(rho_b)))
    pt = partial_transpose(joint, (2,))
    expected = np.kron(dense_matrix(rho_a), dense_matrix(rho_b).T)
    np.testing.assert_array_equal(dense_matrix(pt), expected)
    assert np.min(np.linalg.eigvalsh(dense_matrix(pt))) > -1e-12  # still PSD


def test_partial_transpose_involution_bit_exact():
    rho = random_density(PartyLayout((2, 3, 2)), seed=9)
    for subset in [(1,), (2,), (1, 3), (1, 2, 3)]:
        twice = partial_transpose(partial_transpose(rho, subset), subset)
        assert np.array_equal(dense_matrix(twice), dense_matrix(rho))


def test_partial_transpose_linearity_and_trace():
    layout = PartyLayout((2, 2))
    r1 = random_density(layout, seed=21)
    r2 = random_density(layout, seed=22)
    mix = dense_operator(layout, 0.3 * dense_matrix(r1) + 0.7 * dense_matrix(r2))
    pt_mix = partial_transpose(mix, (2,))
    combo = 0.3 * dense_matrix(partial_transpose(r1, (2,))) + 0.7 * dense_matrix(partial_transpose(r2, (2,)))
    np.testing.assert_allclose(dense_matrix(pt_mix), combo, atol=1e-15)
    assert abs(pt_mix.trace - mix.trace) < 1e-14


def test_partial_transpose_max_entangled_negative():
    rho = pure_operator(bell_phi_plus())
    pt = partial_transpose(rho, (2,))
    eigs = hermitian_eigenvalues(dense_matrix(pt))
    assert abs(eigs[0] - (-0.5)) < 1e-12
    # cross-check the spectrum against characteristic polynomial roots; the
    # triple root 1/2 limits that oracle to ~eps**(1/3) accuracy
    roots = np.sort(np.roots(np.poly(dense_matrix(pt))).real)
    np.testing.assert_allclose(eigs, roots, atol=1e-4, rtol=0)
    np.testing.assert_allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def _transpose_cases():
    for n in (2, 3, 5, 6):
        rho = rho_family(RhoFamilySpec(n, 0.3 * n))
        for subset in [(1,), (n,), (1, 2), tuple(range(1, n + 1))]:
            yield pytest.param(rho, subset, id=f"family{n}-{subset}")
    for dims in [(2, 3), (3, 2, 2), (2, 2, 2, 2)]:
        for seed, make in enumerate((random_density, random_sparse_hermitian)):
            rho = make(PartyLayout(dims), seed=seed + 3)
            for subset in [(1,), (2,), (1, len(dims))]:
                yield pytest.param(rho, subset, id=f"{make.__name__}{dims}-{subset}")


@pytest.mark.parametrize("rho, subset", _transpose_cases())
def test_partial_transpose_matches_dense_oracle(rho, subset):
    # values only move, so the sparse transpose equals the dense one exactly
    pt = partial_transpose(rho, subset)
    assert np.array_equal(dense_matrix(pt), dense_partial_transpose(rho, subset))
    keys = pt.rows * rho.layout.dim + pt.cols
    assert np.all(np.diff(keys) > 0) and np.all(pt.vals != 0)


def test_density_operator_canonical_entries():
    layout = PartyLayout((2, 3))
    rho = DensityOperator(layout, [5, 1, 0, 3], [5, 3, 0, 1], [0.5, 0.25j, 0.0, -0.25j])
    assert rho.rows.tolist() == [1, 3, 5] and rho.cols.tolist() == [3, 1, 5]
    assert rho.vals.tolist() == [0.25j, -0.25j, 0.5]  # sorted row-major, zero dropped
    for arr in (rho.rows, rho.cols, rho.vals):
        with pytest.raises(ValueError):
            arr[0] = 0
    for rows, cols, vals in [
        ([0, 0], [0, 0], [0.5, 0.5]),  # duplicate pair
        ([6], [6], [1.0]),  # out of range
        ([-1], [-1], [1.0]),  # negative
        ([0, 1], [1, 0], [0.5, 0.4]),  # not Hermitian
        ([0], [0], [1.0, 0.0]),  # length mismatch
        ([0.7, 1.9], [0.2, 1.0], [0.5, 0.5]),  # fractional: rejected, not cut to 0 and 1
        ([False, True], [False, True], [0.5, 0.5]),  # booleans are no indices
    ]:
        with pytest.raises(ValueError):
            DensityOperator(layout, rows, cols, vals)
    assert DensityOperator(layout, [], [], []).rows.size == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.5, float("nan"))])
def test_non_finite_values_rejected(bad):
    with pytest.raises(ValueError):
        DensityOperator(PartyLayout((2,)), [0, 1], [0, 1], [bad, 0.5])
    with pytest.raises(ValueError):
        dense_operator(PartyLayout((2,)), np.array([[bad, 0], [0, 0.5]]))
    with pytest.raises(ValueError):
        PureState(PartyLayout((2,)), np.array([bad, 1.0]))


@pytest.mark.parametrize("n", [12, 31])
@pytest.mark.parametrize(
    "job",
    [
        lambda n: classify_family(n),
        lambda n: bell_value(rho_family(RhoFamilySpec(n)), BellSettings.xy(n)),
        lambda n: optimize_settings(rho_family(RhoFamilySpec(n)), restarts=1, max_sweeps=1),
    ],
    ids=["classify", "bell_value", "optimizer_sweep"],
)
def test_family_paths_never_build_a_dense_operator(job, n):
    # one dense 12-qubit operator is 256 MiB; the sparse family has 2N+4 entries
    _, peak = traced_peak(lambda: job(n))
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize(
    "job",
    [
        lambda: ghz(13, 0.0),
        lambda: random_pure(PartyLayout.qubits(31), seed=0),
        lambda: dense_matrix(rho_family(RhoFamilySpec(13))),
        lambda: PureState(PartyLayout.qubits(31), [1.0]),
        lambda: dense_operator(PartyLayout.qubits(13), np.eye(1)),
    ],
    ids=["ghz", "random_pure", "matrix", "pure_state", "from_dense"],
)
def test_dense_allocations_above_the_cap_are_refused(job):
    refused, peak = traced_peak(lambda: raises_value_error(job))
    assert refused
    assert peak < 4 * 2**20, peak


def test_partial_transpose_bad_party():
    rho = random_density(PartyLayout((2, 2)), seed=1)
    with pytest.raises(ValueError):
        partial_transpose(rho, (3,))


# ---------------------------------------------------------------- partial trace


def test_partial_trace_ghz_marginal():
    rho = pure_operator(ghz(3, 0.0))
    red = partial_trace(rho, (2, 3))
    np.testing.assert_allclose(dense_matrix(red), np.diag([0.5, 0.5]), atol=1e-15)


def test_partial_trace_product():
    rho_a = random_density(PartyLayout((2,)), seed=5)
    rho_b = random_density(PartyLayout((2,)), seed=6)
    joint = dense_operator(PartyLayout((2, 2)), np.kron(dense_matrix(rho_a), dense_matrix(rho_b)))
    red = partial_trace(joint, (2,))
    np.testing.assert_allclose(dense_matrix(red), dense_matrix(rho_a), atol=1e-14)


def test_partial_trace_family_marginal():
    # Expansion of the N=4 family: party-1 marginal collects 1/(2*5) from the
    # GHZ |0...0> corner, three single-flip projectors (flip at parties 2..4)
    # and the complement of the party-1 flip on the 0 side -- five halves of
    # 1/5 on each side, so diag(1/2, 1/2).
    rho = rho_family(RhoFamilySpec(4, 0.3))
    red = partial_trace(rho, (2, 3, 4))
    np.testing.assert_allclose(dense_matrix(red), np.diag([0.5, 0.5]), atol=1e-14)
    assert abs(red.trace - 1.0) < 1e-12


def test_partial_trace_all_parties_rejected():
    rho = random_density(PartyLayout((2, 2)), seed=7)
    with pytest.raises(ValueError):
        partial_trace(rho, (1, 2))


def test_partial_ops_commute_on_disjoint_subsets():
    rng = np.random.default_rng(42)
    for _ in range(5):
        layout = PartyLayout((2, 2, 3))
        rho = random_density(layout, seed=int(rng.integers(1, 10**6)))
        a = partial_trace(partial_transpose(rho, (1,)), (3,))
        b = partial_transpose(partial_trace(rho, (3,)), (1,))
        np.testing.assert_allclose(dense_matrix(a), dense_matrix(b), atol=1e-14)


# ---------------------------------------------------------------- eigensolver


def test_hermitian_eigenvalues_basics():
    half = dense_operator(PartyLayout((2,)), np.eye(2) / 2)
    np.testing.assert_allclose(hermitian_eigenvalues(dense_matrix(half)), [0.5, 0.5], atol=1e-15)
    diag = dense_operator(PartyLayout((2,)), np.diag([0.1, 0.9]))
    np.testing.assert_allclose(hermitian_eigenvalues(dense_matrix(diag)), [0.1, 0.9], atol=1e-15)


def test_hermitian_eigenvalues_sum_and_order():
    for seed in range(5):
        rho = random_density(PartyLayout((2, 3)), seed=100 + seed)
        vals = hermitian_eigenvalues(dense_matrix(rho))
        d = rho.layout.dim
        assert abs(vals.sum() - rho.trace) < 1e-9 * d
        assert np.all(np.diff(vals) >= -1e-14)


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eigenvalues_with_a_tiny_entry_pair():
    # LAPACK's values-only solver gives -0.4472135954999579 here; the spectrum is 0, +-0.45
    m = np.array([[0, 3e-162, 0], [3e-162, 0, 0.45], [0, 0.45, 0]])
    np.testing.assert_allclose(hermitian_eigenvalues(m), [-0.45, 0.0, 0.45], rtol=0, atol=1e-15)


def test_hermitian_eigenvalues_of_a_dense_partial_transpose_with_a_tiny_entry():
    # a (2, 3, 3) operator whose cut-(1, 2) transpose mixes a pair of modulus
    # 3.5e-160 with O(1) entries; the values-only solver misses by 5.7e-6
    entries = {(0, 0): 1.0, (4, 7): 3.5e-160, (6, 14): -0.68 + 0.46j, (6, 16): 0.9 - 0.17j}
    for (r, c), v in list(entries.items()):
        entries[c, r] = np.conj(v)
    rows, cols = zip(*entries)
    rho = DensityOperator(PartyLayout((2, 3, 3)), rows, cols, list(entries.values()))
    dense = dense_partial_transpose(rho, (1, 2))
    want = np.linalg.eigh(dense)[0]
    np.testing.assert_allclose(hermitian_eigenvalues(dense), want, rtol=0, atol=1e-12)
    assert abs(ppt_check(rho, (1, 2)).min_eigenvalue - want[0]) <= 1e-12


def _blocks_with_one_tiny_pair(rng, d, count):
    """``count`` connected d x d Hermitian blocks: a random path through the
    basis plus each other pair with probability 0.3, O(1) complex entries, one
    path entry pair replaced by one of modulus 1e-300..1e-10, and a zero or
    random real diagonal."""
    perm = rng.permuted(np.tile(np.arange(d), (count, 1)), axis=1)
    lo, hi = np.minimum(perm[:, :-1], perm[:, 1:]), np.maximum(perm[:, :-1], perm[:, 1:])
    k = np.arange(count)[:, None]
    upper = np.triu(rng.random((count, d, d)) < 0.3, 1)
    upper[k, lo, hi] = True
    m = np.where(upper, rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d)), 0)
    i, pick = np.arange(count), rng.integers(d - 1, size=count)
    m[i, lo[i, pick], hi[i, pick]] = 10.0 ** rng.uniform(-300, -10, count) * np.exp(2j * np.pi * rng.random(count))
    m = m + np.swapaxes(m, -1, -2).conj()
    diag = rng.standard_normal((count, d)) * (rng.random((count, 1)) < 0.5)
    m[:, np.arange(d), np.arange(d)] = diag
    return m


def test_hermitian_eigenvalues_agree_with_eigh_on_blocks_with_a_tiny_entry():
    # 60,000 seeded blocks; the values-only solver alone fails on a few of them
    rng = np.random.default_rng(2)
    for d in (3, 4, 5, 6):
        stack = _blocks_with_one_tiny_pair(rng, d, 15_000)
        scale = np.max(np.abs(stack), axis=(1, 2))
        err = np.max(np.abs(hermitian_eigenvalues(stack) - np.linalg.eigh(stack)[0]), axis=1)
        assert np.all(err <= 1e-12 * scale), (d, int(np.sum(err > 1e-12 * scale)))


def test_hermitian_eigenvalues_pass_matrices_without_tiny_entries_unchanged():
    for m in (dense_matrix(rho_family(RhoFamilySpec(8))), dense_matrix(random_density(PartyLayout((2, 3, 2)), 4))):
        assert hermitian_eigenvalues(m).tobytes() == np.linalg.eigvalsh(m).tobytes()


# ---------------------------------------------------------------- Schmidt


def test_schmidt_ghz_single_party():
    for alpha in (0.0, 0.3, np.pi):
        coeffs, left, _ = schmidt(ghz(4, alpha), (1,))
        np.testing.assert_allclose(coeffs, [2**-0.5, 2**-0.5], atol=1e-12)
        # degenerate pair resolves onto computational axes, |0> first
        np.testing.assert_allclose(left[:, 0], [1, 0], atol=1e-12)
        np.testing.assert_allclose(left[:, 1], [0, 1], atol=1e-12)


def _uniform_superposition(dims, indices) -> PureState:
    amps = np.zeros(int(np.prod(dims)), dtype=complex)
    amps[list(indices)] = 1 / np.sqrt(len(indices))
    return PureState(PartyLayout(dims), amps)


@pytest.mark.parametrize(
    "psi, coeffs, left",
    [
        # tied pair spanning levels 1 and 2 only: the aligned basis skips axis 0
        (_uniform_superposition((3, 3, 3), [13, 26]), [2**-0.5] * 2, np.eye(3)[:, 1:]),
        # the same span, which the solver returns rotated: (|1>|+'> + |2>|-'>)/sqrt(2)
        # with |+-'> = (|1> +- |2>)/sqrt(2)
        (PureState(PartyLayout((3, 3)), np.array([0, 0, 0, 0, 1, 1, 0, 1, -1]) / 2),
         [2**-0.5] * 2, np.eye(3)[:, 1:]),
        # W states: untied, each party's vectors |0>, |1> with real positive pivots
        (_uniform_superposition((2, 2, 2), [1, 2, 4]), [(2 / 3) ** 0.5, 3**-0.5], np.eye(2)),
        (_uniform_superposition((2,) * 4, [1, 2, 4, 8]), [0.75**0.5, 0.5], np.eye(2)),
    ],
    ids=["qutrit-ghz-levels-1-2", "qutrit-rotated-levels-1-2", "w3", "w4"],
)
def test_schmidt_left_vectors_are_fixed_axes(psi, coeffs, left):
    for party in range(1, psi.layout.num_parties + 1):
        c, u, _ = schmidt(psi, (party,))
        np.testing.assert_allclose(c, coeffs, atol=1e-15)
        np.testing.assert_allclose(u, left, rtol=0, atol=1e-15)
        pivots = u[np.argmax(np.abs(u) > 1e-12, axis=0), range(c.size)]
        assert np.all(pivots.imag == 0) and np.all(pivots.real > 0)


@pytest.mark.parametrize("gap, rebased", [(0.5 * _TIE_TOL, True), (2 * _TIE_TOL, False)])
def test_schmidt_tie_gap_beside_the_tolerance(gap, rebased):
    # qutrit x qutrit state with two leading coefficients `gap` apart, on a
    # random left basis: only a tie within _TIE_TOL re-bases the pair onto axes
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    c = np.array([0.6, 0.6 - gap, 0.0])
    c[2] = np.sqrt(1 - c[0] ** 2 - c[1] ** 2)
    psi = PureState(PartyLayout((3, 3)), (q * c).reshape(-1))  # sum_k c_k q_k (x) |k>
    coeffs, left, right = schmidt(psi, (1,))
    assert coeffs.size == 3 and (abs(coeffs[0] - coeffs[1]) <= _TIE_TOL) == rebased
    np.testing.assert_allclose((left * coeffs) @ right, psi.amplitudes.reshape(3, 3), rtol=0, atol=1e-12)
    # re-based, the first vector is axis 0 projected onto the tied span
    span = q[:, :2]
    axis0 = span @ span[0].conj()
    aligned = abs(np.vdot(axis0 / np.linalg.norm(axis0), left[:, 0]))
    if rebased:
        assert aligned > 1 - 1e-12
    else:
        assert aligned < 0.99 and abs(np.vdot(q[:, 0], left[:, 0])) > 1 - 1e-3


def _schmidt_bit_cases():
    rng = np.random.default_rng(61)
    for seed in range(40):
        dims = tuple(int(d) for d in rng.integers(2, 5, size=int(rng.integers(2, 5))))
        yield f"random-{seed}", random_pure(PartyLayout(dims), seed)
    for n in (2, 3, 5):
        for alpha in (0.0, 0.7, np.pi):  # alpha = pi: a negative amplitude
            yield f"ghz-{n}-{alpha}", ghz(n, alpha)
    for n in (3, 4, 5):
        yield f"w-{n}", _uniform_superposition((2,) * n, [1 << k for k in range(n)])
    # tied: maximally entangled pairs, on axes with imaginary and negative
    # amplitudes (signed zeros on the way) and under a random local unitary
    for d in (2, 3, 4):
        yield f"tied-axes-{d}", PureState(PartyLayout((d, d)), (-1j * np.eye(d)[::-1] / np.sqrt(d)).reshape(-1))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        yield f"tied-rotated-{d}", PureState(PartyLayout((d, d)), (q / np.sqrt(d)).reshape(-1))
    yield "tied-qutrit-levels-1-2", _uniform_superposition((3, 3, 3), [13, 26])


def test_schmidt_phase_fix_is_bit_identical_to_a_per_column_loop():
    # schmidt fixes the phases of all kept columns in one step, finds tied runs
    # in a Python loop and matricizes a one-party cut by _party_matrix; the bits,
    # signed zeros included, must be those of the per-column loop over np.diff's
    # runs and a generic transpose, on every bipartition
    for name, psi in _schmidt_bit_cases():
        n = psi.layout.num_parties
        for size in range(1, n):
            for cut in itertools.combinations(range(1, n + 1), size):
                got, want = schmidt(psi, cut), reference_schmidt(psi, cut)
                for a, b in zip(got, want):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), (name, cut)


def test_one_party_matricize_is_bit_identical_to_the_transpose_route():
    for name, psi in _schmidt_bit_cases():
        for party in range(1, psi.layout.num_parties + 1):
            got, want = _matricize(psi, (party,)), transpose_matricize(psi, (party,))
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (name, party)


def test_schmidt_product_state():
    psi = tensor_product([qubit(1, 1), qubit(1, 0), qubit(2, 1)])
    for cut in [(1,), (2,), (1, 3)]:
        coeffs, _, _ = schmidt(psi, cut)
        assert coeffs.size == 1
        assert abs(coeffs[0] - 1.0) < 1e-12


def test_schmidt_matches_reduced_spectrum_oracle():
    psi = random_pure(PartyLayout((3, 3)), seed=77)
    coeffs, _, _ = schmidt(psi, (1,))
    # oracle: eigenvalues of the explicitly contracted reduced operator
    eigs = np.sort(np.linalg.eigvalsh(brute_reduced_operator(psi, 1)))[::-1]
    np.testing.assert_allclose(coeffs**2, eigs[: coeffs.size], atol=1e-12)


def test_schmidt_reconstruction_fidelity():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(2, 4, size=n))
        layout = PartyLayout(dims)
        psi = random_pure(layout, int(rng.integers(0, 10**9)))
        size = int(rng.integers(1, n))
        cut = tuple(sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False)))
        coeffs, lefts, rights = schmidt(psi, cut)
        rebuilt = np.zeros(layout.dim, dtype=complex)
        rest = tuple(p for p in range(1, n + 1) if p not in cut)
        perm = [p - 1 for p in cut] + [p - 1 for p in rest]
        inv = np.argsort(perm)
        for c, left, right in zip(coeffs, lefts.T, rights):
            term = c * np.outer(left, right)
            shaped = term.reshape([dims[i] for i in perm]).transpose(inv)
            rebuilt += shaped.reshape(layout.dim)
        fidelity = abs(np.vdot(rebuilt, psi.amplitudes)) ** 2
        assert fidelity >= 1 - 1e-10


def test_schmidt_bad_bipartition():
    psi = random_pure(PartyLayout((2, 2)), seed=1)
    with pytest.raises(ValueError):
        schmidt(psi, ())
    with pytest.raises(ValueError):
        schmidt(psi, (1, 2))


# ---------------------------------------------------------------- apply_local


def test_apply_local_identity():
    psi = random_pure(PartyLayout((2, 3)), seed=8)
    vec, weight = apply_local(psi, FilterOperator(2, np.eye(3), "project"))
    assert abs(weight - 1.0) < 1e-12
    np.testing.assert_allclose(vec, psi.amplitudes, atol=1e-15)


def test_apply_local_projector_on_ghz():
    psi = ghz(4, 0.7)
    proj = np.array([[1, 0], [0, 0]], dtype=complex)
    vec, weight = apply_local(psi, FilterOperator(1, proj, "project"))
    assert abs(weight - 0.5) < 1e-12
    expected = np.zeros(16, dtype=complex)
    expected[0] = 1.0
    np.testing.assert_allclose(vec / np.sqrt(weight), expected, atol=1e-12)


def test_apply_local_balancing_filter():
    psi = random_pure(PartyLayout((2, 2, 2)), seed=15)
    coeffs, left, _ = schmidt(psi, (1,))
    lam0, lam1 = coeffs[0], coeffs[1]
    u0 = left[:, 0]
    u1 = left[:, 1]
    op = (lam1 * np.outer(u0, u0.conj()) + lam0 * np.outer(u1, u1.conj())) / lam0
    vec, weight = apply_local(psi, FilterOperator(1, op, "equalize"))
    assert weight > 0
    post = PureState(psi.layout, vec / np.sqrt(weight))
    post_coeffs, _, _ = schmidt(post, (1,))
    assert abs(post_coeffs[0] - post_coeffs[1]) < 1e-10


BIT_IDENTITY_DIMS = [(2, 3), (3, 2, 2), (2, 2, 2, 2), (4, 2, 3)]


@pytest.mark.parametrize("dims", BIT_IDENTITY_DIMS)
def test_apply_local_matches_tensordot_reference_bitwise(dims):
    layout = PartyLayout(dims)
    psi = random_pure(layout, seed=len(dims) * 10 + dims[0])
    rng = np.random.default_rng(sum(dims))
    for party, d in enumerate(dims, start=1):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        fop = FilterOperator(party, m / np.linalg.norm(m, 2) * (1 - 1e-9), "equalize")
        vec, weight = apply_local(psi, fop)
        ref = tensordot_apply_local(psi, fop)
        assert np.array_equal(vec, ref), (dims, party)
        assert weight == float(np.vdot(ref, ref).real)


@pytest.mark.parametrize("dims", BIT_IDENTITY_DIMS)
def test_party_matrix_equals_moveaxis_bitwise(dims):
    t = random_pure(PartyLayout(dims), seed=3).amplitudes.reshape(dims)
    for k, d in enumerate(dims):
        assert np.array_equal(_party_matrix(t, k), np.moveaxis(t, k, 0).reshape(d, -1)), (dims, k)


def test_filter_norm_is_the_largest_singular_value():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m /= np.linalg.norm(m, 2)
    FilterOperator(1, m, "project")  # exactly at the bound: accepted
    with pytest.raises(ValueError, match="singular value"):
        FilterOperator(1, m * (1 + 1e-9), "project")


def _svd_filter_check(m):
    """The filter norm check by the SVD alone: None if accepted, else the error."""
    try:
        smax = np.linalg.svd(m, compute_uv=False)[0]
    except ValueError as exc:  # LinAlgError, on NaN entries
        return type(exc), str(exc)
    if not smax <= 1.0 + 1e-12:
        return ValueError, f"filter has singular value {float(smax)} > 1; not a measurement filter"
    return None


def test_filter_norm_certificate_decides_as_the_svd():
    rng = np.random.default_rng(12)
    cases = 0
    for d in range(2, 7):
        for shape in ("full", "two-row", "rank-1"):
            for norm in (1 - 1e-9, 1.0, 1 + 5e-13, 1 + 2e-12, 1.5):
                for _ in range(4):
                    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                    if shape == "two-row":
                        g[2:] = 0
                    elif shape == "rank-1":
                        g = np.outer(g[:, 0], g[0])
                    m = g * (norm / np.linalg.svd(g, compute_uv=False)[0])
                    bad = m.copy()
                    bad[rng.integers(d), rng.integers(d)] = (np.nan, np.inf, -np.inf)[cases % 3]
                    for case in (m, bad):
                        try:
                            FilterOperator(1, case, "project")
                            got = None
                        except ValueError as exc:
                            got = type(exc), str(exc)
                        assert got == _svd_filter_check(case), (d, shape, norm)
                        cases += 1
    assert cases == 600


def test_filter_operator_rejects_an_empty_matrix():
    with pytest.raises(ValueError, match="square and nonempty"):
        FilterOperator(1, np.zeros((0, 0)), "project")


def test_apply_local_annihilation_returns_zero_weight():
    zero_op = np.zeros((2, 2))
    psi = ghz(2, 0.0)
    vec, weight = apply_local(psi, FilterOperator(1, zero_op, "project"))
    assert weight == 0.0
    assert np.all(vec == 0)


def test_apply_local_rejects_amplifying_operator():
    # a filter is checked once, when built, so an amplifying one never reaches apply_local
    with pytest.raises(ValueError) as err:
        FilterOperator(1, 2.0 * np.eye(2), "project")
    assert str(err.value) == "filter has singular value 2.0 > 1; not a measurement filter"


def test_apply_local_rejects_wrong_dimension():
    psi = random_pure(PartyLayout((2, 3)), seed=8)
    with pytest.raises(ValueError, match="dimension 3"):
        apply_local(psi, FilterOperator(2, np.eye(2), "project"))


# ---------------------------------------------------------------- type invariants


def test_pure_state_norm_enforced():
    with pytest.raises(ValueError) as err:
        PureState(PartyLayout((2,)), np.array([1.0, 1.0]))
    assert str(err.value) == f"state norm {2**0.5} deviates from 1 beyond 1e-12"


def test_density_operator_hermiticity_enforced():
    with pytest.raises(ValueError):
        dense_operator(PartyLayout((2,)), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_basis_state_and_immutability():
    psi = basis_state(PartyLayout((2, 2)), 2)
    assert psi.amplitudes[2] == 1.0
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 1.0
