"""Shared fixtures and independent mini-oracles for the test suite."""

from __future__ import annotations

import tracemalloc
from typing import NamedTuple

import numpy as np

from boundbell import (
    DensityOperator,
    FilterOperator,
    PartyLayout,
    PureState,
    RhoFamilySpec,
    Verdicts,
    cut_verdicts,
    ppt_check,
    random_pure,
    rho_family,
    schmidt,
)
from boundbell.extraction import (
    BALANCE_TOL,
    _apply_filter,
    _distinct_factors,
    _equalize_op,
    _is_product,
    _single_party_rank,
)
from boundbell.tensor import _PHASE_TOL, _TIE_TOL, SCHMIDT_CUTOFF, _axis_aligned_basis


def traced_peak(job):
    """(``job()``, the peak bytes tracemalloc saw while it ran)."""
    tracemalloc.start()
    try:
        out = job()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def raises_value_error(job) -> bool:
    """Whether ``job()`` raises ValueError (any other outcome propagates or is False)."""
    try:
        job()
    except ValueError:
        return True
    return False


def dense_operator(layout: PartyLayout, matrix) -> DensityOperator:
    """Operator from a dense d x d matrix, keeping its nonzero entries (oracle path)."""
    d = layout.dense_dim
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (d, d):
        raise ValueError(f"matrix must have shape {(d, d)}, got {m.shape}")
    rows, cols = np.nonzero(m)
    return DensityOperator(layout, rows, cols, m[rows, cols])


def dense_matrix(rho: DensityOperator) -> np.ndarray:
    """The operator as a dense d x d matrix (oracle path)."""
    d = rho.layout.dense_dim
    m = np.zeros((d, d), dtype=complex)
    m[rho.rows, rho.cols] = rho.vals
    return m


def pure_operator(psi: PureState) -> DensityOperator:
    """|psi><psi| from the dense outer product of the amplitudes."""
    return dense_operator(psi.layout, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def flip_projectors(n: int, k: int) -> tuple[DensityOperator, DensityOperator]:
    """Projectors onto the n-qubit basis state with a single 1 at party k
    (index 2**(n-k)) and onto its bit complement."""
    layout = PartyLayout.qubits(n)
    i = 1 << (n - k)
    return tuple(DensityOperator(layout, [j], [j], [1.0]) for j in (i, layout.dim - 1 - i))


def sparse_classify_family(n: int, alpha: float | None = None, tol: float = 1e-9) -> Verdicts:
    """The family's verdicts from the sparse operator, by float eigenvalues:
    cut (1,) and, from N = 3, cut (1, 2) stand for every cut of their size,
    since the family is invariant under party permutations."""
    rho = rho_family(RhoFamilySpec(n, alpha))
    cuts = [(1,), (1, 2)] if n >= 3 else [(1,)]
    return cut_verdicts([ppt_check(rho, s, tol) for s in cuts], n)


def party_ranks(psi: PureState) -> list[tuple[int, int]]:
    """(party, one-vs-rest Schmidt rank) for every party, by the rank ``extract`` uses."""
    return [(p, _single_party_rank(psi, p)) for p in range(1, psi.layout.num_parties + 1)]


def basis_state(layout: PartyLayout, index: int) -> PureState:
    """Computational basis state |index> in the mixed-radix encoding."""
    if not 0 <= index < layout.dim:
        raise ValueError(f"basis index {index} out of range")
    amps = np.zeros(layout.dim, dtype=complex)
    amps[index] = 1.0
    return PureState(layout, amps)


def index_to_digits(layout: PartyLayout, index: int) -> tuple[int, ...]:
    """Mixed-radix digits of a basis index, party 1 most significant."""
    if not 0 <= index < layout.dim:
        raise ValueError(f"basis index {index} out of range 0..{layout.dim - 1}")
    digits = []
    rem = int(index)
    for d in reversed(layout.dims):
        digits.append(rem % d)
        rem //= d
    return tuple(reversed(digits))


def digits_to_index(layout: PartyLayout, digits) -> int:
    """Basis index of one digit per party, party 1 most significant."""
    digits = tuple(int(x) for x in digits)
    if len(digits) != layout.num_parties:
        raise ValueError("one digit per party required")
    index = 0
    for dig, d in zip(digits, layout.dims):
        if not 0 <= dig < d:
            raise ValueError(f"digit {dig} out of range for local dimension {d}")
        index = index * d + dig
    return index


def tensor_product(factors) -> PureState:
    """Kronecker product of pure states; party order follows factor order."""
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    dims: tuple[int, ...] = ()
    amps = np.ones(1, dtype=complex)
    for f in factors:
        dims = dims + f.layout.dims
        amps = np.kron(amps, f.amplitudes)
    return PureState(PartyLayout(dims), amps)


def make_extraction_corpus(count: int = 200) -> list[tuple[str, PureState]]:
    """Seeded random pure states, N in {3,4,5}, local dims in {2,3}."""
    rng = np.random.default_rng(20260810)
    corpus = []
    for i in range(count):
        n = int(rng.integers(3, 6))
        dims = tuple(int(d) for d in rng.integers(2, 4, size=n))
        psi = random_pure(PartyLayout(dims), 1000 + i)
        corpus.append((f"case{i:03d}", psi))
    return corpus


def separable_fixture(n: int = 3, terms: int = 6, seed: int = 11) -> DensityOperator:
    """Uniform mixture of seeded random n-qubit product pure states."""
    rng = np.random.default_rng(seed)
    layout = PartyLayout.qubits(n)
    m = np.zeros((layout.dim, layout.dim), dtype=complex)
    for _ in range(terms):
        amps = np.ones(1, dtype=complex)
        for _ in range(n):
            local = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            local /= np.linalg.norm(local)
            amps = np.kron(amps, local)
        m += np.outer(amps, amps.conj()) / terms
    return dense_operator(layout, m)


def random_density(layout: PartyLayout, seed: int, terms: int = 4) -> DensityOperator:
    """Full-rank-ish random density operator from a seeded pure-state mixture."""
    rng = np.random.default_rng(seed)
    weights = rng.random(terms)
    weights /= weights.sum()
    m = np.zeros((layout.dim, layout.dim), dtype=complex)
    for t in range(terms):
        psi = random_pure(layout, seed * 1000 + t)
        m += weights[t] * np.outer(psi.amplitudes, psi.amplitudes.conj())
    return dense_operator(layout, m)


def random_sparse_hermitian(layout: PartyLayout, seed: int, pairs: int = 6) -> DensityOperator:
    """Seeded trace-1 Hermitian operator with a few random entries, usually
    not PSD and with several blocks of different sizes."""
    rng = np.random.default_rng(seed)
    m = np.zeros((layout.dim, layout.dim), dtype=complex)
    for _ in range(pairs):
        r, c = rng.integers(0, layout.dim, size=2)
        v = complex(*rng.standard_normal(2))
        m[r, c] += v
        m[c, r] += v.conjugate()
    np.fill_diagonal(m, m.diagonal().real)
    m[0, 0] += 1.0 - np.trace(m).real
    return dense_operator(layout, m)


def dense_partial_transpose(rho: DensityOperator, parties) -> np.ndarray:
    """Partial transpose of the dense matrix by a reshape and axis swap (oracle path)."""
    layout = rho.layout
    n = layout.num_parties
    t = dense_matrix(rho).reshape(layout.dims + layout.dims)
    axes = list(range(2 * n))
    for p in layout.check_subset(parties):
        i = p - 1
        axes[i], axes[n + i] = axes[n + i], axes[i]
    return t.transpose(axes).reshape(layout.dim, layout.dim)


def dense_min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a dense Hermitian matrix, one full eigensolve (oracle path).

    The eigenvalues come from ``eigh``, not the values-only ``eigvalsh`` that
    ``hermitian_eigenvalues`` runs, which is wrong on some matrices mixing
    O(1) entries with ones near 1e-160."""
    return float(np.linalg.eigh(m)[0][0])


def partial_trace(rho: DensityOperator, traced_out) -> DensityOperator:
    """Trace out the given parties through the dense matrix (oracle path)."""
    layout = rho.layout
    n = layout.num_parties
    traced = layout.check_subset(traced_out)
    if len(traced) == n:
        raise ValueError("cannot trace out every party")
    if not traced:
        return rho
    gone = set(traced)
    keep = [p for p in range(1, n + 1) if p not in gone]
    t = dense_matrix(rho).reshape(layout.dims + layout.dims)
    subs = list(range(2 * n))
    for p in traced:
        subs[n + p - 1] = subs[p - 1]
    out_subs = [p - 1 for p in keep] + [subs[n + p - 1] for p in keep]
    reduced = np.einsum(t, subs, out_subs)
    new_layout = PartyLayout(tuple(layout.dims[p - 1] for p in keep))
    m = reduced.reshape(new_layout.dim, new_layout.dim)
    m = 0.5 * (m + m.conj().T)  # fp drift from summing near-Hermitian entries
    return dense_operator(new_layout, m)


def brute_reduced_operator(psi: PureState, party: int) -> np.ndarray:
    """One-party reduced operator by explicit contraction (oracle path)."""
    dims = psi.layout.dims
    t = np.moveaxis(psi.amplitudes.reshape(dims), party - 1, 0)
    m = t.reshape(dims[party - 1], -1)
    return m @ m.conj().T


def tensordot_apply_local(psi: PureState, fop) -> np.ndarray:
    """Filter output built with ``tensordot`` and ``moveaxis`` (reference path)."""
    t = psi.amplitudes.reshape(psi.layout.dims)
    out = np.moveaxis(np.tensordot(fop.matrix, t, axes=(1, fop.party - 1)), 0, fop.party - 1)
    return np.ascontiguousarray(out).reshape(psi.layout.dim)


def brute_single_rank(psi: PureState, party: int, cutoff: float = 1e-10) -> int:
    """Schmidt rank at one party from reduced-operator eigenvalues (oracle)."""
    eigs = np.linalg.eigvalsh(brute_reduced_operator(psi, party))
    return int(np.sum(eigs > cutoff**2))


_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def _sigma(vec: np.ndarray) -> np.ndarray:
    return vec[0] * _PAULI[0] + vec[1] * _PAULI[1] + vec[2] * _PAULI[2]


def bell_matrix_recursion(avecs: np.ndarray, apvecs: np.ndarray) -> np.ndarray:
    """Dense Bell operator by the party-appending recursion (oracle path).

    Earlier parties occupy more significant digits.  Base case is the
    single-party observable itself; the primed branch swaps the two
    direction lists.  Directions are not required to be normalized here,
    which keeps the map multilinear.
    """
    n = avecs.shape[0]
    b = _sigma(avecs[0])
    bp = _sigma(apvecs[0])
    for j in range(1, n):
        s = _sigma(avecs[j])
        sp = _sigma(apvecs[j])
        plus = s + sp
        minus = s - sp
        if j == n - 1:  # the primed operator of the last level is never used
            return 0.5 * (np.kron(b, plus) + np.kron(bp, minus))
        b, bp = (
            0.5 * (np.kron(b, plus) + np.kron(bp, minus)),
            0.5 * (np.kron(bp, plus) - np.kron(b, minus)),
        )
    return b


def closed_form_xy(n: int) -> np.ndarray:
    """Rank-2 closed form of the all-x/all-y Bell operator (oracle path).

    The only nonzero entries couple the extremal basis states with magnitude
    2^((N-1)/2) and phase pi*(N-1)/4, i.e. the Gaussian-integer power (1+i)^(N-1).
    """
    d = 2**n
    m = np.zeros((d, d), dtype=complex)
    corner = (1.0 + 1.0j) ** (n - 1)
    m[d - 1, 0] = corner
    m[0, d - 1] = np.conj(corner)
    return m


def bell_matrix(settings) -> np.ndarray:
    """Dense Bell operator of a BellSettings by the recursion oracle."""
    return bell_matrix_recursion(np.array(settings.a), np.array(settings.a_prime))


def planar_grid_oracle(step_deg: float = 1.0) -> float:
    """Brute-force CHSH-style maximum for the two-qubit maximally entangled
    state on a grid of the given step.

    Correlations satisfy <s_a s_b> = a . T b with T = diag(1, -1, 1); all
    singular values of T are 1, so an optimal pair of directions lies in the
    x-z principal plane.  For fixed (b, b') the optimal a, a' are closed
    form, leaving a two-angle grid.
    """
    t = np.diag([1.0, -1.0, 1.0])
    angles = np.deg2rad(np.arange(0.0, 360.0, step_deg))
    vecs = np.stack([np.sin(angles), np.zeros_like(angles), np.cos(angles)], axis=1)
    tb = vecs @ t.T
    best = 0.0
    for i in range(len(vecs)):
        plus = np.linalg.norm(tb[i] + tb, axis=1)
        minus = np.linalg.norm(tb[i] - tb, axis=1)
        best = max(best, float(np.max(0.5 * (plus + minus))))
    return best


def _reference_codes(rho: DensityOperator):
    """Per party, the flat index 2*c_j + r_j of the factor element each entry meets."""
    for shift in range(rho.layout.num_parties - 1, -1, -1):
        yield 2 * ((rho.cols >> shift) & 1) + ((rho.rows >> shift) & 1)


def _reference_factor(a, ap) -> np.ndarray:
    ax, ay, az = a
    bx, by, bz = ap
    return np.array(
        [complex(az, bz), complex(ax + by, bx - ay), complex(ax - by, ay + bx), complex(-az, -bz)]
    )


def _reference_terms(vals, factors, codes):
    for m, code in zip(factors, codes):
        vals = vals * m[code]
    return vals


def reference_bell_value(rho: DensityOperator, a, a_prime) -> float:
    """tr(B rho) by the per-party code generator (reference formulation)."""
    n = rho.layout.num_parties
    factors = [_reference_factor(x, y) for x, y in zip(a, a_prime)]
    terms = _reference_terms(rho.vals, factors, _reference_codes(rho))
    return float((((1.0 - 1.0j) / 2.0) ** (n - 1) * terms.sum()).real)


def reference_optimize(rho: DensityOperator, restarts: int, tol: float, seed: int, max_sweeps: int):
    """Coordinate ascent as ``optimize_settings`` (reference formulation:
    per-party code list, two-``bincount`` gradient, ``np.linalg.norm``,
    numpy direction rows).  Returns ``(a, a_prime, value)``."""
    n = rho.layout.num_parties
    c = ((1.0 - 1.0j) / 2.0) ** (n - 1)
    paulis = np.stack(_PAULI)
    codes = list(_reference_codes(rho))
    rng = np.random.default_rng(int(seed))
    best_value, best = -np.inf, None
    for _ in range(restarts):
        vecs = rng.standard_normal((2 * n, 3))
        norms = np.linalg.norm(vecs, axis=1)
        norms[norms < 1e-12] = 1.0
        vecs /= norms[:, None]
        avecs, apvecs = vecs[:n].copy(), vecs[n:].copy()
        factors = [_reference_factor(x, y) for x, y in zip(avecs, apvecs)]
        value = (c * _reference_terms(rho.vals, factors, codes).sum()).real
        for _sweep in range(max_sweeps):
            suffix = [np.ones(1)]
            for m, code in zip(reversed(factors), reversed(codes)):
                suffix.append(suffix[-1] * m[code])
            prefix = rho.vals
            for j in range(n):
                w = prefix * suffix[n - 1 - j]
                g = np.bincount(codes[j], w.real, 4) + 1j * np.bincount(codes[j], w.imag, 4)
                v = c * (paulis.reshape(3, 4) @ g)
                for target, grad in ((avecs, v.real), (apvecs, -v.imag)):
                    gnorm = np.linalg.norm(grad)
                    if gnorm >= 1e-14:
                        target[j] = grad / gnorm
                factors[j] = _reference_factor(avecs[j], apvecs[j])
                prefix = prefix * factors[j][codes[j]]
            new_value = (c * prefix.sum()).real
            improvement = new_value - value
            value = new_value
            if improvement < tol:
                break
        if value > best_value:
            best_value, best = value, (avecs.copy(), apvecs.copy())
    a, a_prime = (tuple(tuple(float(x) for x in v) for v in vs) for vs in best)
    return a, a_prime, float(best_value)


def symmetric_qubit_operator(n: int, full: bool = False) -> DensityOperator:
    """Trace-1 Hermitian n-qubit operator whose entry at (r, c) is a function of
    the weights (|r|, |c|, |r & c|) alone, so every party permutation leaves it
    unchanged bit for bit.  With ``full`` every entry is set.  Otherwise it is
    an X-state like the family: diagonal entries on the basis states of weight
    at most 2 or at least n - 2, anti-diagonal ones on those of weight at most
    1 or at least n - 1; under 200 entries at n = 12."""
    d = 1 << n
    weight = np.array([bin(i).count("1") for i in range(d)])
    if full:
        rows, cols = np.divmod(np.arange(d * d), d)
    else:
        edge = np.minimum(weight, n - weight)
        diag, anti = np.flatnonzero(edge <= 2), np.flatnonzero(edge <= 1)
        rows = np.concatenate([diag, anti])
        cols = np.concatenate([diag, d - 1 - anti])
    a, b, k = weight[rows], weight[cols], weight[rows & cols]
    # symmetric real part, antisymmetric imaginary part: Hermitian exactly;
    # a == b == k on the diagonal alone, where the imaginary part is 0
    vals = (1.0 + k) / (1.0 + a * b) + 0.3j * (np.sin(a + 0.5 * k) - np.sin(b + 0.5 * k))
    vals *= np.where((a == b) & (b == k), 1.0, 0.2)
    vals /= vals[rows == cols].real.sum()
    return DensityOperator(PartyLayout.qubits(n), rows, cols, vals)


def transpose_matricize(psi: PureState, bipartition) -> np.ndarray:
    """Amplitudes as a matrix, rows the sorted parties of ``bipartition``, by one
    generic transpose and reshape for every cut (reference path)."""
    dims = psi.layout.dims
    left = sorted(bipartition)
    perm = [p - 1 for p in left] + [p for p in range(len(dims)) if p + 1 not in left]
    return psi.amplitudes.reshape(dims).transpose(perm).reshape(int(np.prod([dims[p - 1] for p in left])), -1)


def reference_schmidt(psi: PureState, bipartition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``tensor.schmidt`` by its earlier route: the matrix of
    :func:`transpose_matricize` for every cut, tied runs found by ``np.diff``,
    and the phase fix as a per-column loop (each left vector rotated so its
    first component above _PHASE_TOL is real positive, its right vector taking
    the compensating phase)."""
    m = transpose_matricize(psi, bipartition)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    k = int(np.count_nonzero(s > SCHMIDT_CUTOFF))
    s, u, vh = s[:k], u[:, :k], vh[:k]
    gaps = np.diff(s)
    if np.any(gaps >= -_TIE_TOL):
        for group in np.split(np.arange(k), np.flatnonzero(gaps < -_TIE_TOL) + 1):
            if group.size > 1:
                u[:, group] = _axis_aligned_basis(u[:, group])
                vh[group] = (u[:, group].conj().T @ m) / s[group, None]
    for i in range(s.size):
        col = u[:, i]
        idx = np.flatnonzero(np.abs(col) > _PHASE_TOL)
        if idx.size:
            phase = col[idx[0]] / abs(col[idx[0]])
            u[:, i] = col * np.conj(phase)
            vh[i, :] = vh[i, :] * phase
    return s, u, vh


def equalize_filter(psi: PureState, party: int) -> tuple[FilterOperator, PureState, float]:
    """Equalize filter at ``party``, with the post state and weight it gives
    by application: the oracle for the branches ``extract`` reads off the
    pivot's Schmidt decomposition.

    The filter maps the two leading Schmidt vectors onto the party's
    computational levels 0/1 with relative weight lambda_1/lambda_0 and
    annihilates the remaining local directions; the weight is 2*lambda_1**2
    and the post state carries coefficients 1/sqrt(2) each.
    """
    coeffs, left, _ = schmidt(psi, (party,))
    if coeffs.size < 2:
        raise ValueError(f"party {party} has Schmidt rank < 2; nothing to balance")
    fop = _equalize_op(party, coeffs, left)
    return (fop, *_apply_filter(psi, fop))


class BranchSplit(NamedTuple):
    """The two normalized pivot branches, each one's product flag, and, in
    case A (both products), ``_distinct_factors``' map of the parties where
    they differ; None in case B."""

    branches: tuple[PureState, PureState]
    branch_product: tuple[bool, bool]
    distinct: dict[int, tuple[np.ndarray, np.ndarray]] | None

    @property
    def case(self) -> str:
        return "B" if self.distinct is None else "A"


def classify_branch(psi: PureState, party: int) -> BranchSplit:
    """Split a balanced state into its two pivot branches and classify them.

    Requires the pivot's weight to sit on computational levels 0/1 with
    equal (1/2) probability and orthogonal branches, as :func:`equalize_filter`
    leaves it (ValueError otherwise).  Both branches are tested for product
    form, which ``extract`` skips for the second when the first is entangled.
    """
    layout = psi.layout
    n = layout.num_parties
    if n < 2:
        raise ValueError("classification needs at least two parties")
    layout.check_subset((party,), nonempty=True)

    t = psi.amplitudes.reshape(layout.dims)
    b0 = np.take(t, 0, axis=party - 1).reshape(-1)
    b1 = np.take(t, 1, axis=party - 1).reshape(-1)
    w0 = float(np.vdot(b0, b0).real)
    w1 = float(np.vdot(b1, b1).real)
    cross = abs(complex(np.vdot(b0, b1)))
    if abs(w0 - 0.5) > BALANCE_TOL or abs(w1 - 0.5) > BALANCE_TOL or cross > BALANCE_TOL:
        raise ValueError(
            "state is not balanced over the pivot's computational levels "
            f"(weights {w0:.6f}/{w1:.6f}, overlap {cross:.2e})"
        )
    rest = PartyLayout(layout.dims[: party - 1] + layout.dims[party:])
    others = tuple(p for p in range(1, n + 1) if p != party)
    branches = (PureState(rest, b0 / np.sqrt(w0)), PureState(rest, b1 / np.sqrt(w1)))
    product = (_is_product(branches[0]), _is_product(branches[1]))
    distinct = _distinct_factors(*branches, others) if all(product) else None
    return BranchSplit(branches, product, distinct)
