"""Local filtering extraction of a maximally entangled pair.

Given any entangled multipartite pure state (arbitrary local dimensions),
a sequence of local filters, projections, and +/- measurements produces a
two-party state with equal Schmidt coefficients, with nonzero success
probability.  The protocol:

1. Pick the lowest-index party whose one-vs-rest Schmidt rank is >= 2.
   A rank is the number of singular values of the party-vs-rest amplitude
   matrix above ``SCHMIDT_CUTOFF``, computed without singular vectors; the full
   Schmidt decomposition is taken only where its vectors or its reported
   coefficients are needed (the equalize filter; the final pair's coefficients
   come from its SVD alone).  Each round ranks parties in order, skipping
   pivots already projected in case B, and stops at the second one of
   rank >= 2: the first is the pivot, and the second checks consistency (an
   entangled pure state never has exactly one entangled party).
2. Equalize: filter in that party's Schmidt basis, keeping the top two
   coefficients (mapped onto the party's computational levels 0/1) and
   annihilating the rest.
3. Classify the two branch states.  A branch is a product when every
   single-party reduced state is pure; the test reads purities only and
   stops at the branch's first impure party.  If both are products (case A),
   take their local factors (top reduced-state eigenvectors, computed only
   here) and map the differing ones onto computational 0/1 with biorthogonal
   filters; the result is a GHZ state over the pivot and the differing sites,
   from which +/- measurements leave any chosen pair maximally entangled,
   with certainty.  Otherwise (case B) project the pivot onto an entangled
   branch and repeat on the strictly smaller entangled system.

Parties are never dropped from the step log; spent parties simply hold
pure local factors that are split off when the final pair state is built.
A pivot projected onto level l in case B is carried as the known factor e_l
(later filters act elsewhere, so its other levels stay exactly zero): it is
not ranked, product-tested or eigensolved again, and is sliced at level l.
Every filter is a :class:`FilterOperator`, whose norm is checked once, when
it is built; applying or replaying it does not check it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .tensor import (
    SCHMIDT_CUTOFF,
    FilterOperator,
    PartyLayout,
    PureState,
    _fix_phase,
    _integers,
    _party_matrix,
    apply_local,
    schmidt,
)

PURITY_TOL = 1e-8
OVERLAP_TOL = 1e-8
BALANCE_TOL = 1e-8


class NotEntangledError(ValueError):
    """The input carries no entanglement to extract."""


class PairUnavailableError(ValueError):
    """The requested pair is not contained in the surviving parties."""


class NumericDegeneracyError(RuntimeError):
    """The state is numerically inconsistent with the protocol's case logic."""


@dataclass(frozen=True, eq=False)
class ExtractionStep:
    op: FilterOperator
    weight: float


@dataclass(frozen=True, eq=False)
class BranchClassification:
    """Case split of a balanced state at a pivot party.

    Branches are labeled by the pivot's computational levels 0/1 (the output
    labels of the equalize filter).  For case A, per-party local factors of
    the two branches are reported with their overlap moduli: overlap >= 1-tol
    counts as the same factor, <= tol as locally orthogonal.
    """

    case: str
    branches: tuple[PureState, PureState]
    branch_product: tuple[bool, bool]
    factors: dict[int, tuple[np.ndarray, np.ndarray]] | None = None
    overlaps: dict[int, float] | None = None
    same_parties: tuple[int, ...] | None = None
    distinct_parties: tuple[int, ...] | None = None
    orthogonal_parties: tuple[int, ...] | None = None


@dataclass(frozen=True, eq=False)
class ExtractionResult:
    """Full trace of one protocol run.

    ``probability`` is the product of the recorded branch weights along the
    executed path (the +/- measurement steps count weight 1 since either
    outcome yields a maximally entangled pair).
    """

    pair: tuple[int, int]
    probability: float
    steps: tuple[ExtractionStep, ...]
    final_state: PureState
    schmidt_coeffs: tuple[float, float]
    surviving_parties: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0.0 < self.probability <= 1.0 + 1e-9:
            raise ValueError(f"success probability {self.probability!r} outside (0, 1]")


def _single_party_rank(psi: PureState, party: int) -> int:
    """One-vs-rest Schmidt rank, >= 1 for a normalized state: singular values above the cutoff."""
    m = _party_matrix(psi.amplitudes.reshape(psi.layout.dims), party - 1)
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > SCHMIDT_CUTOFF))


def _apply_filter(
    state: PureState, fop: FilterOperator, floor: float = 0.0
) -> tuple[PureState, float]:
    """Apply one filter and renormalize; the weight is the outcome's probability.

    Raises :class:`NumericDegeneracyError` when the weight is at most ``floor``.
    """
    vec, weight = apply_local(state, fop)
    if weight <= floor:
        raise NumericDegeneracyError(
            f"{fop.kind} filter at party {fop.party} annihilated the state"
        )
    return PureState(state.layout, vec / np.sqrt(weight)), weight


def equalize_filter(psi: PureState, party: int) -> tuple[FilterOperator, PureState, float]:
    """Filter that balances the party's top two Schmidt coefficients.

    The filter maps the two leading Schmidt vectors onto the party's
    computational levels 0/1 with relative weight lambda_1/lambda_0,
    annihilates the remaining local directions, and is scaled to unit
    operator norm (maximal success probability).  The returned weight is
    2*lambda_1**2; the post state carries coefficients 1/sqrt(2) each.
    """
    coeffs, left, _ = schmidt(psi, (party,))
    if coeffs.size < 2:
        raise ValueError(f"party {party} has Schmidt rank < 2; nothing to balance")
    lam0, lam1 = (float(c) for c in coeffs[:2])
    d = psi.layout.dim_of(party)
    op = np.zeros((d, d), dtype=complex)
    op[0, :] = (lam1 / lam0) * left[:, 0].conj()
    op[1, :] = left[:, 1].conj()
    fop = FilterOperator(party, op, "equalize")
    post, weight = _apply_filter(psi, fop)
    return fop, post, weight


def _reduced_operator(t: np.ndarray, axis: int) -> np.ndarray:
    """Reduced operator of the party at ``axis`` of the amplitude tensor ``t``."""
    m = _party_matrix(t, axis)
    return m @ m.conj().T


def _local_factor(t: np.ndarray, axis: int) -> np.ndarray:
    """Top eigenvector (phase-fixed) of the reduced operator at ``axis``."""
    _, vecs = np.linalg.eigh(_reduced_operator(t, axis))
    return _fix_phase(vecs[:, -1])


def _is_product(phi: PureState, known: dict[int, int]) -> bool:
    """Product test: no single-party reduced operator but those at the axes in
    ``known`` has purity below 1 - PURITY_TOL; stops at the first that does."""
    t = phi.amplitudes.reshape(phi.layout.dims)
    for axis in (a for a in range(phi.layout.num_parties) if a not in known):
        red = _reduced_operator(t, axis)
        if float(np.einsum("ij,ji->", red, red).real) < 1.0 - PURITY_TOL:
            return False
    return True


def _branch_factors(phi: PureState, known: dict[int, int]) -> list[np.ndarray]:
    """Local factor of every party of a product branch: e_l where ``known`` gives level l."""
    if phi.layout.num_parties == 1:
        return [_fix_phase(phi.amplitudes.copy())]
    t = phi.amplitudes.reshape(phi.layout.dims)
    eye = np.eye(max(t.shape), dtype=complex)
    return [eye[known[a], :d] if a in known else _local_factor(t, a) for a, d in enumerate(t.shape)]


def classify_branch(psi: PureState, party: int) -> BranchClassification:
    """Split a balanced state into its two pivot branches and classify them.

    Requires the pivot's weight to sit on computational levels 0/1 with
    equal (1/2) probability and orthogonal branches, as produced by
    :func:`equalize_filter`.  Each branch is tested for product form on its
    single-party purities alone, up to its first impure party; both branches
    are always tested, so ``branch_product`` is complete.  Local factors and
    overlaps are computed only in case A.  Raises
    :class:`NumericDegeneracyError` when both branches test as products yet no
    remaining party is locally orthogonal (case A demands one).
    """
    return _classify_branch(psi, party, {})


def _classify_branch(psi: PureState, party: int, settled: dict[int, int]) -> BranchClassification:
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

    rest = layout.drop((party,))
    others = tuple(p for p in range(1, n + 1) if p != party)
    phi0 = PureState(rest, b0 / np.sqrt(w0))
    phi1 = PureState(rest, b1 / np.sqrt(w1))

    known = {others.index(p): level for p, level in settled.items()}  # branch axis -> level
    prod0, prod1 = _is_product(phi0, known), _is_product(phi1, known)
    if not (prod0 and prod1):
        return BranchClassification("B", (phi0, phi1), (prod0, prod1))

    factors: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    overlaps: dict[int, float] = {}
    same, distinct, orthogonal = [], [], []
    for p, chi, tau in zip(others, _branch_factors(phi0, known), _branch_factors(phi1, known)):
        factors[p] = (chi, tau)
        g = abs(complex(np.vdot(chi, tau)))
        overlaps[p] = g
        if g >= 1.0 - OVERLAP_TOL:
            same.append(p)
        else:
            distinct.append(p)
            if g <= OVERLAP_TOL:
                orthogonal.append(p)
    if not orthogonal:
        raise NumericDegeneracyError(
            "product branches without a locally orthogonal site; overlaps "
            f"{sorted(overlaps.items())}"
        )
    return BranchClassification(
        "A",
        (phi0, phi1),
        (prod0, prod1),
        factors=factors,
        overlaps=overlaps,
        same_parties=tuple(same),
        distinct_parties=tuple(distinct),
        orthogonal_parties=tuple(orthogonal),
    )


def target_pair_choice(surviving_parties, requested=None) -> tuple[int, int]:
    """Pick the pair to keep: the two lowest survivors, unless overridden.

    Raises ValueError on a non-integral party index (1.7 is not cut to 1).
    """
    survivors = tuple(sorted(set(_integers(surviving_parties, "surviving parties"))))
    if len(survivors) < 2:
        raise ValueError("need at least two surviving parties")
    if requested is None:
        return survivors[0], survivors[1]
    pair = tuple(sorted(set(_integers(requested, "requested pair"))))
    if len(pair) != 2 or not set(pair) <= set(survivors):
        raise PairUnavailableError(
            f"requested pair {requested} not contained in survivors {survivors}"
        )
    return pair[0], pair[1]


def _biorthogonal_filter(
    state: PureState, party: int, chi: np.ndarray, tau: np.ndarray
) -> tuple[FilterOperator, PureState, float]:
    """Filter mapping the two branch factors at ``party`` onto levels 0/1.

    Rows are the biorthonormal duals of (chi, tau) — each row has unit
    overlap with its own factor and kills the other — scaled to unit
    operator norm.
    """
    d = state.layout.dim_of(party)
    op = np.zeros((d, d), dtype=complex)
    op[:2] = np.linalg.pinv(np.stack([chi, tau], axis=1))  # rows: <chi'|, <tau'|
    op /= np.linalg.norm(op, 2)
    fop = FilterOperator(party, op, "biorthogonal")
    return (fop, *_apply_filter(state, fop))


def _plus_projection(state: PureState, party: int) -> tuple[FilterOperator, PureState, float]:
    """Projector onto |+> on the party's two computational levels."""
    d = state.layout.dim_of(party)
    op = np.zeros((d, d), dtype=complex)
    op[np.ix_([0, 1], [0, 1])] = 0.5
    fop = FilterOperator(party, op, "measure_pm")
    return (fop, *_apply_filter(state, fop, floor=1e-15))


def reduce_to_parties(state: PureState, keep) -> PureState:
    """Split off every party outside ``keep`` as a pure local factor.

    Each discarded party must be in (numerically) a product state with the
    rest; it is contracted against its own reduced-state eigenvector.
    """
    return _reduce_to_parties(state, keep, {})


def _reduce_to_parties(state: PureState, keep, settled: dict[int, int]) -> PureState:
    layout = state.layout
    kept = layout.check_subset(keep, nonempty=True)
    labels = list(range(1, layout.num_parties + 1))
    dims = list(layout.dims)
    t = state.amplitudes.reshape(layout.dims)
    for party in sorted(set(labels) - set(kept), reverse=True):
        axis = labels.index(party)
        if party in settled:
            t = np.take(t, settled[party], axis=axis)
        else:
            t = np.tensordot(_local_factor(t, axis).conj(), t, axes=(0, axis))
        labels.pop(axis)
        dims.pop(axis)
    vec = t.reshape(-1)
    norm = np.linalg.norm(vec)
    if norm <= 1e-12:
        raise NumericDegeneracyError("discarded parties were not in product form")
    return PureState(PartyLayout(tuple(dims)), vec / norm)


def replay(psi: PureState, steps) -> PureState:
    """Re-apply a recorded step list to the input state, renormalizing.

    Returns the full-layout post state; spectator parties keep their pure
    local factors (compare against a result's ``final_state`` after
    :func:`reduce_to_parties`).
    """
    state = psi
    for step in steps:
        state, _ = _apply_filter(state, step.op)
    return state


def extract(psi: PureState, pair=None) -> ExtractionResult:
    """Run the full protocol on an entangled pure state.

    Returns the executed step list, the product of branch weights (the
    success probability of the recorded path; +/- measurement steps count
    weight 1 since both outcomes succeed), the surviving parties and the
    final two-party state with its Schmidt coefficients.

    Raises :class:`NotEntangledError` on product input, ValueError when
    ``pair`` is not two distinct parties of the layout, and
    :class:`PairUnavailableError` when it names a party that does not
    survive.
    """
    layout = psi.layout
    n = layout.num_parties
    if n < 2:
        raise NotEntangledError("need at least two parties")
    if pair is not None and len(layout.check_subset(pair)) != 2:
        raise ValueError(f"requested pair {pair} must name two distinct parties")

    state = psi
    steps: list[ExtractionStep] = []
    # projected pivot -> its level: one nonzero row in its one-vs-rest matrix,
    # and filters on other parties keep the other rows exactly zero (rank 1)
    settled: dict[int, int] = {}
    while True:
        # stop at the second entangled party: the first is the pivot, the second need only exist
        ranked = (
            p for p in range(1, n + 1)
            if p not in settled and _single_party_rank(state, p) >= 2
        )
        entangled = list(islice(ranked, 2))
        if not entangled:
            if not steps:
                raise NotEntangledError("state is a product state across every party")
            raise NumericDegeneracyError("entanglement vanished mid-protocol")
        if len(entangled) == 1:
            raise NumericDegeneracyError(
                f"exactly one party ({entangled[0]}) reports Schmidt rank >= 2"
            )
        pivot = entangled[0]

        fop, state, weight = equalize_filter(state, pivot)
        steps.append(ExtractionStep(fop, weight))

        branch_info = _classify_branch(state, pivot, settled)
        if branch_info.case == "B":
            index = 0 if not branch_info.branch_product[0] else 1
            d = layout.dim_of(pivot)
            proj = np.zeros((d, d), dtype=complex)
            proj[index, index] = 1.0
            fop = FilterOperator(pivot, proj, "project")
            state, weight = _apply_filter(state, fop)
            steps.append(ExtractionStep(fop, weight))
            settled[pivot] = index
            continue

        for p in branch_info.distinct_parties:
            fop, state, weight = _biorthogonal_filter(state, p, *branch_info.factors[p])
            steps.append(ExtractionStep(fop, weight))

        survivors = tuple(sorted((pivot,) + branch_info.distinct_parties))
        chosen = target_pair_choice(survivors, pair)
        for p in survivors:
            if p not in chosen:
                fop, state, _ = _plus_projection(state, p)
                steps.append(ExtractionStep(fop, 1.0))  # both outcomes succeed

        final = _reduce_to_parties(state, chosen, settled)
        # the SVD that schmidt(final, (1,)) makes, without its tie and phase work on the vectors
        c = np.linalg.svd(final.amplitudes.reshape(final.layout.dims), full_matrices=False)[1]
        return ExtractionResult(
            pair=chosen,
            probability=math.prod(step.weight for step in steps),
            steps=tuple(steps),
            final_state=final,
            schmidt_coeffs=(float(c[0]), float(c[1]) if c[1] > SCHMIDT_CUTOFF else 0.0),
            surviving_parties=survivors,
        )
