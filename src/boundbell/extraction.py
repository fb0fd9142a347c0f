"""Local filtering extraction of a maximally entangled pair.

Given any entangled multipartite pure state (arbitrary local dimensions),
a sequence of local filters, projections, and +/- measurements produces a
two-party state with equal Schmidt coefficients, with nonzero success
probability.  The protocol:

1. Pick the lowest-index party whose one-vs-rest Schmidt rank is >= 2.
   A rank is the number of Schmidt coefficients above ``SCHMIDT_CUTOFF``.
   Each round decomposes parties in order and stops at the first of rank
   >= 2, the pivot, whose decomposition builds the equalize filter; it then
   checks that a later party also has rank >= 2 (an entangled pure state
   never has exactly one entangled party).  A later party's purity below
   1 - ``PURITY_TOL`` certifies that rank, since rank 1 at the cutoff forces
   a purity above 1 - 5e-12 for a state normalized within ``NORM_TOL``; only
   a party that the purity does not certify is decomposed by ``schmidt``.
2. Equalize: filter in that party's Schmidt basis, keeping the top two
   coefficients (mapped onto the party's computational levels 0/1) and
   annihilating the rest.  With the pivot's decomposition
   sum_k c_k |l_k> (x) |r_k>, the filtered state is exactly
   (|0> (x) |r_0> + |1> (x) |r_1>)/sqrt(2), of weight 2 c_1**2.
3. Classify the two branch states, read off the decomposition as its right
   vectors r_0 and r_1 once they pass the balance test (weights 1/2 within
   ``BALANCE_TOL``, overlap below it); no filter is applied to find them.
   A branch is a product when every single-party reduced state is pure; the
   test reads purities only and stops at the branch's first impure party.
   The second branch is tested only when the first is a product.  If both
   are products (case A), apply the equalize filter and take the branches'
   local factors (top reduced-state eigenvectors, computed only here); map
   the differing ones onto computational 0/1 with biorthogonal filters; the
   result is a GHZ state over the pivot and the differing sites, from which
   +/- measurements leave any chosen pair maximally entangled, with
   certainty.  Otherwise (case B) record the equalize filter and the
   projection of the pivot onto the first entangled branch, and repeat on
   that branch, a strictly smaller entangled system.

Rounds run on the live state: the parties not yet projected in case B.  A
projected pivot is the exact factor e_l for the rest of the protocol (later
filters act elsewhere), so it leaves the live state, which continues as the
normalized entangled branch over the other live parties.  Parties are never
dropped from the step log: every step names its input party, and
:func:`replay` of the steps on the input state reproduces the run, with
spent parties holding pure local factors that are split off when the final
pair state is built.  Every filter is a :class:`FilterOperator`, whose norm
is checked once, when it is built on its live party; recording it under its
input party's label, applying or replaying it does not check it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .family import NotEntangledError, NumericDegeneracyError, PairUnavailableError, _party_index
from .tensor import (
    SCHMIDT_CUTOFF,
    FilterOperator,
    PartyLayout,
    PureState,
    _fix_phase,
    _party_matrix,
    _relabel,
    apply_local,
    schmidt,
)

PURITY_TOL = 1e-8
OVERLAP_TOL = 1e-8
BALANCE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ExtractionStep:
    op: FilterOperator
    weight: float


@dataclass(frozen=True, eq=False)
class ExtractionResult:
    """Full trace of one protocol run.

    ``probability`` is the product of the recorded branch weights along the
    executed path (the +/- measurement steps count weight 1 since either
    outcome yields a maximally entangled pair), clamped to at most 1: a
    certain path's weights can round to a product just above 1 (by 1.3e-15
    for a GHZ state at N = 8).
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


def _apply_filter(
    state: PureState, fop: FilterOperator, floor: float = 0.0, label: int | None = None
) -> tuple[PureState, float]:
    """Apply one filter and renormalize; the weight is the outcome's probability.

    Raises :class:`NumericDegeneracyError` when the weight is at most ``floor``,
    naming the party ``label`` (default ``fop.party``).
    """
    vec, weight = apply_local(state, fop)
    if weight <= floor:
        raise NumericDegeneracyError(
            f"{fop.kind} filter at party {fop.party if label is None else label} annihilated the state"
        )
    return PureState(state.layout, vec / np.sqrt(weight)), weight


def _equalize_op(party: int, coeffs: np.ndarray, left: np.ndarray) -> FilterOperator:
    """Equalize filter at ``party`` from its Schmidt coefficients and left vectors."""
    lam0, lam1 = (float(c) for c in coeffs[:2])
    d = left.shape[0]
    op = np.zeros((d, d), dtype=complex)
    op[0, :] = (lam1 / lam0) * left[:, 0].conj()
    op[1, :] = left[:, 1].conj()
    return FilterOperator(party, op, "equalize")


def _local_factor(m: np.ndarray) -> np.ndarray:
    """Top eigenvector (phase-fixed) of the reduced operator ``m m^H`` of a
    party matrix ``m`` (see :func:`tensor._party_matrix`)."""
    _, vecs = np.linalg.eigh(m @ m.conj().T)
    return _fix_phase(vecs[:, -1])


def _purity(t: np.ndarray, axis: int) -> float:
    """Purity tr(rho**2) of the reduced operator at ``axis`` of the amplitude tensor ``t``."""
    m = _party_matrix(t, axis)
    red = m @ m.conj().T
    return float(np.einsum("ij,ji->", red, red).real)


def _is_product(phi: PureState) -> bool:
    """Product test: no single-party reduced operator has purity below
    1 - PURITY_TOL; stops at the first that does."""
    t = phi.amplitudes.reshape(phi.layout.dims)
    return not any(_purity(t, axis) < 1.0 - PURITY_TOL for axis in range(t.ndim))


def _branch_factors(phi: PureState) -> list[np.ndarray]:
    """Local factor of every party of a product branch."""
    if phi.layout.num_parties == 1:
        return [_fix_phase(phi.amplitudes.copy())]
    t = phi.amplitudes.reshape(phi.layout.dims)
    return [_local_factor(_party_matrix(t, axis)) for axis in range(t.ndim)]


def _distinct_factors(phi0: PureState, phi1: PureState, others) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Local factors (chi, tau) of two product branches, ``others`` naming their
    parties, at each party where they differ: overlap below 1 - OVERLAP_TOL,
    in ascending party order.

    Raises :class:`NumericDegeneracyError` when no party is locally
    orthogonal (overlap at most OVERLAP_TOL), which case A demands.
    """
    overlaps: dict[int, float] = {}
    distinct: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for p, chi, tau in zip(others, _branch_factors(phi0), _branch_factors(phi1)):
        overlaps[p] = abs(complex(np.vdot(chi, tau)))
        if overlaps[p] < 1.0 - OVERLAP_TOL:
            distinct[p] = (chi, tau)
    if min(overlaps.values()) > OVERLAP_TOL:
        raise NumericDegeneracyError(
            "product branches without a locally orthogonal site; overlaps "
            f"{sorted(overlaps.items())}"
        )
    return distinct


def target_pair_choice(surviving_parties, requested=None) -> tuple[int, int]:
    """Pick the pair to keep: the two lowest survivors, unless overridden.

    Raises ValueError on an index that is not an integer, 1.0 and True
    included (:func:`family._party_index`, the rule of ``PartyLayout.dim_of``).
    """
    survivors = tuple(sorted(set(map(_party_index, surviving_parties))))
    if len(survivors) < 2:
        raise ValueError("need at least two surviving parties")
    if requested is None:
        return survivors[0], survivors[1]
    pair = tuple(sorted(set(map(_party_index, requested))))
    if len(pair) != 2 or not set(pair) <= set(survivors):
        raise PairUnavailableError(
            f"requested pair {requested} not contained in survivors {survivors}"
        )
    return pair[0], pair[1]


def _biorthogonal_op(party: int, chi: np.ndarray, tau: np.ndarray) -> FilterOperator:
    """Filter mapping the two branch factors at ``party`` onto levels 0/1.

    Rows are the biorthonormal duals of (chi, tau) — each row has unit
    overlap with its own factor and kills the other — scaled to unit
    operator norm.  With [chi tau] = U diag(s) V^H, the duals are the
    pseudo-inverse V diag(1/s) U^H, of norm 1/s_min, so one SVD gives both.
    Distinct factors overlap below 1 - OVERLAP_TOL: s_min >= ~1e-4.
    """
    u, s, vh = np.linalg.svd(np.stack([chi, tau], axis=1), full_matrices=False)
    op = np.zeros((chi.size, chi.size), dtype=complex)
    op[:2] = (vh.conj().T * (s[-1] / s)) @ u.conj().T  # rows: <chi'|, <tau'|
    return FilterOperator(party, op, "biorthogonal")


def _plus_op(party: int, d: int) -> FilterOperator:
    """Projector onto |+> on the two computational levels of a dimension-``d`` party."""
    op = np.zeros((d, d), dtype=complex)
    op[np.ix_([0, 1], [0, 1])] = 0.5
    return FilterOperator(party, op, "measure_pm")


def reduce_to_parties(state: PureState, keep) -> PureState:
    """Split off every party outside ``keep`` as a pure local factor.

    Each discarded party must be in (numerically) a product state with the
    rest; it is contracted against its own reduced-state eigenvector.
    """
    layout = state.layout
    kept = layout.check_subset(keep, nonempty=True)
    t = state.amplitudes.reshape(layout.dims)
    for axis in sorted(set(range(layout.num_parties)) - {p - 1 for p in kept}, reverse=True):
        m = _party_matrix(t, axis)
        t = (_local_factor(m).conj() @ m).reshape(t.shape[:axis] + t.shape[axis + 1 :])
    vec = t.reshape(-1)
    norm = np.linalg.norm(vec)
    if norm <= 1e-12:
        raise NumericDegeneracyError("discarded parties were not in product form")
    return PureState(PartyLayout(tuple(layout.dims[p - 1] for p in kept)), vec / norm)


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

    live = psi  # the parties not yet projected in case B
    labels = list(range(1, n + 1))  # input party at each live axis
    steps: list[ExtractionStep] = []
    while True:
        dims = live.layout.dims
        m = len(dims)
        for pivot in range(1, m + 1):
            coeffs, left, right = schmidt(live, pivot)
            if coeffs.size >= 2:
                break
        else:
            if not steps:
                raise NotEntangledError("state is a product state across every party")
            raise NumericDegeneracyError("entanglement vanished mid-protocol")
        t = live.amplitudes.reshape(dims)  # a purity certifies rank >= 2 without an SVD (step 1)
        if not any(
            _purity(t, p - 1) < 1.0 - PURITY_TOL or schmidt(live, p)[0].size >= 2
            for p in range(pivot + 1, m + 1)
        ):
            raise NumericDegeneracyError(
                f"exactly one party ({labels[pivot - 1]}) reports Schmidt rank >= 2"
            )

        # the equalized live state is (|0> right[0] + |1> right[1])/sqrt2, of weight
        # 2 c[1]**2 (> 0: c[1] is above the cutoff); only case A applies the filter
        label = labels[pivot - 1]
        fop = _equalize_op(pivot, coeffs, left)
        w0, w1 = (0.5 * float(np.vdot(v, v).real) for v in right[:2])
        cross = abs(complex(np.vdot(right[0], right[1])))
        if abs(w0 - 0.5) > BALANCE_TOL or abs(w1 - 0.5) > BALANCE_TOL or cross > BALANCE_TOL:
            raise NumericDegeneracyError(
                f"equalized branches at party {label} are not balanced "
                f"(weights {w0:.6f}/{w1:.6f}, overlap {cross:.2e})"
            )
        rest = PartyLayout(dims[: pivot - 1] + dims[pivot:])
        branches = (PureState(rest, right[0]), PureState(rest, right[1]))
        index = next((i for i, phi in enumerate(branches) if not _is_product(phi)), None)
        if index is not None:  # case B: project onto the first entangled branch
            steps.append(ExtractionStep(_relabel(fop, label), 2.0 * float(coeffs[1]) ** 2))
            d = dims[pivot - 1]
            proj = np.zeros((d, d), dtype=complex)
            proj[index, index] = 1.0  # its weight is positive: the balance test passed
            steps.append(ExtractionStep(FilterOperator(label, proj, "project"), (w0, w1)[index]))
            labels.pop(pivot - 1)
            live = branches[index]
            continue

        distinct = _distinct_factors(*branches, tuple(p for p in range(1, m + 1) if p != pivot))
        live, weight = _apply_filter(live, fop, label=label)
        steps.append(ExtractionStep(_relabel(fop, label), weight))

        for p, (chi, tau) in distinct.items():
            fop = _biorthogonal_op(p, chi, tau)
            live, weight = _apply_filter(live, fop, label=labels[p - 1])
            steps.append(ExtractionStep(_relabel(fop, labels[p - 1]), weight))

        kept = sorted((pivot, *distinct))  # live axes, 1-based
        survivors = tuple(labels[p - 1] for p in kept)
        chosen = target_pair_choice(survivors, pair)
        for p in kept:
            if labels[p - 1] not in chosen:
                fop = _plus_op(p, live.layout.dim_of(p))
                live, _ = _apply_filter(live, fop, floor=1e-15, label=labels[p - 1])
                steps.append(ExtractionStep(_relabel(fop, labels[p - 1]), 1.0))  # both outcomes succeed

        final = reduce_to_parties(live, [labels.index(p) + 1 for p in chosen])
        # the SVD that schmidt(final, 1) makes, without its tie and phase work on the vectors
        c = np.linalg.svd(final.amplitudes.reshape(final.layout.dims), full_matrices=False)[1]
        return ExtractionResult(
            pair=chosen,
            probability=min(1.0, math.prod(step.weight for step in steps)),
            steps=tuple(steps),
            final_state=final,
            schmidt_coeffs=(float(c[0]), float(c[1]) if c[1] > SCHMIDT_CUTOFF else 0.0),
            surviving_parties=survivors,
        )
