"""Partial-transpose positivity certification across bipartitions.

Positivity of every partial transpose is necessary for full separability;
a negative two-party transpose certifies entanglement.  Non-distillability
follows from single-party PPT by theorem (filtering extraction plus
monotonicity of the partial-transpose sign under local operations) and is
reported as a derived verdict, never re-proved numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .states import RhoFamilySpec, rho_family
from .tensor import (
    MAX_GLOBAL_DIM, DensityOperator, dense_size, hermitian_eigenvalues, partial_transpose,
)

PSD = "PSD"
NOT_PSD = "NOT_PSD"

DEFAULT_PPT_TOL = 1e-9

DERIVED_BY_THEOREM = "derived-by-theorem"
NOT_INFERRED = "not-inferred"


@dataclass(frozen=True)
class PptReport:
    """Positivity verdict for one partial transpose."""

    subset: tuple[int, ...]
    min_eigenvalue: float
    verdict: str
    tolerance_used: float


@dataclass(frozen=True)
class BipartitionScan:
    """PPT reports over all subsets of size 1..floor(N/2).

    Complementary subsets share the transpose spectrum, so larger subsets
    are redundant and skipped.  Report order is by size, then lexicographic.
    """

    reports: tuple[PptReport, ...]
    all_ppt: bool


@dataclass(frozen=True)
class RhoClassification:
    """Family verdict record: single-cut PPT, pair-cut NPT, and the claim.

    ``npt_pairs`` is None when no two-party cut exists (N = 2).  The
    non-distillability entry is a theorem-level corollary of single-cut PPT,
    labeled as such rather than numerically certified.
    """

    n: int
    alpha: float
    ppt_single: bool
    npt_pairs: bool | None
    bound_entangled_claim: bool
    non_distillability: str


def _components(a: np.ndarray, b: np.ndarray, count: int) -> np.ndarray:
    """Connected-component id (0..k-1) of each of ``count`` nodes joined by
    the edges a[e]-b[e]: min-label hooking with pointer jumping."""
    label = np.arange(count)
    while True:
        hooked = label.copy()
        np.minimum.at(hooked, a, label[b])
        np.minimum.at(hooked, b, label[a])
        hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            return np.unique(label, return_inverse=True)[1]
        label = hooked


def _min_eigenvalue(op: DensityOperator) -> float:
    """Smallest eigenvalue of a sparse Hermitian operator, block by block.

    Basis states linked by an entry share a block, so the spectrum is the
    union of the spectra of the connected components of the sparsity graph,
    plus 0 when some basis state carries no entry at all.  Blocks of equal
    size are eigensolved densely in stacks of at most MAX_GLOBAL_DIM rows, so
    no stack outgrows one dense matrix at the cap; a block above the cap
    raises ValueError.
    """
    nodes, inverse = np.unique(np.concatenate([op.rows, op.cols]), return_inverse=True)
    r, c = np.split(inverse, 2)
    block = _components(r, c, nodes.size)
    sizes = np.bincount(block)
    order = np.argsort(block, kind="stable")
    local = np.empty_like(order)  # each node's position inside its block
    local[order] = np.arange(nodes.size) - (np.cumsum(sizes) - sizes)[block[order]]
    lows = [0.0] if nodes.size < op.layout.dim else []
    for size in np.flatnonzero(np.bincount(sizes)):  # np.unique would import numpy.ma
        per_stack = MAX_GLOBAL_DIM // dense_size(size)
        slot = np.cumsum(sizes == size) - 1  # a block's place among those of its size
        stack_of = np.where(sizes[block[r]] == size, slot[block[r]] // per_stack, -1)
        for first in range(0, slot[-1] + 1, per_stack):
            sel = stack_of == first // per_stack
            stack = np.zeros((min(per_stack, slot[-1] + 1 - first), size, size), dtype=complex)
            stack[slot[block[r[sel]]] - first, local[r[sel]], local[c[sel]]] = op.vals[sel]
            lows.append(float(hermitian_eigenvalues(stack)[:, 0].min()))
    return min(lows)


def ppt_check(rho: DensityOperator, subset, tol: float = DEFAULT_PPT_TOL) -> PptReport:
    """Check positivity of the partial transpose on ``subset`` (tol >= 0)."""
    if not tol >= 0.0:
        raise ValueError(f"tolerance must be a non-negative number, got {tol!r}")
    parties = rho.layout.check_subset(subset, nonempty=True, proper=True)
    min_eig = _min_eigenvalue(partial_transpose(rho, parties))
    threshold = -tol * max(1.0, rho.trace)
    verdict = PSD if min_eig >= threshold else NOT_PSD
    return PptReport(parties, min_eig, verdict, tol)


def scan(rho: DensityOperator, tol: float = DEFAULT_PPT_TOL) -> BipartitionScan:
    """PPT-check every subset of size up to floor(N/2), in deterministic order."""
    n = rho.layout.num_parties
    cuts = (s for size in range(1, n // 2 + 1) for s in combinations(range(1, n + 1), size))
    reports = tuple(ppt_check(rho, s, tol) for s in cuts)
    return BipartitionScan(reports, all(r.verdict == PSD for r in reports))


def cut_verdicts(reports) -> tuple[bool, bool | None, bool]:
    """(ppt_single, npt_pairs, bound-entanglement claim) from the single- and
    two-party reports among ``reports``; npt_pairs is None without pairs."""
    ppt_single = all(r.verdict == PSD for r in reports if len(r.subset) == 1)
    pairs = [r.verdict == NOT_PSD for r in reports if len(r.subset) == 2]
    npt_pairs = all(pairs) if pairs else None
    return ppt_single, npt_pairs, bool(ppt_single and npt_pairs)


def classify_family(
    n: int, alpha: float | None = None, tol: float = DEFAULT_PPT_TOL
) -> RhoClassification:
    """Classify one family member: PPT across single cuts, NPT across pairs.

    Checks cut (1,) and, for N >= 3, cut (1, 2); at N = 2 a pair would be the
    whole system.  That is exact for every cut of both sizes: the family is
    invariant under party permutations, and a permutation pi relabels the
    basis, mapping PT_S unitarily to PT_pi(S), so the spectrum depends on
    |S| only.  The bound-entanglement claim is the conjunction of both
    facts; it holds exactly for N >= 4.
    """
    spec = RhoFamilySpec(n, alpha)
    rho = rho_family(spec)
    cuts = [(1,), (1, 2)] if spec.n >= 3 else [(1,)]
    ppt_single, npt_pairs, claim = cut_verdicts([ppt_check(rho, s, tol) for s in cuts])
    basis = DERIVED_BY_THEOREM if ppt_single else NOT_INFERRED
    return RhoClassification(spec.n, spec.alpha, ppt_single, npt_pairs, claim, basis)
