"""Partial-transpose positivity certification across bipartitions.

Positivity of every partial transpose is necessary for full separability;
a negative two-party transpose certifies entanglement.  Non-distillability
is the theorem-level corollary of single-cut PPT (filtering extraction plus
monotonicity of the partial-transpose sign under local operations), stated
here and never re-proved numerically or reported as a verdict.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .family import (
    DEFAULT_PPT_TOL, MAX_GLOBAL_DIM, NOT_PSD, PSD, PptReport, Verdicts, dense_size, tolerance,
)
from .tensor import DensityOperator, hermitian_eigenvalues, partial_transpose


def __getattr__(name: str):
    """``rho_family``, imported from :mod:`boundbell.states` on first access
    (PEP 562): bench/tracing.py rebinds it here, and ``scan --input`` never
    calls it, so importing this module loads no ``states``."""
    if name != "rho_family":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .states import rho_family

    return rho_family


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
    """Check positivity of the partial transpose on ``subset`` (tol finite, >= 0)."""
    tol = tolerance(tol)
    parties = rho.layout.check_subset(subset, nonempty=True, proper=True)
    min_eig = _min_eigenvalue(partial_transpose(rho, parties))
    threshold = -tol * max(1.0, rho.trace)
    verdict = PSD if min_eig >= threshold else NOT_PSD
    return PptReport(parties, min_eig, verdict)


def _permutation_invariant(rho: DensityOperator) -> bool:
    """Whether ``rho`` is invariant under every party permutation.

    The N - 1 adjacent transpositions generate all permutations, so each is
    applied to the entries (swap two digits of every row and column index by
    their strides, re-sort) and compared with the canonical arrays exactly,
    with no tolerance.  Layouts with unequal local dims are not invariant.
    """
    dims = rho.layout.dims
    if len(set(dims)) > 1:
        return False
    d, dim = dims[0], rho.layout.dim
    keys = rho.rows * dim + rho.cols
    for k in range(len(dims) - 1):  # swap the digits of strides d**k and d**(k+1)
        low, high = d**k, d ** (k + 1)
        rows, cols = (
            i + ((i // low) % d - (i // high) % d) * (high - low) for i in (rho.rows, rho.cols)
        )
        swapped = rows * dim + cols
        order = np.argsort(swapped)
        if not (np.array_equal(swapped[order], keys) and np.array_equal(rho.vals[order], rho.vals)):
            return False
    return True


def scan(rho: DensityOperator, tol: float = DEFAULT_PPT_TOL) -> tuple[PptReport, ...]:
    """PPT-check every subset of size 1..floor(N/2), by size, then lexicographic.

    Complementary subsets share the transposed spectrum, so larger subsets
    are redundant and skipped.  When ``rho`` is invariant under party
    permutations (tested exactly, see ``_permutation_invariant``), a
    permutation pi relabels the basis and maps PT_S unitarily to PT_pi(S),
    so every cut of one size has the spectrum of the first: that cut is
    checked once and its report is repeated, under each subset, for the
    others.  Any other operator has every cut checked.  A layout of fewer
    than two parties has no cut and raises ValueError.
    """
    n = rho.layout.num_parties
    if n < 2:
        raise ValueError(f"a PPT scan needs at least two parties, got {n}")
    once = _permutation_invariant(rho)
    reports = []
    for size in range(1, n // 2 + 1):
        cuts = combinations(range(1, n + 1), size)
        first = ppt_check(rho, next(cuts), tol)
        reports.append(first)
        reports += (
            PptReport(s, first.min_eigenvalue, first.verdict) if once else ppt_check(rho, s, tol)
            for s in cuts
        )
    return tuple(reports)


def cut_verdicts(reports, n: int) -> Verdicts:
    """The verdicts from reports on an ``n``-party operator: a report is a single
    (pair) cut when its subset or complement has one (two) parties, since
    both sides share the transposed spectrum."""
    def verdicts(size):
        return [r.verdict for r in reports if size in (len(r.subset), n - len(r.subset))]

    ppt_single = all(v == PSD for v in verdicts(1))
    pairs = verdicts(2)
    npt_pairs = all(v == NOT_PSD for v in pairs) if pairs else None
    return Verdicts(ppt_single, npt_pairs, bool(ppt_single and npt_pairs))
