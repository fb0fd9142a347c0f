"""Multi-qubit Bell operator in Mermin's product form, evaluation, and search.

The operator family is normalized so local hidden variable models obey
|<B>| <= 1 while the quantum bound is 2^((N-1)/2).  The party-appending
recursion closes to Mermin's product form (PRL 65, 1838, 1990) in the
normalization of Gisin and Bechmann-Pasquinucci (PLA 246, 1, 1998):
B_N + iB'_N = c_N (x)_j M_j with M_j = sigma.a_j + i sigma.a'_j and
c_N = ((1-i)/2)^(N-1).  B_N is its Hermitian part, and tr(B rho) =
Re[c_N tr((x)_j M_j rho)] never forms B: each nonzero entry rho[r, c]
contributes rho[r, c] prod_j M_j[c_j, r_j], with r_j and c_j party j's
digits of r and c, read from codes 2 c_j + r_j (per party for one value, an
(N, nnz) table for the optimizer's restarts).  No dense 2^N x 2^N operator
exists in the package: the cost is O(N nnz) for any N the layout admits, and
with every party measuring along x and y only the entries coupling |0...0>
and |1...1> contribute.

numpy multiplies complex arrays in vectorized loops that use fused
multiply-add where the CPU has it, so a product can differ in its last bit
from Python's scalar complex product: 447 of 1,000 seeded random products
did with numpy 2.4 on a Xeon with AVX-512 and FMA.  A value for a settings
file therefore agrees across hosts, and with the plain path of ``bell
--input`` (:func:`boundbell.family.entries_bell_value`), to rounding only: on
an N = 8 family file with optimized settings (the benchmark's cli_pipeline,
seed 0, round 1) the plain path prints 1.1685915351197391 and this module
1.168591535119739.  The family's x/y values stay exact, since their terms
are 0 and rho[1...1, 0...0] 2^N.

The optimizer keeps in numpy only what runs over the nnz entries: the
suffix products, each update's weights, their 8-bin ``np.bincount`` and the
gather and multiply that extend the prefix product.  The rest of an update
acts on 4 bins and two 3-vectors, where a numpy call costs more than its
arithmetic, so it runs on Python scalars: v = c_N sigma.G from the unpacked
bins and the division, with both squared norms from one ``np.vecdot``.  The
scalars give the bits that complex numpy arrays give, on any host (the
tests' all-numpy reference optimizer checks it, signed zeros included):
sigma's entries are 0, +-1 and +-i, so sigma.G is exact sums and
differences of bins; c_N's components are 0 or +-2^-k, so each component of
c_N sigma.G is one correctly rounded real operation, with or without fused
multiply-add; a bin, summed from +0.0, is never -0.0, so no exact zero
changes sign; ``np.vecdot`` runs the dot kernel that ``ndarray.dot`` runs;
and division is correctly rounded either way.
"""

from __future__ import annotations

import math

import numpy as np

from .family import (
    DEFAULT_OPT_TOL, DEFAULT_RESTARTS, BellSettings, _integers, _prefactor, bell_parties, mermin_factor,
)
from .tensor import DensityOperator

MAX_SWEEPS = 500
_ZERO_GRADIENT = 1e-14


def _factor(a, ap) -> np.ndarray:
    """M = sigma.a + i sigma.a' as the flat array [M00, M01, M10, M11]."""
    return np.array(mermin_factor(a, ap))


def _entry_codes(rho: DensityOperator, shifts) -> np.ndarray:
    """Per entry, the flat index 2*c_j + r_j of the M_j[c_j, r_j] it meets, for
    the party at bit ``shifts``: one row for an int, the table for a column of
    them (party j sits at bit N - j); built in place (two arrays)."""
    codes = (rho.cols >> shifts) & 1
    codes <<= 1
    bits = rho.rows >> shifts
    bits &= 1
    codes |= bits
    return codes


def _trace_terms(vals: np.ndarray, factors, codes) -> np.ndarray:
    """Per entry, rho[r, c] prod_j M_j[c_j, r_j]; they sum to tr((x)_j M_j rho)."""
    for m, code in zip(factors, codes):
        vals = vals * m[code]
    return vals


def bell_value(rho: DensityOperator, settings: BellSettings) -> float:
    """Expectation tr(B rho); |value| > 1 signals a Bell violation.

    The imaginary part of c_N tr((x)_j M_j rho) is tr(B' rho), the primed
    operator's expectation, and is discarded.  The codes are built one party
    at a time, so dense input never holds a full code table.
    """
    n = bell_parties(rho.layout, settings)
    factors = list(map(_factor, settings.a, settings.a_prime))
    codes = (_entry_codes(rho, shift) for shift in range(n - 1, -1, -1))
    terms = _trace_terms(rho.vals, factors, codes)
    return float((_prefactor(n) * terms.sum()).real)


def optimize_settings(
    rho: DensityOperator,
    restarts: int = DEFAULT_RESTARTS,
    tol: float = DEFAULT_OPT_TOL,
    seed: int = 0,
    max_sweeps: int = MAX_SWEEPS,
) -> tuple[BellSettings, float]:
    """Maximize tr(B rho) over measurement directions by coordinate ascent.

    The objective is linear in each factor M_j: it is Re(c_N sum_ab M_j[a, b]
    G_j[a, b]), G_j[a, b] summing the entries with c_j = a, r_j = b times their
    factor elements at the updated parties 1..j-1 (prefix products) and at
    parties j+1..N (suffix products from the start of the sweep).  So each
    update is exact: with v = c_N sum_ab sigma[a, b] G_j[a, b], a_j points
    along Re(v) and a'_j along -Im(v).  Restarts
    draw seeded random initial directions; the best value wins, ties going
    to the earliest restart.  A direction with vanishing gradient is left
    untouched for that sweep.

    Two tables serve every restart, their rows listed once per call.  Row
    j - 1 of the codes (:func:`_entry_codes`, 8 N nnz bytes) gathers party
    j's factor elements; that of the bins (2 N nnz bytes: 2k and 2k + 1 for
    code k) sums the real and imaginary parts of its gradient's weights in
    one ``np.bincount``, which gives the four complex G_j[c, r] at k = 2c + r.
    Only these nnz-length steps run in numpy; v and the normalized directions
    are Python scalars, the two squared norms coming from one ``np.vecdot``
    over a (2, 3) buffer (see the module docstring for why the bits match).

    A restart stops after ``max_sweeps`` sweeps or after the first sweep that
    raises the value by less than ``tol``.  Exact ascent never lowers the
    value beyond rounding, so a negative ``tol`` runs ``max_sweeps`` sweeps in
    practice, and ``tol=-math.inf`` always does.  ValueError on a NaN ``tol``
    (it would never stop a restart early) and on +inf (it would stop every
    restart after one sweep); on non-integer counts (1.7 is not cut to 1), on
    ``restarts`` < 1, ``seed`` < 0 and ``max_sweeps`` < 0 (0 scores the
    random starts).
    """
    layout = rho.layout
    if any(d != 2 for d in layout.dims):
        raise ValueError("optimizer requires an all-qubit layout")
    n = layout.num_parties
    restarts, seed, max_sweeps = _integers((restarts, seed, max_sweeps), "restarts/seed/max_sweeps")
    if restarts < 1:
        raise ValueError("need at least one restart")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be >= 0, got {max_sweeps}")
    if not tol < math.inf:
        raise ValueError(f"optimizer tolerance must be a number below +inf, got {tol!r}")

    c = _prefactor(n)
    codes = _entry_codes(rho, np.arange(n - 1, -1, -1)[:, None])
    bins = (codes[..., None] * 2 + np.arange(2)).astype(np.uint8).reshape(n, -1)
    parties = list(zip(codes, bins))
    codes_reversed = [code for code, _ in reversed(parties)]
    grads, one = np.empty((2, 3)), np.ones(1)
    rng = np.random.default_rng(seed)
    best_value, best = -np.inf, None
    for _ in range(restarts):
        vecs = rng.standard_normal((2 * n, 3))
        norms = np.linalg.norm(vecs, axis=1)
        norms[norms < 1e-12] = 1.0
        vecs /= norms[:, None]
        avecs = vecs[:n].tolist()
        apvecs = vecs[n:].tolist()
        factors = list(map(_factor, avecs, apvecs))

        value = (c * _trace_terms(rho.vals, factors, codes).sum()).real
        for _sweep in range(max_sweeps):
            suffix = [one]  # suffix[k]: product over the last k parties
            for m, code in zip(reversed(factors), codes_reversed):
                suffix.append(suffix[-1] * m[code])
            prefix = rho.vals
            for j, (code, pair) in enumerate(parties):
                w = prefix * suffix[n - 1 - j]
                g0, g1, g2, g3 = np.bincount(pair, w.view(float), 8).view(complex).tolist()
                # v = c_N sigma.G; both squared norms from numpy's dot kernel
                vx = c * (g1 + g2)
                vy = c * complex(g1.imag - g2.imag, g2.real - g1.real)
                vz = c * (g0 - g3)
                grad = (vx.real, vy.real, vz.real), (-vx.imag, -vy.imag, -vz.imag)
                grads[0], grads[1] = grad
                squares = np.vecdot(grads, grads).tolist()
                for target, (x, y, z), square in zip((avecs, apvecs), grad, squares):
                    gnorm = math.sqrt(square)
                    if gnorm >= _ZERO_GRADIENT:
                        target[j] = [x / gnorm, y / gnorm, z / gnorm]
                factors[j] = _factor(avecs[j], apvecs[j])
                prefix = prefix * factors[j][code]
            new_value = (c * prefix.sum()).real
            improvement = new_value - value
            value = new_value
            if improvement < tol:
                break
        if value > best_value:
            best_value = value
            best = (tuple(map(tuple, avecs)), tuple(map(tuple, apvecs)))

    assert best is not None
    return BellSettings(*best), float(best_value)
