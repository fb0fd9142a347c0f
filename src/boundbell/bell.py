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
"""

from __future__ import annotations

import math

import numpy as np

from .family import DEFAULT_OPT_TOL, DEFAULT_RESTARTS, BellSettings, _integers, _prefactor
from .tensor import DensityOperator

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_PAULIS = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])

MAX_SWEEPS = 500
_ZERO_GRADIENT = 1e-14


def _factor(a, ap) -> np.ndarray:
    """M = sigma.a + i sigma.a' as the flat array [M00, M01, M10, M11]."""
    ax, ay, az = a
    bx, by, bz = ap
    return np.array(
        [complex(az, bz), complex(ax + by, bx - ay), complex(ax - by, ay + bx), complex(-az, -bz)]
    )


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
    if any(d != 2 for d in rho.layout.dims):
        raise ValueError("Bell evaluation requires an all-qubit layout")
    n = rho.layout.num_parties
    if settings.num_parties != n:
        raise ValueError(f"settings cover {settings.num_parties} parties, state has {n}")
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

    One code table (:func:`_entry_codes`, 8 N nnz bytes) serves every
    restart: row j - 1 gathers party j's factor elements and bins its gradient.

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
    paulis, one = _PAULIS.reshape(3, 4), np.ones(1)
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
            for m, code in zip(reversed(factors), codes[::-1]):
                suffix.append(suffix[-1] * m[code])
            prefix = rho.vals
            for j, code in enumerate(codes):
                w = prefix * suffix[n - 1 - j]
                g = np.bincount(code, w.real, 4) + 1j * np.bincount(code, w.imag, 4)
                v = c * (paulis @ g)
                for target, grad in ((avecs, v.real), (apvecs, -v.imag)):
                    gnorm = math.sqrt(grad.dot(grad))
                    if gnorm >= _ZERO_GRADIENT:
                        target[j] = (grad / gnorm).tolist()
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
