"""Exact expected values for every answer the benchmark checks.

Nothing here calls boundbell: each reference is a closed form derived from the
definition of the family, or an evaluation written out independently.

Family facts used (rho_N mixes the GHZ projector with phase alpha and the 2N
single-flip projectors, weight 1/(N+1) each, flip projectors at 1/2):

* The partial transpose on a subset S moves the GHZ coherence, of modulus
  1/(2(N+1)), onto the pair of basis states with ones exactly on S and on
  its complement.  Both carry diagonal weight 1/(2(N+1)) when |S| is 1 or
  N-1 and none otherwise, so the minimum eigenvalue is 0 on single cuts
  and -1/(2(N+1)) on every cut of size 2..N-2, for every alpha.
* With every party measuring x and y the Bell operator couples only
  |0..0> and |1..1> with (1+i)^(N-1), so
  tr(B rho) = 2^((N-1)/2)/(N+1) * cos(pi(N-1)/4 - alpha).
* For any settings, B = (C + C^dagger)/2 with
  C = ((1-i)/2)^(N-1) kron_j (sigma.a_j + i sigma.a'_j)  (Mermin's product form),
  which :func:`bell_expectation` evaluates on the nonzero entries of rho.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

PPT_TOL = 1e-12
XY_TOL = 1e-10
BOUND_SLACK = 1e-9
SETTINGS_TOL = 1e-9
FIDELITY_TOL = 1e-8
SCHMIDT_TOL = 1e-8
GHZ_PROBABILITY_TOL = 1e-10
ENTRY_TOL = 1e-15
HIT_MARGIN = 1e-6

INV_SQRT2 = 1.0 / math.sqrt(2.0)

_PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


class OracleFailure(Exception):
    """An answer disagrees with its expected value."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise OracleFailure(message)


def expect_close(what: str, got, want: float, tol: float) -> None:
    # Written so that NaN fails.
    if not abs(got - want) <= tol:
        raise OracleFailure(f"{what}: got {got!r}, expected {want!r} within {tol}")


def default_alpha(n: int) -> float:
    return math.pi * (n - 1) / 4.0


def cuts(n: int) -> list[tuple[int, ...]]:
    """Every subset of size 1..N/2, by size then lexicographically."""
    return [c for size in range(1, n // 2 + 1) for c in combinations(range(1, n + 1), size)]


def ppt_min_eig(n: int, size: int) -> float:
    return 0.0 if size in (1, n - 1) else -1.0 / (2 * (n + 1))


def xy_value(n: int, alpha: float | None = None) -> float:
    scale = 2.0 ** ((n - 1) / 2) / (n + 1)
    if alpha is None:
        return scale
    return scale * math.cos(math.pi * (n - 1) / 4 - alpha)


def quantum_bound(n: int) -> float:
    return 2.0 ** ((n - 1) / 2)


def family_entries(n: int, alpha: float) -> dict[tuple[int, int], complex]:
    """Nonzero entries of rho_N (global index, party 1 most significant)."""
    d = 1 << n
    w = 1.0 / (2 * (n + 1))
    entries: dict[tuple[int, int], complex] = {}

    def add(r: int, c: int, v: complex) -> None:
        entries[(r, c)] = entries.get((r, c), 0.0) + v

    add(0, 0, w)
    add(d - 1, d - 1, w)
    add(d - 1, 0, w * complex(math.cos(alpha), math.sin(alpha)))
    add(0, d - 1, w * complex(math.cos(alpha), -math.sin(alpha)))
    for k in range(1, n + 1):
        flip = 1 << (n - k)
        add(flip, flip, w)
        add(d - 1 - flip, d - 1 - flip, w)
    return entries


def entries_obj(n: int, alpha: float) -> dict:
    """rho_N in the package's operator wire format."""
    return {
        "dims": [2] * n,
        "entries": [
            [r, c, v.real, v.imag] for (r, c), v in sorted(family_entries(n, alpha).items())
        ],
    }


def bell_expectation(entries: dict[tuple[int, int], complex], a, a_prime) -> float:
    """tr(B rho) from the product form, over the nonzero entries of rho."""
    a = np.asarray(a, dtype=float)
    a_prime = np.asarray(a_prime, dtype=float)
    n = a.shape[0]
    local = np.einsum("ji,ikl->jkl", a, _PAULI) + 1j * np.einsum("ji,ikl->jkl", a_prime, _PAULI)
    coef = ((1 - 1j) / 2) ** (n - 1)

    def c_entry(i: int, j: int) -> complex:
        out = coef
        for k in range(n):
            shift = n - 1 - k
            out *= local[k, (i >> shift) & 1, (j >> shift) & 1]
        return out

    total = 0j
    for (r, c), v in entries.items():
        b_cr = 0.5 * (c_entry(c, r) + np.conj(c_entry(r, c)))
        total += b_cr * v
    return total.real


def check_xy_row(n: int, value: float) -> None:
    expect_close(f"x/y value N={n}", value, xy_value(n), XY_TOL)


def check_optimized(n: int, value: float, a, a_prime, alpha: float) -> None:
    """An optimizer result respects the quantum bound and its settings reproduce it."""
    expect(value <= quantum_bound(n) + BOUND_SLACK, f"value {value!r} above 2^((N-1)/2) at N={n}")
    recomputed = bell_expectation(family_entries(n, alpha), a, a_prime)
    expect_close(f"value of the returned settings N={n}", value, recomputed, SETTINGS_TOL)


def check_pair(final_amps: np.ndarray, dims, coeffs, probability: float, ghz: bool) -> None:
    """Final two-party state is maximally entangled with a valid probability."""
    expect(len(dims) == 2, f"final state has {len(dims)} parties, expected 2")
    for c in coeffs:
        expect_close("reported Schmidt coefficient", c, INV_SQRT2, SCHMIDT_TOL)
    sv = np.linalg.svd(np.asarray(final_amps).reshape(dims[0], dims[1]), compute_uv=False)
    expect(sv.size >= 2, "final state has fewer than two Schmidt coefficients")
    expect_close("Schmidt coefficient of the final state", sv[0], INV_SQRT2, SCHMIDT_TOL)
    expect_close("Schmidt coefficient of the final state", sv[1], INV_SQRT2, SCHMIDT_TOL)
    if ghz:
        expect_close("GHZ success probability", probability, 1.0, GHZ_PROBABILITY_TOL)
    else:
        expect(0.0 < probability <= 1.0, f"success probability {probability!r} outside (0, 1]")


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return abs(complex(np.vdot(a, b))) ** 2
