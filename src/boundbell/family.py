"""The family in closed form, and the plain records the family commands print.

rho_N = (|GHZ_alpha><GHZ_alpha| + 1/2 sum_k (P_{u_k} + P_{u_k-bar})) / (N+1),
with u_k the basis state flipping party k alone and u_k-bar its complement,
is an X-state in the Dür–Cirac canonical form (PRA 61, 042314, 2000): apart
from its diagonal, only the GHZ coherence between |0...0> and |1...1> is
nonzero, of modulus 1/(2(N+1)) for every phase.  So every number that the
commands ``state --n``, ``scan --n``, ``sweep`` and ``bell --n`` (x/y
settings) print has a short exact form in N and alpha: the 2N+4 entries, the
smallest eigenvalue of each cut's partial transpose (decided in
:class:`fractions.Fraction`), and the x/y Mermin value (Mermin, PRL 65,
1838, 1990).

This module imports the standard library only, so those commands never load
numpy.  For the same reason it holds the plain records, checks and defaults
that they share with the numpy-backed modules, which import them from here:
the family's spec, the PPT report and verdict records, and the Bell settings
record with the optimizer's defaults.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

PSD = "PSD"
NOT_PSD = "NOT_PSD"
DEFAULT_PPT_TOL = 1e-9

UNIT_TOL = 1e-12
DEFAULT_RESTARTS = 16
DEFAULT_OPT_TOL = 1e-10


def _integers(values, what: str) -> tuple[int, ...]:
    """``values`` as ints; ValueError unless each already is one (2.9 is not cut to 2)."""
    raw = tuple(values)
    try:
        ints = tuple(int(v) for v in raw)
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != raw:
        raise ValueError(f"{what} must be integers, got {values!r}")
    return ints


def _check_tolerance(tol: float) -> None:
    """ValueError unless ``tol`` is a finite, non-negative number."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be a finite non-negative number, got {tol!r}")


def default_alpha(n: int) -> float:
    """GHZ phase pi*(N-1)/4 that maximizes the Bell expectation for N parties."""
    return math.pi * (n - 1) / 4.0


@dataclass(frozen=True)
class RhoFamilySpec:
    """Parameters (party count, GHZ phase) selecting one family member.

    ``alpha=None`` resolves to :func:`default_alpha`.  The party count must
    be an integer (4.7 is rejected, not cut to 4) in 2..31, the qubit
    layouts whose int64 entry keys cannot wrap; the family itself is sparse
    (2N+4 entries), so nothing dense bounds it.
    """

    n: int
    alpha: float | None = None

    def __post_init__(self) -> None:
        (n,) = _integers((self.n,), "party count")
        object.__setattr__(self, "n", n)
        if not 2 <= n <= 31:
            raise ValueError(f"party count {n} outside supported range 2..31")
        alpha = default_alpha(n) if self.alpha is None else float(self.alpha)
        if not math.isfinite(alpha):
            raise ValueError("alpha must be finite")
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True)
class PptReport:
    """Positivity verdict for one partial transpose."""

    subset: tuple[int, ...]
    min_eigenvalue: float
    verdict: str


class Verdicts(NamedTuple):
    """Single-cut PPT, pair-cut NPT (None when no pair cut exists, N = 2),
    and the bound-entanglement claim, their conjunction."""

    ppt_single: bool
    npt_pairs: bool | None
    bound_entangled_claim: bool


def _unit_direction(v) -> tuple[float, float, float]:
    """Validate one measurement direction: three finite components, unit norm."""
    v = tuple(map(float, v))
    if len(v) != 3:
        raise ValueError("directions must be 3-vectors")
    x, y, z = v
    if abs(math.sqrt(x**2 + y**2 + z**2) - 1.0) <= UNIT_TOL:
        return v  # a unit norm implies finite components
    if not all(map(math.isfinite, v)):
        raise ValueError(f"direction {v} has a non-finite component")
    raise ValueError(f"direction {v} is not a unit vector")


@dataclass(frozen=True, eq=False)
class BellSettings:
    """Two measurement directions (unit 3-vectors) per party."""

    a: tuple[tuple[float, float, float], ...]
    a_prime: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        a = tuple(map(_unit_direction, self.a))
        ap = tuple(map(_unit_direction, self.a_prime))
        if len(a) != len(ap) or len(a) < 1:
            raise ValueError("need one (a, a') pair of directions per party")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "a_prime", ap)

    @classmethod
    def xy(cls, n: int) -> "BellSettings":
        """Every party measures along x and y (the closed-form configuration)."""
        return cls(((1.0, 0.0, 0.0),) * n, ((0.0, 1.0, 0.0),) * n)

    @property
    def num_parties(self) -> int:
        return len(self.a)


def _prefactor(n: int) -> complex:
    return ((1.0 - 1.0j) / 2.0) ** (n - 1)


# The closed forms below repeat, operation for operation, the complex128
# arithmetic of states.rho_family, states.ghz and bell.bell_value (every
# product is complex by complex, as numpy's is), so the files and values they
# give are bit-identical to those of the sparse path.


def _phase(alpha: float) -> complex:
    return cmath.exp(1j * alpha)


def _flip_counts(n: int) -> Counter:
    """Basis index -> how many of the 2N flip projectors sit on it: one each,
    but two at N = 2, where the projectors of the two parties coincide."""
    last = (1 << n) - 1
    return Counter(i for k in range(n) for i in (1 << k, last - (1 << k)))


def operator_obj(spec: RhoFamilySpec) -> dict:
    """The member's operator file: its nonzero entries (2N+4, or 2N+2 at N = 2), row-major."""
    n, last = spec.n, (1 << spec.n) - 1
    half, scale = complex(0.5), complex(1.0 / (n + 1))
    phase = _phase(spec.alpha)
    entries = {(0, 0): half, (0, last): half * phase.conjugate(), (last, 0): half * phase, (last, last): half}
    entries.update(((i, i), complex(0.5 * count)) for i, count in _flip_counts(n).items())
    scaled = ((key, v * scale) for key, v in sorted(entries.items()))
    return {"dims": [2] * n, "entries": [[r, c, v.real, v.imag] for (r, c), v in scaled]}


def ghz_obj(spec: RhoFamilySpec) -> dict:
    """The state file of the member's GHZ component, (|0...0> + e^{i alpha} |1...1>)/sqrt(2)."""
    root = complex(1.0 / math.sqrt(2.0))  # numpy divides by sqrt(2) through its reciprocal
    last = _phase(spec.alpha) * root
    amps = [[0, root.real, root.imag], [(1 << spec.n) - 1, last.real, last.imag]]
    return {"dims": [2] * spec.n, "amps": amps}


def xy_value(spec: RhoFamilySpec) -> float:
    """tr(B rho_N) with every party measuring along x and y.

    sigma_x + i sigma_y = 2|0><1| at each party, so only the entry
    <1...1|rho_N|0...0> = e^{i alpha}/(2(N+1)) meets a nonzero product, 2^N:
    the value is Re[c_N e^{i alpha}] 2^(N-1)/(N+1), that is
    2^((N-1)/2)/(N+1) at the default phase.
    """
    n = spec.n
    corner = complex(0.5) * _phase(spec.alpha) * complex(1.0 / (n + 1))
    return (_prefactor(n) * (corner * complex(2**n))).real


def min_eigenvalue(n: int, size: int) -> Fraction:
    """Smallest eigenvalue of rho_N's partial transpose on a cut of ``size`` parties.

    Transposing the parties of a cut S moves the GHZ coherence, of modulus
    w = 1/(2(N+1)) for every phase, to the pair {|i>, |i-bar>}, i the basis
    state with 1s exactly at S; every other basis state stays a 1x1 block of
    its diagonal entry (0 where rho_N has none).  The diagonal is invariant
    under complementing all bits, so the pair's block [[d_i, c], [c*, d_i]]
    has eigenvalues d_i +- w.  The family is invariant under party
    permutations, so the spectrum depends on |S| only: 0 for |S| in
    {1, N-1}, -w otherwise, and 1/6 at N = 2, where d_i = 1/3.
    """
    w = Fraction(1, 2 * (n + 1))
    last = (1 << n) - 1
    diagonal = {0: w, last: w, **{i: count * w for i, count in _flip_counts(n).items()}}
    pair = {(1 << size) - 1, last - ((1 << size) - 1)}
    rest = [d for i, d in diagonal.items() if i not in pair]
    if len(diagonal.keys() | pair) <= last:  # some basis state has no entry
        rest.append(Fraction(0))
    return min(diagonal.get(min(pair), Fraction(0)) - w, *rest)


def scan_reports(n: int) -> tuple[PptReport, ...]:
    """A report for every cut of 1..floor(N/2) parties, by size, then
    lexicographic, carrying the exact minimum rounded to a float; a cut is
    PSD iff that minimum is >= 0, exactly."""
    reports = []
    for size in range(1, n // 2 + 1):
        low = min_eigenvalue(n, size)
        verdict = PSD if low >= 0 else NOT_PSD
        reports += (PptReport(s, float(low), verdict) for s in combinations(range(1, n + 1), size))
    return tuple(reports)


def classify_family(n: int, alpha: float | None = None, tol: float = DEFAULT_PPT_TOL) -> Verdicts:
    """Classify one family member: PPT across single cuts, NPT across pairs.

    Decided exactly from N by :func:`min_eigenvalue`; the phase drops out,
    and so does ``tol`` (still checked to be finite and >= 0): an exact
    verdict has no rounding for a tolerance to absorb.  At N = 2 a pair would
    be the whole system.  The bound-entanglement claim is the conjunction of both
    facts; it holds exactly for N >= 4.
    """
    spec = RhoFamilySpec(n, alpha)
    _check_tolerance(tol)
    ppt_single = min_eigenvalue(spec.n, 1) >= 0
    npt_pairs = min_eigenvalue(spec.n, 2) < 0 if spec.n >= 3 else None
    return Verdicts(ppt_single, npt_pairs, bool(ppt_single and npt_pairs))
