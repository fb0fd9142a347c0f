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
the party layout, the family's spec, the PPT report and verdict records, the
Bell settings record with the optimizer's defaults, Mermin's product form
summed over an operator's listed entries (:func:`entries_bell_value`, the
plain path of ``bell --input`` for small files), and the three errors of
the extraction protocol, each with its own exit code.  The records are slotted
classes and named tuples, not dataclasses: ``dataclasses`` imports
``inspect``, about 10 ms of every CLI child's start-up.  ``fractions`` loads
only when a PPT minimum is asked for.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from itertools import combinations
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

PSD = "PSD"
NOT_PSD = "NOT_PSD"
DEFAULT_PPT_TOL = 1e-9

UNIT_TOL = 1e-12
DEFAULT_RESTARTS = 16
DEFAULT_OPT_TOL = 1e-10

MAX_GLOBAL_DIM = 4096  # largest side of any dense array: 256 MiB as a complex matrix
HERMITIAN_TOL = 1e-12


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


def dense_size(size: int) -> int:
    """``size`` if a dense array of that side may be allocated; ValueError above MAX_GLOBAL_DIM."""
    if size > MAX_GLOBAL_DIM:
        raise ValueError(f"dense dimension {size} exceeds the cap {MAX_GLOBAL_DIM}")
    return size


class NotEntangledError(ValueError):
    """The input carries no entanglement to extract."""


class PairUnavailableError(ValueError):
    """The requested pair is not contained in the surviving parties."""


class NumericDegeneracyError(RuntimeError):
    """The state is numerically inconsistent with the protocol's case logic."""


class _Record:
    """An immutable record: ``_fields`` name its constructor's arguments, which
    are also its repr, its pickle and, unless a subclass says otherwise, its
    equality and hash.  Constructors set attributes with ``object.__setattr__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class PartyLayout(_Record):
    """Ordered local dimensions of the parties sharing a state.

    ``dim``, their product, is computed once here; layouts compare, hash and
    print by ``dims`` alone.
    """

    __slots__ = ("dims", "dim")
    _fields = ("dims",)

    def __init__(self, dims: tuple[int, ...]) -> None:
        dims = _integers(dims, "local dimensions")
        if len(dims) < 1:
            raise ValueError("a layout needs at least one party")
        if any(d < 2 for d in dims):
            raise ValueError(f"every local dimension must be >= 2, got {dims}")
        dim = math.prod(dims)
        if dim**2 >= 2**63:
            raise ValueError(f"global dimension {dim} too large for int64 entry keys")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "dim", dim)

    @classmethod
    def qubits(cls, n: int) -> "PartyLayout":
        if n < 1:
            raise ValueError("need at least one qubit")
        return cls((2,) * n)

    @property
    def num_parties(self) -> int:
        return len(self.dims)

    @property
    def dense_dim(self) -> int:
        """``dim``, for code about to allocate a dense array over the layout;
        ValueError above MAX_GLOBAL_DIM."""
        return dense_size(self.dim)

    def dim_of(self, party: int) -> int:
        self._check_party(party)
        return self.dims[party - 1]

    def _check_party(self, party: int) -> None:
        if not 1 <= party <= self.num_parties:
            raise ValueError(
                f"party index {party} out of range 1..{self.num_parties}"
            )

    def check_subset(
        self, parties, *, nonempty: bool = False, proper: bool = False
    ) -> tuple[int, ...]:
        """Validate a collection of party indices, returning them sorted."""
        subset = tuple(sorted(set(_integers(parties, "party indices"))))
        for p in subset:
            self._check_party(p)
        if nonempty and not subset:
            raise ValueError("subset of parties must not be empty")
        if proper and len(subset) == self.num_parties:
            raise ValueError("subset must be a proper subset of the parties")
        return subset


def default_alpha(n: int) -> float:
    """GHZ phase pi*(N-1)/4 that maximizes the Bell expectation for N parties."""
    return math.pi * (n - 1) / 4.0


class RhoFamilySpec(_Record):
    """Parameters (party count, GHZ phase) selecting one family member.

    ``alpha=None`` resolves to :func:`default_alpha`.  The party count must
    be an integer (4.7 is rejected, not cut to 4) in 2..31, the qubit
    layouts whose int64 entry keys cannot wrap; the family itself is sparse
    (2N+4 entries), so nothing dense bounds it.
    """

    __slots__ = _fields = ("n", "alpha")

    def __init__(self, n: int, alpha: float | None = None) -> None:
        (n,) = _integers((n,), "party count")
        if not 2 <= n <= 31:
            raise ValueError(f"party count {n} outside supported range 2..31")
        alpha = default_alpha(n) if alpha is None else float(alpha)
        if not math.isfinite(alpha):
            raise ValueError("alpha must be finite")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "alpha", alpha)


class PptReport(NamedTuple):
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


class BellSettings(_Record):
    """Two measurement directions (unit 3-vectors) per party; settings compare
    and hash by identity."""

    __slots__ = _fields = ("a", "a_prime")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, a, a_prime) -> None:
        a = tuple(map(_unit_direction, a))
        ap = tuple(map(_unit_direction, a_prime))
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


class OperatorEntries(NamedTuple):
    """A checked operator in plain Python: its layout and its nonzero entries
    as (row, col, value), the plain counterpart of :class:`tensor.DensityOperator`."""

    layout: PartyLayout
    entries: tuple[tuple[int, int, complex], ...]


def _prefactor(n: int) -> complex:
    return ((1.0 - 1.0j) / 2.0) ** (n - 1)


def mermin_factor(a, ap) -> tuple[complex, complex, complex, complex]:
    """M = sigma.a + i sigma.a' as its elements (M00, M01, M10, M11)."""
    ax, ay, az = a
    bx, by, bz = ap
    return complex(az, bz), complex(ax + by, bx - ay), complex(ax - by, ay + bx), complex(-az, -bz)


def bell_parties(layout: PartyLayout, settings: BellSettings) -> int:
    """The party count of an all-qubit ``layout`` that ``settings`` cover; ValueError otherwise."""
    if any(d != 2 for d in layout.dims):
        raise ValueError("Bell evaluation requires an all-qubit layout")
    n = layout.num_parties
    if settings.num_parties != n:
        raise ValueError(f"settings cover {settings.num_parties} parties, state has {n}")
    return n


def _exact_sum(terms: list[float]) -> float:
    """The correctly rounded sum; an infinite or overflowing one as the float sum gives it."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):  # inf - inf, or finite terms past the double range
        return sum(terms)


def entries_bell_value(op: OperatorEntries, settings: BellSettings) -> float:
    """tr(B rho) from the listed entries, as :func:`bell.bell_value` computes it.

    Each entry rho[r, c] contributes rho[r, c] prod_j M_j[c_j, r_j], the
    factors multiplied in party order as there; the terms' real and
    imaginary parts are summed exactly (:func:`math.fsum`).  So the value
    agrees with bell_value's to rounding, and bit for bit where the terms and
    their sum are exact, as for the family's x/y terms: zeros and the one
    term rho[1...1, 0...0] 2^N.
    """
    n = bell_parties(op.layout, settings)
    factors = list(map(mermin_factor, settings.a, settings.a_prime))
    shifts = range(n - 1, -1, -1)  # party j sits at bit N - j
    re, im = [], []
    for r, c, v in op.entries:
        for m, shift in zip(factors, shifts):
            v = v * m[(c >> shift & 1) << 1 | r >> shift & 1]
        re.append(v.real)
        im.append(v.imag)
    return (_prefactor(n) * complex(_exact_sum(re), _exact_sum(im))).real


# The closed forms below are the one source of the family's entries and GHZ
# amplitudes: states.rho_family and states.ghz build their arrays from them.
# xy_value repeats, operation for operation, the complex128 arithmetic of
# bell.bell_value (every product is complex by complex, as numpy's is), so its
# value is bit-identical to that of the sparse path.


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


def ghz_amplitudes(alpha: float) -> tuple[complex, complex]:
    """The amplitudes of |0...0> and |1...1> in (|0...0> + e^{i alpha} |1...1>)/sqrt(2)."""
    root = complex(1.0 / math.sqrt(2.0))
    return root, _phase(alpha) * root


def ghz_obj(spec: RhoFamilySpec) -> dict:
    """The state file of the member's GHZ component, (|0...0> + e^{i alpha} |1...1>)/sqrt(2)."""
    amps = zip((0, (1 << spec.n) - 1), ghz_amplitudes(spec.alpha))
    return {"dims": [2] * spec.n, "amps": [[i, v.real, v.imag] for i, v in amps]}


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


def never_violates(n: int) -> bool:
    """Whether no settings take rho_N's Bell value past 1, at any phase: N in {3, 5, 7}.

    At odd N the diagonal adds nothing, exactly: M_j's diagonal is (m_j, -m_j),
    so the weights at |0...0>, |1...1>, the N flips and their complements meet
    signs 1 - 1 - N + N.  The GHZ coherence, of modulus 1/(2(N+1)), meets
    prod_j M_j[0, 1] and prod_j M_j[1, 0]; per party |M01|^2 + |M10|^2 <= 4, so
    by Cauchy-Schwarz |tr(B rho_N)| <= |c_N| 2^N / (2(N+1)) = 2^((N-1)/2)/(N+1),
    at most 1 iff 2^(N-1) <= (N+1)^2, with equality at N = 7.
    """
    return n % 2 == 1 and 2 ** (n - 1) <= (n + 1) ** 2


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
    from fractions import Fraction  # here, so state and bell never load fractions and decimal

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


def classify_family(n: int) -> Verdicts:
    """Classify the family member of N parties: PPT across single cuts, NPT across pairs.

    Decided exactly from N by :func:`min_eigenvalue`, for every phase: an
    exact verdict has no rounding for a tolerance to absorb.  At N = 2 a pair
    would be the whole system.  The bound-entanglement claim is the conjunction
    of both facts; it holds exactly for N >= 4.
    """
    n = RhoFamilySpec(n).n
    ppt_single = min_eigenvalue(n, 1) >= 0
    npt_pairs = min_eigenvalue(n, 2) < 0 if n >= 3 else None
    return Verdicts(ppt_single, npt_pairs, bool(ppt_single and npt_pairs))
