"""Multi-party linear algebra over mixed-radix product bases.

Conventions used throughout the package:

* Parties are numbered 1..N.  The global basis index is mixed radix with
  party 1 as the most significant digit, so for an all-qubit layout the
  basis state with a single 1 at party k sits at index 2**(N-k).
* Pure states are dense amplitude vectors.  Density operators are sparse:
  they hold only their nonzero entries as coordinate (COO) arrays, the
  same list the wire format stores, so a partial transpose moves indices
  and never values, and a dense matrix is built only when asked for.
* A layout only bounds its index arithmetic: dim**2 < 2**63, so that the
  int64 keys ``row * dim + col`` cannot wrap (at most 31 qubits).  Code that
  allocates a dense array asks :attr:`PartyLayout.dense_dim` (or
  :func:`dense_size`) first, which refuses sizes above MAX_GLOBAL_DIM.
* A local filter's norm is checked once, when its :class:`FilterOperator` is
  built: a Gram-matrix row-sum bound certifies most filters, and only a
  filter that the bound does not certify takes an SVD.  A Schmidt
  decomposition is three plain arrays; its rank counts the coefficients
  above the constant SCHMIDT_CUTOFF.
* Arrays are treated as immutable after construction; every operation
  here is a pure function and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .family import _integers

MAX_GLOBAL_DIM = 4096  # largest side of any dense array: 256 MiB as a complex matrix

NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-12
SCHMIDT_CUTOFF = 1e-10
FILTER_KINDS = ("equalize", "biorthogonal", "project", "measure_pm")

_PHASE_TOL = 1e-12
_TIE_TOL = 1e-12
_FILTER_NORM = 1.0 + 1e-12
_SMALL_ENTRY = np.finfo(float).eps ** 2  # relative to max|A|; see hermitian_eigenvalues


def dense_size(size: int) -> int:
    """``size`` if a dense array of that side may be allocated; ValueError above MAX_GLOBAL_DIM."""
    if size > MAX_GLOBAL_DIM:
        raise ValueError(f"dense dimension {size} exceeds the cap {MAX_GLOBAL_DIM}")
    return size


def _check_hermitian(diff: np.ndarray, tol: float) -> None:
    """Raise ValueError where A - A^H, given as ``diff``, exceeds tol in modulus (or is NaN)."""
    dev = float(np.max(np.abs(diff), initial=0.0))
    if not dev <= tol:
        raise ValueError(f"matrix deviates from Hermiticity by {dev:.3e} (> {tol})")


@dataclass(frozen=True)
class PartyLayout:
    """Ordered local dimensions of the parties sharing a state.

    ``dim``, their product, is computed once here; layouts compare, hash and
    print by ``dims`` alone.
    """

    dims: tuple[int, ...]
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        dims = _integers(self.dims, "local dimensions")
        object.__setattr__(self, "dims", dims)
        if len(dims) < 1:
            raise ValueError("a layout needs at least one party")
        if any(d < 2 for d in dims):
            raise ValueError(f"every local dimension must be >= 2, got {dims}")
        object.__setattr__(self, "dim", math.prod(dims))
        if self.dim**2 >= 2**63:
            raise ValueError(f"global dimension {self.dim} too large for int64 entry keys")

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


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over the product basis of a layout."""

    layout: PartyLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        d = self.layout.dense_dim
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (d,):
            raise ValueError(f"amplitude vector must have length {d}, got {amps.shape}")
        norm = math.sqrt(np.vdot(amps, amps).real)  # not np.linalg.norm: it runs on every state built
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian operator over a layout, held as its nonzero entries.

    Entry e is ``vals[e]`` at (``rows[e]``, ``cols[e]``), kept canonical and
    read-only: unique (row, col) pairs sorted row-major, no zero values.
    Construction sorts and drops zeros; it raises ValueError on indices of
    no integer dtype (an empty list passes), indices out of range, duplicate
    pairs, non-finite values or non-Hermitian input.
    Physical states are trace 1 and PSD; partial-transpose outputs stay
    Hermitian and trace 1 but may fail positivity.
    """

    layout: PartyLayout
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self) -> None:
        d = self.layout.dim
        rows, cols = np.asarray(self.rows), np.asarray(self.cols)
        # the dtype decides, so integer arrays are not scanned; 0.7 and True are no indices
        if any(a.dtype.kind not in "iu" and a.size for a in (rows, cols)):
            raise ValueError(f"entry indices must be integers, got {rows.dtype} and {cols.dtype}")
        rows, cols = rows.astype(np.int64), cols.astype(np.int64)
        vals = np.array(self.vals, dtype=complex)
        if not (rows.ndim == 1 and rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols and vals must be 1-d with one element per entry")
        if rows.size and not (min(rows.min(), cols.min()) >= 0 and max(rows.max(), cols.max()) < d):
            raise ValueError(f"entry index out of range 0..{d - 1}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("operator entries must be finite")
        keys = rows * d + cols
        order = np.argsort(keys)
        if np.any(np.diff(keys[order]) == 0):
            raise ValueError("duplicate (row, col) entry")
        order = order[vals[order] != 0]
        rows, cols, vals, keys = rows[order], cols[order], vals[order], keys[order]
        # each entry against the conjugate of its mirror entry (0 if absent)
        mirror = cols * d + rows
        pos = np.minimum(np.searchsorted(keys, mirror), keys.size - 1)
        partner = np.where(keys[pos] == mirror, vals[pos], 0)
        _check_hermitian(vals - partner.conj(), HERMITIAN_TOL)
        for name, arr in (("rows", rows), ("cols", cols), ("vals", vals)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_dense(cls, layout: PartyLayout, matrix) -> "DensityOperator":
        """Operator from a dense d x d matrix, keeping its nonzero entries."""
        d = layout.dense_dim
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (d, d):
            raise ValueError(f"matrix must have shape {(d, d)}, got {m.shape}")
        rows, cols = np.nonzero(m)
        return cls(layout, rows, cols, m[rows, cols])

    @property
    def matrix(self) -> np.ndarray:
        """Dense d x d matrix, built afresh on every access."""
        d = self.layout.dense_dim
        m = np.zeros((d, d), dtype=complex)
        m[self.rows, self.cols] = self.vals
        return m

    @property
    def trace(self) -> float:
        return float(self.vals[self.rows == self.cols].real.sum())


def partial_transpose(rho: DensityOperator, parties) -> DensityOperator:
    """Transpose the matrix indices belonging to the given parties.

    Each entry swaps those parties' digits between its row and column index,
    O(nnz * |parties|), and values never change: the output keeps trace and
    Hermiticity (positivity is left unchecked), and applying the same
    transpose twice returns the input bit-exactly.
    """
    layout = rho.layout
    rows, cols = rho.rows, rho.cols
    for p in layout.check_subset(parties):
        stride, d = math.prod(layout.dims[p:]), layout.dims[p - 1]
        shift = ((cols // stride) % d - (rows // stride) % d) * stride
        rows, cols = rows + shift, cols - shift
    return DensityOperator(layout, rows, cols, rho.vals)


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate a vector so its first nonzero component is real positive."""
    idx = np.flatnonzero(np.abs(vec) > _PHASE_TOL)
    if idx.size == 0:
        return vec
    pivot = vec[idx[0]]
    return vec * (abs(pivot) / pivot)


def hermitian_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a dense Hermitian matrix, sorted ascending.

    A stack of matrices (shape (k, s, s)) gives one row per matrix.  Raises
    ValueError on input that is not Hermitian within 1e-10 (pass a
    :class:`DensityOperator` as its ``.matrix``).

    Entries below eps**2 * max|A| of their matrix are set to zero first:
    LAPACK's values-only solver returns wrong eigenvalues on some matrices
    that mix O(1) entries with ones near 1e-160 (off by 5e-3 at
    [[0, 3e-162, 0], [3e-162, 0, 0.45], [0, 0.45, 0]]).  By Weyl's inequality
    this moves each eigenvalue by at most size * eps**2 * max|A|, far inside
    the solver's own backward error; a matrix without such entries is
    passed on unchanged.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError("expected a square matrix or a stack of them")
    _check_hermitian(m - np.swapaxes(m, -1, -2).conj(), 1e-10)
    mod = np.abs(m)
    small = mod < _SMALL_ENTRY * np.max(mod, axis=(-2, -1), keepdims=True, initial=0.0)
    if np.any(small & (mod != 0)):
        m = np.where(small, 0, m)
    return np.linalg.eigvalsh(m)


def _axis_aligned_basis(cols: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of span(cols), greedily aligned to
    the computational axes (lowest axis index first)."""
    dl, g = cols.shape
    remaining = cols.copy()
    chosen: list[np.ndarray] = []
    for j in range(dl):
        if remaining.shape[1] == 0 or len(chosen) == g:
            break
        w = remaining @ np.conj(remaining[j, :])  # projection of axis j
        nw = np.linalg.norm(w)
        if nw <= 1e-9:
            continue
        w = w / nw
        chosen.append(w)
        remaining = remaining - np.outer(w, np.conj(w) @ remaining)
        q, r = np.linalg.qr(remaining)
        keep = np.abs(np.diag(r)) > 1e-9
        remaining = q[:, keep]
    if len(chosen) != g:
        return cols  # no axis structure to exploit; keep the solver's basis
    return np.column_stack(chosen)


def _party_matrix(t: np.ndarray, axis: int) -> np.ndarray:
    """Amplitude tensor ``t`` as a matrix: rows index its ``axis``, columns the
    other axes in order; equal to ``np.moveaxis(t, axis, 0).reshape(d, -1)``."""
    d = t.shape[axis]
    return t.reshape(math.prod(t.shape[:axis]), d, -1).transpose(1, 0, 2).reshape(d, -1)


def _matricize(psi: PureState, bipartition) -> np.ndarray:
    """Amplitudes of ``psi`` as a matrix: rows index the parties of
    ``bipartition`` (a nonempty proper subset, sorted), columns the rest."""
    layout = psi.layout
    left = layout.check_subset(bipartition, nonempty=True, proper=True)
    t = psi.amplitudes.reshape(layout.dims)
    if len(left) == 1:
        return _party_matrix(t, left[0] - 1)
    right = tuple(p for p in range(1, layout.num_parties + 1) if p not in left)
    dl = math.prod(layout.dims[p - 1] for p in left)
    return t.transpose([p - 1 for p in left + right]).reshape(dl, -1)


def schmidt(psi: PureState, bipartition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt decomposition ``(c, left, right)`` of ``psi`` across ``bipartition``.

    ``psi = sum_k c[k] left[:, k] (x) right[k]``, with the sorted parties of
    ``bipartition`` before the rest.  Coefficients are sorted descending and
    truncated at ``SCHMIDT_CUTOFF`` (a normalized state always keeps one).
    Only if kept coefficients tie within ``_TIE_TOL`` is the left basis of each
    tied run re-chosen to align with computational axes, so an aligned-axis
    basis state maps to itself.  Each left vector's first nonzero component is
    real positive; the right vectors carry the compensating phase.
    """
    m = _matricize(psi, bipartition)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    k = int(np.count_nonzero(s > SCHMIDT_CUTOFF))  # s is sorted descending
    s, u, vh = s[:k], u[:, :k], vh[:k]

    c = s.tolist()
    start = 0
    for j in range(1, k + 1):  # runs of coefficients tied within _TIE_TOL
        if j == k or c[j - 1] - c[j] > _TIE_TOL:
            if j - start > 1:
                u[:, start:j] = _axis_aligned_basis(u[:, start:j])
                vh[start:j] = (u[:, start:j].conj().T @ m) / s[start:j, None]
            start = j

    # a kept left column is a unit vector, so it has a component above
    # _PHASE_TOL; rotate each by its first one
    first = u[(np.abs(u) > _PHASE_TOL).argmax(axis=0), np.arange(k)]
    phase = first / np.hypot(first.real, first.imag)  # the bits of the scalar abs(first[j])
    u *= np.conj(phase)
    vh *= phase[:, None]
    return s, u, vh


@dataclass(frozen=True, eq=False)
class FilterOperator:
    """One local measurement element: a square matrix for ``party``, of
    largest singular value at most 1 (within 1e-12), checked here once.

    ``||M||_2**2`` is the largest eigenvalue of ``M M^H``, which is at most
    that matrix's largest absolute row sum; a bound within (1 + 1e-12)**2
    accepts the filter without an SVD.  Orthonormal rows scaled by at most 1
    (equalize, project, +/- measurement) pass on it.  Otherwise, NaN and inf
    entries included, the largest singular value decides.
    """

    party: int
    matrix: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in FILTER_KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}")
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise ValueError("filter matrix must be square and nonempty")
        with np.errstate(invalid="ignore", over="ignore"):  # NaN, inf: the SVD reports them
            bound = np.abs(m @ m.conj().T).sum(axis=1).max()
        if not bound <= _FILTER_NORM**2:
            smax = np.linalg.svd(m, compute_uv=False)[0]
            if not smax <= _FILTER_NORM:
                raise ValueError(f"filter has singular value {float(smax)} > 1; not a measurement filter")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _relabel(fop: FilterOperator, party: int) -> FilterOperator:
    """``fop`` as the filter of party ``party``, e.g. the input party that a
    sub-state's axis stands for; it shares the checked, read-only matrix and
    runs no second norm check (no SVD)."""
    if party == fop.party:
        return fop
    out = object.__new__(FilterOperator)
    out.__dict__.update(fop.__dict__, party=party)
    return out


def apply_local(psi: PureState, fop: FilterOperator) -> tuple[np.ndarray, float]:
    """Apply a local filter to its party, ``fop.party``.

    Returns the unnormalized output vector together with its squared norm,
    interpreted as the success probability of the filter outcome.  A weight
    of zero signals an annihilated branch and is returned, not raised.  The
    filter's norm was checked when it was built; only its dimension is
    checked against the party here.
    """
    layout = psi.layout
    d = layout.dim_of(fop.party)
    if fop.matrix.shape != (d, d):
        raise ValueError(f"operator must act on dimension {d}, got shape {fop.matrix.shape}")
    t = psi.amplitudes.reshape(layout.dims)
    out = np.dot(fop.matrix, _party_matrix(t, fop.party - 1))
    vec = out.reshape(d, math.prod(layout.dims[: fop.party - 1]), -1).transpose(1, 0, 2).reshape(-1)
    weight = float(np.vdot(vec, vec).real)
    return vec, weight
