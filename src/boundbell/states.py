"""Constructors for the state family under study and test fixtures.

The family mixes an N-qubit GHZ projector with the 2N rank-1 projectors
onto the single-flip basis states (one party flipped against the rest) and
their bit complements, uniformly weighted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import DensityOperator, PartyLayout, PureState, _integers


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


def ghz(n: int, alpha: float) -> PureState:
    """GHZ state (|0...0> + e^{i alpha} |1...1>)/sqrt(2) on n qubits."""
    if n < 2:
        raise ValueError("GHZ state needs at least two parties")
    layout = PartyLayout.qubits(n)
    amps = np.zeros(layout.dense_dim, dtype=complex)
    amps[0] = 1.0 / math.sqrt(2.0)
    amps[-1] = np.exp(1j * alpha) / math.sqrt(2.0)
    return PureState(layout, amps)


def flip_index(n: int, k: int) -> int:
    """Basis index of |0..1..0> with the 1 at party k (party 1 most significant)."""
    if not 1 <= k <= n:
        raise ValueError(f"party index {k} out of range 1..{n}")
    return 1 << (n - k)


def _ghz_corners(n: int, alpha: float):
    """(layout, rows, cols, vals) of the GHZ projector's four corner entries."""
    if n < 2:
        raise ValueError("GHZ projector needs at least two parties")
    layout = PartyLayout.qubits(n)
    last = layout.dim - 1
    phase = np.exp(1j * float(alpha))
    corners = np.array([0.5, 0.5 * np.conj(phase), 0.5 * phase, 0.5], dtype=complex)
    return layout, [0, 0, last, last], [0, last, 0, last], corners


def ghz_projector(n: int, alpha: float) -> DensityOperator:
    """Rank-1 projector onto the GHZ state, written entrywise.

    The two diagonal corners are exact 1/2 (independent of the phase), so
    only the off-diagonal corners vary with alpha.
    """
    return DensityOperator(*_ghz_corners(n, alpha))


def flip_projectors(n: int, k: int) -> tuple[DensityOperator, DensityOperator]:
    """Rank-1 projectors onto the single-flip state at party k and its complement."""
    if n < 2:
        raise ValueError("need at least two parties")
    idx = flip_index(n, k)
    layout = PartyLayout.qubits(n)
    p, pbar = (DensityOperator(layout, [i], [i], [1.0]) for i in (idx, layout.dim - 1 - idx))
    return p, pbar


def rho_family(spec: RhoFamilySpec) -> DensityOperator:
    """Density operator of the GHZ-plus-flip-projector family.

    Built entrywise: the GHZ projector's four corners plus weight 1/2 on
    each of the 2N flip-projector diagonal entries (summed where they
    coincide, at N = 2), all scaled by 1/(N+1).  Only the two off-diagonal
    GHZ corners depend on the phase.
    """
    n = spec.n
    layout, rows, cols, corners = _ghz_corners(n, spec.alpha)
    flips = 1 << np.arange(n)
    diag, count = np.unique(np.concatenate([flips, layout.dim - 1 - flips]), return_counts=True)
    vals = np.concatenate([corners, 0.5 * count])
    vals *= 1.0 / (n + 1)
    return DensityOperator(layout, np.concatenate([rows, diag]), np.concatenate([cols, diag]), vals)


def random_pure(layout: PartyLayout, seed: int) -> PureState:
    """Haar-like random pure state, fully determined by the seed.

    Amplitudes are drawn i.i.d. from the rotation-invariant complex normal
    distribution and normalized.
    """
    d = layout.dense_dim
    rng = np.random.default_rng(int(seed))
    amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    amps /= np.linalg.norm(amps)
    return PureState(layout, amps)
