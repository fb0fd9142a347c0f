"""Constructors for the state family under study and test fixtures.

The family mixes an N-qubit GHZ projector with the 2N rank-1 projectors
onto the single-flip basis states (one party flipped against the rest) and
their bit complements, uniformly weighted.
"""

from __future__ import annotations

import math

import numpy as np

from .family import RhoFamilySpec, _integers
from .tensor import DensityOperator, PartyLayout, PureState


def ghz(n: int, alpha: float) -> PureState:
    """GHZ state (|0...0> + e^{i alpha} |1...1>)/sqrt(2) on n qubits."""
    if n < 2:
        raise ValueError("GHZ state needs at least two parties")
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    layout = PartyLayout.qubits(n)
    amps = np.zeros(layout.dense_dim, dtype=complex)
    amps[[0, -1]] = [1.0 / math.sqrt(2.0), np.exp(1j * alpha) / math.sqrt(2.0)]
    return PureState(layout, amps)


def rho_family(spec: RhoFamilySpec) -> DensityOperator:
    """Density operator of the GHZ-plus-flip-projector family.

    Built entrywise: the GHZ projector's four corners plus weight 1/2 on
    each of the 2N flip-projector diagonal entries (summed where they
    coincide, at N = 2), all scaled by 1/(N+1).  Only the two off-diagonal
    GHZ corners depend on the phase.
    """
    n = spec.n
    layout = PartyLayout.qubits(n)
    last = layout.dim - 1
    phase = np.exp(1j * spec.alpha)
    corners = np.array([0.5, 0.5 * np.conj(phase), 0.5 * phase, 0.5], dtype=complex)
    flips = 1 << np.arange(n)
    diag, count = np.unique(np.concatenate([flips, last - flips]), return_counts=True)
    vals = np.concatenate([corners, 0.5 * count])
    vals *= 1.0 / (n + 1)
    rows = np.concatenate([[0, 0, last, last], diag])
    cols = np.concatenate([[0, last, 0, last], diag])
    return DensityOperator(layout, rows, cols, vals)


def random_pure(layout: PartyLayout, seed: int) -> PureState:
    """Haar-like random pure state, fully determined by the non-negative
    integer seed (1.7 is rejected, not cut to 1).

    Amplitudes are drawn i.i.d. from the rotation-invariant complex normal
    distribution and normalized.
    """
    d = layout.dense_dim
    (seed,) = _integers((seed,), "seed")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    amps /= np.linalg.norm(amps)
    return PureState(layout, amps)
