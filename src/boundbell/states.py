"""Constructors for the state family under study and test fixtures.

The family mixes an N-qubit GHZ projector with the 2N rank-1 projectors
onto the single-flip basis states (one party flipped against the rest) and
their bit complements, uniformly weighted.  Its entries and the GHZ
amplitudes come from :mod:`boundbell.family`'s closed forms, the same
numbers that ``state --n`` writes; this module only puts them in arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .family import RhoFamilySpec, _integers, ghz_amplitudes, operator_obj
from .tensor import DensityOperator, PartyLayout, PureState


def ghz(n: int, alpha: float) -> PureState:
    """GHZ state (|0...0> + e^{i alpha} |1...1>)/sqrt(2) on n qubits."""
    if n < 2:
        raise ValueError("GHZ state needs at least two parties")
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    layout = PartyLayout.qubits(n)
    amps = np.zeros(layout.dense_dim, dtype=complex)
    amps[[0, -1]] = ghz_amplitudes(alpha)
    return PureState(layout, amps)


def rho_family(spec: RhoFamilySpec) -> DensityOperator:
    """Density operator of the GHZ-plus-flip-projector family: the 2N+4
    entries (2N+2 at N = 2) of the member's operator file,
    :func:`family.operator_obj`, bit for bit."""
    rows, cols, re, im = zip(*operator_obj(spec)["entries"])
    vals = np.column_stack([re, im]).view(complex).ravel()
    return DensityOperator(PartyLayout.qubits(spec.n), rows, cols, vals)


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
