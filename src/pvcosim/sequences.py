"""Fortescue transforms, per-unit phase helpers and the voltage unbalance factor.

Conventions used throughout the package:

* the rotation operator is ``a = exp(2j*pi/3)``,
* the 1/3 factor sits on the analysis (phase -> sequence) direction,
* phase order is (a, b, c), sequence order is (zero, positive, negative),
* a balanced positive-sequence set is ``(1, 1*a^2, 1*a)``, i.e. phase b
  lags phase a by 120 degrees.

Per-unit bookkeeping: voltages are per-unit of the local line-to-neutral
base; per-phase complex powers are per-unit of the full three-phase MVA
base (so the three phase powers of a balanced 1.0 pu load sum to 1.0).
With phase currents per-unit of ``S_base / (3 * V_base_ln)`` the two are
linked by ``s_phase = v * conj(i) / 3``, and total three-phase power
equals ``V0*conj(I0) + V1*conj(I1) + V2*conj(I2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALPHA = np.exp(2j * np.pi / 3)

# Synthesis matrix: phases = A_SYN @ (zero, positive, negative).
A_SYN = np.array(
    [
        [1.0, 1.0, 1.0],
        [1.0, ALPHA**2, ALPHA],
        [1.0, ALPHA, ALPHA**2],
    ],
    dtype=complex,
)

# Analysis matrix: sequences = A_ANA @ (va, vb, vc), carries the 1/3.
A_ANA = np.array(
    [
        [1.0, 1.0, 1.0],
        [1.0, ALPHA, ALPHA**2],
        [1.0, ALPHA**2, ALPHA],
    ],
    dtype=complex,
) / 3.0


@dataclass(frozen=True)
class SequenceSet:
    """Zero/positive/negative sequence phasor triple (complex, per-unit)."""

    zero: complex
    positive: complex
    negative: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.zero, self.positive, self.negative], dtype=complex)


def phase_to_sequence(va: complex, vb: complex, vc: complex) -> SequenceSet:
    """Transform a phase triple into its symmetrical components."""
    s = A_ANA @ np.array([va, vb, vc], dtype=complex)
    return SequenceSet(zero=s[0], positive=s[1], negative=s[2])


def sequence_to_phase(s: SequenceSet) -> tuple[complex, complex, complex]:
    """Reconstruct the phase triple from symmetrical components."""
    p = A_SYN @ s.as_array()
    return (p[0], p[1], p[2])


def phases_from_sequences(v0: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Vectorised synthesis: stacks of sequence values -> (..., 3) phases."""
    seq = np.stack([np.asarray(v0), np.asarray(v1), np.asarray(v2)], axis=-1)
    return seq @ A_SYN.T


def sequences_from_phases(vabc: np.ndarray) -> np.ndarray:
    """Vectorised analysis: (..., 3) phase values -> (..., 3) sequences."""
    return np.asarray(vabc) @ A_ANA.T


def phase_currents(s_phase: np.ndarray, v_phase: np.ndarray) -> np.ndarray:
    """Per-phase load currents drawn by constant-power loads.

    ``s_phase`` is per-unit of the three-phase base per phase, ``v_phase``
    per-unit of the line-to-neutral base; zero-voltage phases raise.
    """
    s = np.asarray(s_phase, dtype=complex)
    v = np.asarray(v_phase, dtype=complex)
    nz = np.abs(v) > 0
    if nz.all():  # the common case: the division below, on every element
        return np.conj(3.0 * s / v)
    if np.any((np.abs(v) == 0) & (np.abs(s) > 0)):
        raise ZeroDivisionError("cannot form load current at zero phase voltage")
    out = np.zeros(np.broadcast(s, v).shape, dtype=complex)
    out[nz] = np.conj(3.0 * s[nz] / v[nz])
    return out


def unbalance_factor(v_phase) -> float:
    """Voltage unbalance factor ``100 |V2| / |V1|`` in percent of one phase
    triple; ``ValueError`` unless it is three nonzero phasors with a V1."""
    v = np.asarray(v_phase, dtype=complex)
    if v.shape != (3,) or np.any(v == 0):
        raise ValueError("three nonzero phase voltages required")
    _, v1, v2 = A_ANA @ v
    # Scalar abs: numpy's array abs rounds some complex magnitudes differently.
    if abs(v1) < 1e-12 * max(abs(x) for x in v):
        raise ValueError("positive-sequence voltage is zero")
    return 100.0 * abs(v2) / abs(v1)
