"""Symmetrical components in a nutshell.

Decomposes a few phase-voltage triples into zero/positive/negative
sequences, reconstructs them, and shows how the unbalance factor reacts
to a single-phase disturbance.
"""

import numpy as np

from pvcosim import SequenceSet, phase_to_sequence, sequence_to_phase, unbalance_factor


def polar(mag, deg):
    return mag * np.exp(1j * np.radians(deg))


def show(label, va, vb, vc):
    s = phase_to_sequence(va, vb, vc)
    print(f"{label}")
    print(f"  phases   : |a|={abs(va):.4f}  |b|={abs(vb):.4f}  |c|={abs(vc):.4f}")
    print(
        f"  sequences: |V0|={abs(s.zero):.5f}  |V1|={abs(s.positive):.5f}  "
        f"|V2|={abs(s.negative):.5f}"
    )
    try:
        print(f"  unbalance: {unbalance_factor([va, vb, vc]):.3f} %")
    except ValueError:
        print("  unbalance: undefined (no positive sequence)")
    back = sequence_to_phase(s)
    err = max(abs(x - y) for x, y in zip(back, (va, vb, vc)))
    print(f"  roundtrip error: {err:.2e}\n")


print("=== perfectly balanced set ===")
show("1.0 pu balanced", polar(1, 0), polar(1, -120), polar(1, 120))

print("=== 3% sag on phase b ===")
show("sagged phase", polar(1, 0), polar(0.97, -120), polar(1, 120))

print("=== pure zero-sequence (all phases identical) ===")
show("in-phase set", polar(1, 0), polar(1, 0), polar(1, 0))

print("=== reconstruction from prescribed sequences ===")
s = SequenceSet(zero=0.0, positive=1.05, negative=0.002)
va, vb, vc = sequence_to_phase(s)
print(f"V1=1.05, V2=0.002 -> phase magnitudes "
      f"{abs(va):.5f}, {abs(vb):.5f}, {abs(vc):.5f}")
print(f"magnitude spread: {max(abs(va), abs(vb), abs(vc)) - min(abs(va), abs(vb), abs(vc)):.5f} "
      f"(at most 2*|V2| = {2 * 0.002})")
