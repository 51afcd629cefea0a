import numpy as np
import pytest
from hypothesis import given, strategies as st

from pvcosim.sequences import (
    A_ANA,
    A_SYN,
    SequenceSet,
    phase_currents,
    phase_to_sequence,
    phases_from_sequences,
    sequence_to_phase,
    sequences_from_phases,
    unbalance_factor,
)

A120 = np.exp(-2j * np.pi / 3)  # 1 at -120 degrees


def polar(mag, deg):
    return mag * np.exp(1j * np.radians(deg))


def test_matrices_are_inverses():
    assert np.allclose(A_ANA @ A_SYN, np.eye(3), atol=1e-15)


def test_balanced_positive_set_maps_to_pure_positive():
    s = phase_to_sequence(polar(1, 0), polar(1, -120), polar(1, 120))
    assert abs(s.zero) < 1e-15
    assert abs(s.positive - 1.0) < 1e-15
    assert abs(s.negative) < 1e-15


def test_identical_phasors_map_to_pure_zero():
    s = phase_to_sequence(1 + 0j, 1 + 0j, 1 + 0j)
    assert abs(s.zero - 1.0) < 1e-15
    assert abs(s.positive) < 1e-15
    assert abs(s.negative) < 1e-15


def test_pure_positive_reconstructs_balanced_set():
    va, vb, vc = sequence_to_phase(SequenceSet(0, 1, 0))
    assert abs(va - polar(1, 0)) < 1e-15
    assert abs(vb - polar(1, -120)) < 1e-15
    assert abs(vc - polar(1, 120)) < 1e-15


def test_pure_zero_reconstructs_identical_phasors():
    va, vb, vc = sequence_to_phase(SequenceSet(1, 0, 0))
    assert va == vb == vc == pytest.approx(1 + 0j)


complex_st = st.builds(
    complex,
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
)


@given(complex_st, complex_st, complex_st)
def test_roundtrip_identity(va, vb, vc):
    s = phase_to_sequence(va, vb, vc)
    ra, rb, rc = sequence_to_phase(s)
    assert abs(ra - va) < 1e-12
    assert abs(rb - vb) < 1e-12
    assert abs(rc - vc) < 1e-12


@given(complex_st, complex_st, complex_st)
def test_reverse_roundtrip_identity(z, p, n):
    s = SequenceSet(z, p, n)
    back = phase_to_sequence(*sequence_to_phase(s))
    assert abs(back.zero - z) < 1e-12
    assert abs(back.positive - p) < 1e-12
    assert abs(back.negative - n) < 1e-12


def test_vectorised_transforms_match_scalar():
    rng = np.random.default_rng(7)
    vabc = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    seq = sequences_from_phases(vabc)
    for k in range(5):
        s = phase_to_sequence(*vabc[k])
        assert np.allclose(seq[k], [s.zero, s.positive, s.negative], atol=1e-14)
    assert np.allclose(phases_from_sequences(seq[:, 0], seq[:, 1], seq[:, 2]), vabc, atol=1e-12)


def test_phase_currents_and_power_are_consistent():
    rng = np.random.default_rng(3)
    s = rng.normal(size=3) * 0.2 + 1j * rng.normal(size=3) * 0.05
    v = np.array([polar(1.01, 1), polar(0.99, -119), polar(1.0, 121)])
    i = phase_currents(s, v)
    assert np.allclose(v * np.conj(i) / 3.0, s, atol=1e-15)


def test_phase_currents_balanced_unit_load():
    v = np.array([polar(1, 0), polar(1, -120), polar(1, 120)])
    s = np.full(3, 1 / 3 + 0j)  # one pu three-phase total
    i = phase_currents(s, v)
    assert np.allclose(np.abs(i), 1.0, atol=1e-15)


def test_phase_currents_direct_division_has_the_masked_bits():
    # With no zero voltage the whole array is divided at once; the bits are
    # those of the masked form the zero-voltage case uses.
    rng = np.random.default_rng(11)
    s = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    s[2, 1] = 0
    v = rng.uniform(0.8, 1.2, (6, 3)) * np.exp(1j * rng.uniform(-3, 3, (6, 3)))
    out = np.zeros(v.shape, dtype=complex)
    nz = np.abs(v) > 0
    out[nz] = np.conj(3.0 * s[nz] / v[nz])
    assert phase_currents(s, v).tobytes() == out.tobytes()


def test_phase_currents_unloaded_zero_voltage_draws_nothing():
    i = phase_currents(np.array([0, 0.1 + 0j, 0.2j]), np.array([0j, 1, 1j]))
    assert i[0] == 0 and np.isfinite(i).all()


def test_phase_current_zero_voltage_raises():
    with pytest.raises(ZeroDivisionError):
        phase_currents(np.array([0.1 + 0j, 0, 0]), np.array([0j, 1, 1]))


def test_unbalance_percent_balanced_is_zero():
    v = np.array([polar(1, 0), polar(1, -120), polar(1, 120)])
    assert unbalance_factor(v) == pytest.approx(0.0, abs=1e-12)


def test_unbalance_percent_hand_value():
    # 2% magnitude bump on phase c, worked through the transform by hand.
    v = np.array([polar(1, 0), polar(1, -120), polar(1.02, 120)])
    assert unbalance_factor(v) == pytest.approx(0.6622516556291308, abs=1e-12)


@pytest.mark.parametrize(
    "v, message",
    [
        ([1 + 0j, 1 + 0j, 1 + 0j], "positive-sequence voltage is zero"),
        ([1.0, 0.0, 1.0], "three nonzero phase voltages required"),
        ([1.0, 1.0], "three nonzero phase voltages required"),
    ],
    ids=["all_equal", "zero_phase", "two_elements"],
)
def test_unbalance_factor(v, message):
    with pytest.raises(ValueError, match=message):
        unbalance_factor(np.array(v))
