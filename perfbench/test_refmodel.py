"""Textbook checks of the benchmark's reference model.

Run with ``python3 -m pytest perfbench``.
"""
import math

import numpy as np
import pytest

import refmodel as ref


def test_pauli_basis_is_orthogonal_and_ordered():
    gram = np.einsum("iab,jab->ij", ref.PAULI.conj(), ref.PAULI)
    assert np.allclose(gram, 4 * np.eye(16))
    assert np.allclose(ref.PAULI[5], np.kron(ref._X, ref._X))
    assert ref.LABELS_2Q[5] == "XX"


def test_rotation_matches_exponential():
    theta, phi = 0.7, 1.3
    gen = math.cos(phi) * ref._X + math.sin(phi) * ref._Y
    w, v = np.linalg.eigh(gen)
    expected = (v * np.exp(-0.5j * theta * w)) @ v.conj().T
    assert np.allclose(ref.rotation(theta, phi), expected)


def test_ideal_ms_chi_has_the_four_textbook_elements():
    chi = ref.unitary_chi(ref.ms_unitary())
    expected = np.zeros((16, 16), dtype=complex)
    expected[0, 0] = expected[5, 5] = 0.5
    expected[5, 0] = 0.5j
    expected[0, 5] = -0.5j
    assert np.max(np.abs(chi - expected)) <= 1e-12


def test_ideal_ms_gives_bell_fidelity_one():
    assert ref.bell_fidelity(ref.unitary_chi(ref.ms_unitary())) \
        == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta", [0.5, math.pi / 4, 1.04, 1.3])
def test_over_rotated_gate_bell_fidelity(theta):
    chi = ref.unitary_chi(ref.ms_unitary(theta))
    assert ref.bell_fidelity(chi) == pytest.approx(
        0.5 * (1 + math.sin(2 * theta)), abs=1e-12)


def test_p2_of_identity_channel():
    p = ref.p2_of_chi(ref.identity_chi())
    # Prep and meas both (I, I): |SS> is measured bright with certainty.
    assert p[0] == pytest.approx(1.0)
    # Prep (X pi, I) flips ion 1 to D; meas (I, I) then never sees both bright.
    assert p[16 * 4] == pytest.approx(0.0, abs=1e-15)
    # Prep (X pi/2, I) leaves ion 1 in an equal superposition.
    assert p[16 * 8] == pytest.approx(0.5)
    assert p.min() >= -1e-15 and p.max() <= 1 + 1e-15


def test_prep_states_are_normalized_products():
    states = ref.prep_states()
    assert np.allclose(np.linalg.norm(states, axis=1), 1.0)
    assert np.allclose(states[0], ref.KET_SS)


def test_cptp_test_accepts_unitaries_and_rejects_non_tp_maps():
    assert ref.is_cptp(ref.unitary_chi(ref.ms_unitary(1.04)))
    assert ref.is_cptp(ref.identity_chi())
    assert not ref.is_cptp(0.9 * ref.identity_chi())
    not_cp = ref.identity_chi()
    not_cp[1, 1] = -0.1
    not_cp[0, 0] = 1.1
    assert not ref.is_cptp(not_cp)
