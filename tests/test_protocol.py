import math

import numpy as np
import pytest

from ionqpt.process import ProcessMatrix, unitary_to_chi
from ionqpt.protocol import (
    SEQUENCES,
    RotationSetting,
    TimingModel,
    build_plan,
    design_factors,
    design_rank,
    forward_p2,
    invert_p2,
    meas_operator,
    predict_p2,
    prep_state,
    rotation_unitary,
    setting_unitary,
)
from ionqpt.qmath import ValidationError, matrix_exponential, two_qubit_pauli_basis

_P = two_qubit_pauli_basis()
KET_SS = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)


def test_rotation_unitary_basics():
    np.testing.assert_allclose(rotation_unitary(0.0, 0.0), np.eye(2), atol=1e-15)
    x_pi = rotation_unitary(math.pi, 0.0)
    np.testing.assert_allclose(x_pi, [[0, -1j], [-1j, 0]], atol=1e-15)
    y_half = rotation_unitary(math.pi / 2, math.pi / 2)
    s = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(y_half, [[s, -s], [s, s]], atol=1e-15)


def test_rotation_settings():
    assert [s.code for s in RotationSetting] == ["I", "Xpi", "Xhalf", "Yhalf"]


def test_build_plan_structure():
    plan = build_plan()
    assert plan.n_sequences == len(SEQUENCES) == len(set(SEQUENCES)) == 256
    # prep outer, meas inner, lexicographic
    prep, meas = SEQUENCES[17]  # 17 = 16*1 + 1: prep (I, Xpi), meas (I, Xpi)
    assert prep == (RotationSetting.ID, RotationSetting.XPI)
    assert meas == (RotationSetting.ID, RotationSetting.XPI)
    settings = list(RotationSetting)
    for k, ((p1, p2), (m1, m2)) in enumerate(SEQUENCES):
        assert k == 16 * (4 * settings.index(p1) + settings.index(p2)) \
            + 4 * settings.index(m1) + settings.index(m2)
    times = [plan.start_time_s(k) for k in range(256)]
    assert all(b > a for a, b in zip(times, times[1:]))
    assert times[3] == 3 * 500 * plan.timing.shot_period_s


def test_build_plan_validation():
    with pytest.raises(ValidationError):
        build_plan(shots=0)


def test_timing_model_durations():
    t = TimingModel(process_duration_us=120.0)
    assert t.in_sequence_us == 220.0
    assert t.shot_period_s == pytest.approx(10e-3 + 220e-6)


@pytest.mark.parametrize("field", ["composite_block_us", "pulse_pi_us",
                                   "process_duration_us", "shot_overhead_ms"])
def test_timing_model_rejects_negative_durations(field):
    with pytest.raises(ValidationError, match=field):
        TimingModel(**{field: -25.0})


def test_timing_model_pulses_fit_in_their_block():
    # The two pulses of a pi rotation last one pi time in all.
    assert TimingModel(pulse_pi_us=25.0).pulse_pi_us == 25.0
    with pytest.raises(ValidationError, match="pulse_pi_us"):
        TimingModel(pulse_pi_us=80.0)
    with pytest.raises(ValidationError, match="pulse_pi_us"):
        TimingModel(composite_block_us=0.0)


def test_prep_state_and_meas_operator():
    rho = prep_state((RotationSetting.ID, RotationSetting.ID))
    np.testing.assert_allclose(rho, np.outer(KET_SS, KET_SS), atol=1e-15)
    for pair in [(RotationSetting.XHALF, RotationSetting.YHALF),
                 (RotationSetting.XPI, RotationSetting.ID)]:
        rho = prep_state(pair)
        assert rho.trace().real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho)[-1] == pytest.approx(1.0, abs=1e-12)
        m = meas_operator(pair)
        # POVM element: rank-1 projector
        np.testing.assert_allclose(m @ m, m, atol=1e-12)


def test_predict_p2_identity_corners():
    plan = build_plan()
    chi = unitary_to_chi(np.eye(4, dtype=complex))
    p = predict_p2(chi, plan)
    assert p.shape == (256,)
    assert p[0] == pytest.approx(1.0, abs=1e-12)        # prep I,I meas I,I
    assert p[16 * 5] == pytest.approx(0.0, abs=1e-12)   # prep Xpi,Xpi meas I,I
    assert p[16 * 5 + 5] == pytest.approx(1.0, abs=1e-12)  # matched Xpi,Xpi


def test_predict_p2_matches_unitary_oracle():
    plan = build_plan()
    u = matrix_exponential(_P[5], math.pi / 4)
    p = predict_p2(unitary_to_chi(u), plan)
    for k in (0, 5, 37, 100, 255):
        prep, meas = SEQUENCES[k]
        psi = u @ setting_unitary(prep) @ KET_SS
        phi = setting_unitary(meas).conj().T @ KET_SS
        assert p[k] == pytest.approx(abs(np.vdot(phi, psi)) ** 2, abs=1e-12)


def test_predict_p2_rejects_noncptp():
    plan = build_plan()
    bad = np.zeros((16, 16), dtype=complex)
    bad[0, 0] = 2.0
    bad[5, 5] = -1.0
    with pytest.raises(ValidationError):
        predict_p2(ProcessMatrix(bad, validate=False), plan)


def test_predict_p2_rejects_non_hermitian():
    # An anti-Hermitian part of chi has no real probabilities to show up in.
    chi = np.zeros((16, 16), dtype=complex)
    chi[0, 0] = 1.0
    chi[0, 5] = 0.1
    with pytest.raises(ValidationError, match="Hermiticity"):
        predict_p2(ProcessMatrix(chi, validate=False), build_plan())


def test_hermitian_dof_basis_is_complete():
    # The 256 real coordinates of a Hermitian Choi matrix are exactly what
    # the forward map sees: each Hermitian J comes back through the forward
    # map and the inversion, and an anti-Hermitian part gives no real signal
    # at all.
    rng = np.random.default_rng(3)
    g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    herm = g + g.conj().T
    anti = g - g.conj().T
    np.testing.assert_allclose(invert_p2(forward_p2(herm)), herm,
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(forward_p2(anti), 0.0, rtol=0, atol=1e-10)


def test_design_matrix_and_rank():
    plan = build_plan()
    for factor in design_factors():
        assert factor.shape == (16, 16)
        assert factor.dtype == complex
        assert not factor.flags.writeable
    assert design_rank(plan) == 256


def test_plan_rejects_nonpositive_shot_period():
    # A shot period of at most 0 s would start sequences out of order.
    with pytest.raises(ValidationError, match="shot_overhead_ms"):
        build_plan(timing=TimingModel(shot_overhead_ms=-1.0))
    with pytest.raises(ValidationError, match="shot period"):
        build_plan(timing=TimingModel(composite_block_us=0.0, pulse_pi_us=0.0,
                                      shot_overhead_ms=0.0))
