import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ionqpt.process import (
    ProcessMatrix,
    apply_process,
    atomic_write_text,
    chi_from_json_dict,
    chi_to_choi,
    chi_to_json_dict,
    choi_to_chi,
    extract_error_process,
    identity_chi,
    load_chi,
    process_fidelity,
    save_chi,
    unitary_to_chi,
    validate_cptp,
)
from ionqpt.protocol import build_plan, predict_p2
from ionqpt.qmath import (
    HERMITICITY_TOL,
    PSD_EIGENVALUE_TOL,
    TRACE_TOL,
    ValidationError,
    matrix_exponential,
    two_qubit_pauli_basis,
)

_P = two_qubit_pauli_basis()
_XX = _P[5]
KET_SS = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)


def ms_unitary(theta=math.pi / 4):
    return matrix_exponential(_XX, theta)


def random_unitary(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def kraus_of_isometry(a):
    """The 4x4 blocks of the (4 rank)x4 isometry Q of a = QR: Kraus
    operators of a channel, since sum_k K_k^dag K_k = Q^dag Q = I."""
    return np.linalg.qr(a)[0].reshape(-1, 4, 4)


def kraus_to_chi(kraus, validate=True):
    c = np.einsum("kab,mba->km", kraus, _P) / 4.0  # K_k = sum_m c_km P_m
    return ProcessMatrix(np.einsum("km,kn->mn", c.conj(), c), validate)


def random_cptp_chi(seed, rank=4):
    """chi of a channel whose Kraus operators are the 4x4 blocks of a random
    (4 rank)x4 isometry."""
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((4 * rank, 4))
         + 1j * rng.standard_normal((4 * rank, 4)))
    return kraus_to_chi(kraus_of_isometry(a))


def random_density_matrix(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = a @ a.conj().T
    return rho / rho.trace()


def pauli_sum_apply(chi, rho):
    """Reference E(rho) = sum_mn chi[m,n] P_n rho P_m^dag."""
    return np.einsum("mn,nab,bc,mdc->ad", chi.chi, _P, rho, _P.conj())


def pauli_sum_tp_residual(chi):
    """Reference max |sum_mn chi[m,n] P_m^dag P_n - I|."""
    tp = np.einsum("mn,mba,nbc->ac", chi.chi, _P.conj(), _P)
    return float(np.max(np.abs(tp - np.eye(4))))


def test_identity_chi_structure():
    chi = identity_chi().chi
    assert chi[0, 0] == 1.0
    assert np.count_nonzero(chi) == 1


def test_ms_chi_four_elements():
    chi = unitary_to_chi(ms_unitary()).chi
    assert chi[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert chi[5, 5] == pytest.approx(0.5, abs=1e-12)
    assert chi[5, 0] == pytest.approx(0.5j, abs=1e-12)
    assert chi[0, 5] == pytest.approx(-0.5j, abs=1e-12)
    mask = np.ones((16, 16), dtype=bool)
    mask[[0, 0, 5, 5], [0, 5, 0, 5]] = False
    assert np.max(np.abs(chi[mask])) < 1e-12


def test_unitary_to_chi_trace_and_rank():
    chi = unitary_to_chi(random_unitary(3)).chi
    assert chi.trace().real == pytest.approx(1.0, abs=1e-12)
    eigs = np.linalg.eigvalsh(chi)
    assert eigs[-1] == pytest.approx(1.0, abs=1e-10)
    assert abs(eigs[-2]) < 1e-10


def test_process_matrix_validation():
    with pytest.raises(ValidationError):
        ProcessMatrix(np.eye(4, dtype=complex))  # wrong shape
    bad = np.zeros((16, 16), dtype=complex)
    bad[0, 0] = 1.0
    bad[0, 1] = 0.3  # not Hermitian
    with pytest.raises(ValidationError):
        ProcessMatrix(bad)
    ProcessMatrix(bad, validate=False)  # parse-only path accepts it


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
def test_process_matrix_rejects_non_finite_entries(value):
    chi = identity_chi().chi.copy()
    chi[3, 3] = value
    for validate in (True, False):
        with pytest.raises(ValidationError, match="non-finite"):
            ProcessMatrix(chi, validate=validate)


def test_apply_process_matches_conjugation():
    u = ms_unitary()
    chi = unitary_to_chi(u)
    rho = np.outer(KET_SS, KET_SS.conj())
    out = apply_process(chi, rho)
    np.testing.assert_allclose(out, u @ rho @ u.conj().T, atol=1e-12)
    assert out[0, 0].real == pytest.approx(0.5, abs=1e-12)
    assert out[3, 3].real == pytest.approx(0.5, abs=1e-12)


def test_apply_process_matches_pauli_sum():
    for seed in range(10):
        chi = random_cptp_chi(seed)
        rho = random_density_matrix(100 + seed)
        np.testing.assert_allclose(apply_process(chi, rho),
                                   pauli_sum_apply(chi, rho),
                                   rtol=0, atol=1e-12)


def test_apply_process_rejects_bad_density_matrix():
    chi = identity_chi()
    with pytest.raises(ValidationError):
        apply_process(chi, np.eye(4, dtype=complex))  # trace 4


def test_process_fidelity_and_rank1_requirement():
    chi = unitary_to_chi(ms_unitary())
    assert process_fidelity(chi, chi) == pytest.approx(1.0, abs=1e-12)
    mixed = ProcessMatrix(np.eye(16, dtype=complex) / 16.0)
    with pytest.raises(ValidationError):
        process_fidelity(chi, mixed)


def test_fidelity_of_over_rotation_is_cos_squared():
    theta = 1.04
    chi = unitary_to_chi(ms_unitary(theta))
    ideal = unitary_to_chi(ms_unitary())
    f = process_fidelity(chi, ideal)
    assert f == pytest.approx(math.cos(theta - math.pi / 4) ** 2, abs=1e-12)


def test_extract_error_process_identity_element_is_fidelity():
    u_ideal = ms_unitary()
    chi_meas = unitary_to_chi(ms_unitary(1.04))
    err = extract_error_process(chi_meas, u_ideal)
    f = process_fidelity(chi_meas, unitary_to_chi(u_ideal))
    assert err.chi[0, 0].real == pytest.approx(f, abs=1e-10)
    # perfect gate -> identity error process
    perfect = extract_error_process(unitary_to_chi(u_ideal), u_ideal)
    np.testing.assert_allclose(perfect.chi, identity_chi().chi, atol=1e-12)


def test_extract_error_process_matches_conjugation():
    # E_meas = U o E_tilde, so E_tilde(rho) = U^dag E_meas(rho) U.
    for u in (ms_unitary(), random_unitary(7)):
        for seed in range(10):
            chi = random_cptp_chi(seed, rank=1 + seed % 4)
            rho = random_density_matrix(100 + seed)
            np.testing.assert_allclose(
                apply_process(extract_error_process(chi, u), rho),
                u.conj().T @ apply_process(chi, rho) @ u, rtol=0, atol=1e-12)


def test_validate_cptp_diagnostics():
    diag = validate_cptp(unitary_to_chi(ms_unitary()))
    assert diag.is_physical()
    assert diag.tp_residual < 1e-10
    lossy = np.zeros((16, 16), dtype=complex)
    lossy[0, 0] = 0.5  # E(rho) = rho/2 loses half the trace
    diag = validate_cptp(ProcessMatrix(lossy, validate=False))
    assert not diag.is_physical()
    assert diag.tp_residual > 0.1
    for seed in range(10):
        chi = random_cptp_chi(seed)
        assert validate_cptp(chi).is_physical()
        assert validate_cptp(chi).tp_residual == pytest.approx(
            pauli_sum_tp_residual(chi), abs=1e-12)
        d = np.diag([1.0] + [1.3] * 15)
        not_tp = ProcessMatrix(d @ chi.chi @ d, validate=False)
        assert validate_cptp(not_tp).tp_residual == pytest.approx(
            pauli_sum_tp_residual(not_tp), abs=1e-12)


def test_process_matrix_rejects_unit_trace_map_that_is_not_tp():
    # K = 2|00><00|: Tr chi = Tr(K^dag K)/4 = 1, but K^dag K = 4|00><00|.
    kraus = np.zeros((1, 4, 4), dtype=complex)
    kraus[0, 0, 0] = 2.0
    chi = kraus_to_chi(kraus, validate=False)
    assert chi.chi.trace() == pytest.approx(1.0, abs=1e-12)
    assert validate_cptp(chi).tp_residual == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(ValidationError, match="trace preservation"):
        ProcessMatrix(chi.chi)


def test_not_cptp_message_names_every_failed_condition():
    chi = np.zeros((16, 16), dtype=complex)
    chi[0, 0], chi[5, 5], chi[0, 1] = 2.0, -0.5, 0.1
    with pytest.raises(ValidationError) as err:
        ProcessMatrix(chi)
    for name in ("Hermiticity", "PSD", "unit trace", "trace preservation"):
        assert name in str(err.value)


def test_chi_choi_round_trip_and_trace():
    chi = unitary_to_chi(ms_unitary())
    choi = chi_to_choi(chi.chi)
    assert choi.trace().real == pytest.approx(4.0, abs=1e-10)
    assert np.linalg.eigvalsh(choi)[0] > -1e-10
    np.testing.assert_allclose(choi_to_chi(choi), chi.chi, atol=1e-12)


# Property tests: derandomized, so every run draws the same examples, and
# bounded, so that they add well under a second to the suite.
_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)
_UNIT = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def complex_arrays(*shape):
    parts = arrays(float, shape, elements=_UNIT)
    return st.tuples(parts, parts).map(lambda p: p[0] + 1j * p[1])


@st.composite
def kraus_channels(draw):
    rank = draw(st.integers(1, 4))
    return kraus_of_isometry(draw(complex_arrays(4 * rank, 4)))


@_PROPERTY
@given(complex_arrays(16, 16))
def test_chi_choi_round_trip_on_any_matrix(m):
    np.testing.assert_allclose(choi_to_chi(chi_to_choi(m)), m,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(chi_to_choi(choi_to_chi(m)), m,
                               rtol=0, atol=1e-12)


@_PROPERTY
@given(kraus_channels())
def test_choi_of_a_kraus_channel_is_sum_of_vectorized_kraus(kraus):
    # J[(i, a), (j, b)] = sum_k K_k[a, i] conj(K_k[b, j])
    v = kraus.transpose(0, 2, 1).reshape(-1, 16)
    choi = v.T @ v.conj()
    chi = kraus_to_chi(kraus).chi
    np.testing.assert_allclose(chi_to_choi(chi), choi, rtol=0, atol=1e-12)
    np.testing.assert_allclose(choi_to_chi(choi), chi, rtol=0, atol=1e-12)


@_PROPERTY
@given(kraus_channels(), complex_arrays(4, 4), complex_arrays(4, 4))
def test_extract_error_process_undoes_the_ideal_gate(kraus, u_raw, a):
    # E_meas = U o E_tilde, so E_tilde(rho) = U^dag E_meas(rho) U.
    u = np.linalg.qr(u_raw)[0]
    rho = a @ a.conj().T
    assume(rho.trace().real > 1e-3)
    rho = rho / rho.trace()
    e_rho = sum(k @ rho @ k.conj().T for k in kraus)
    np.testing.assert_allclose(
        apply_process(extract_error_process(kraus_to_chi(kraus), u), rho),
        u.conj().T @ e_rho @ u, rtol=0, atol=1e-12)


def test_atomic_write_text_failure_names_target_and_leaves_no_temp(tmp_path):
    # Renaming the temp file over a directory fails after it was written.
    target = tmp_path / "out.json"
    target.mkdir()
    with pytest.raises(OSError) as info:
        atomic_write_text(str(target), "{}")
    assert info.value.filename == str(target)
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []


def test_json_roundtrip(tmp_path):
    chi = unitary_to_chi(ms_unitary())
    path = str(tmp_path / "chi.json")
    save_chi(path, chi)
    loaded = load_chi(path)
    np.testing.assert_allclose(loaded.chi, chi.chi, atol=1e-15)


def test_json_rejects_wrong_convention():
    doc = chi_to_json_dict(identity_chi())
    doc["convention"] = "other"
    with pytest.raises(ValidationError):
        chi_from_json_dict(doc)


def test_load_chi_parse_only_accepts_unphysical(tmp_path):
    bad = np.zeros((16, 16), dtype=complex)
    bad[0, 0] = 1.2  # trace != 1
    path = str(tmp_path / "bad.json")
    save_chi(path, bad)
    with pytest.raises(ValidationError):
        load_chi(path)
    loaded = load_chi(path, validate=False)
    assert loaded.chi[0, 0].real == pytest.approx(1.2)


def _perturbed(kraus, kind, scale):
    """chi of the channel ``kraus`` with one condition of the CPTP rule moved
    to ``scale`` times its tolerance; the other conditions hold to round-off
    or to second order in the perturbation."""
    if kind == "anti-Hermitian":
        chi = kraus_to_chi(kraus).chi.copy()
        chi[1, 2] += 0.5j * scale * HERMITICITY_TOL
        chi[2, 1] += 0.5j * scale * HERMITICITY_TOL
        return chi
    if kind == "trace offset":  # also moves Tr_out J by the same amount
        return (1.0 + scale * TRACE_TOL) * kraus_to_chi(kraus).chi
    if kind == "non-TP rescaling":  # K_k -> K_k S, S^2 = I + 2 t ZI + t^2
        t = 0.5 * scale * TRACE_TOL
        s = np.diag([1.0 + t, 1.0 + t, 1.0 - t, 1.0 - t])
        return kraus_to_chi(kraus @ s, validate=False).chi
    # Negative eigenvalue: remove weight t along a null vector v of chi,
    # whose Kraus operator K_v has K_v^dag K_v = G, and give the channel
    # input S = I + t G / 2 so that the trace and Tr_out J stay put.
    t = scale * PSD_EIGENVALUE_TOL
    v = np.linalg.eigh(kraus_to_chi(kraus).chi)[1][:, 0]
    k_v = np.einsum("n,nab->ab", v.conj(), _P)
    s = np.eye(4) + 0.5 * t * (k_v.conj().T @ k_v)
    return (kraus_to_chi(kraus @ s, validate=False).chi
            - t * np.outer(v, v.conj()))


_CONDITION = {"anti-Hermitian": "Hermiticity", "negative eigenvalue": "PSD",
              "trace offset": "unit trace",
              "non-TP rescaling": "trace preservation"}


@_PROPERTY
@given(kraus_channels(), st.sampled_from(sorted(_CONDITION)),
       st.one_of(st.floats(0.2, 0.8), st.floats(1.25, 5.0)))
def test_one_rule_decides_process_matrix_and_predict_p2(kraus, kind, scale):
    chi = _perturbed(kraus, kind, scale)
    diag = validate_cptp(ProcessMatrix(chi, validate=False))
    assert diag.is_physical() == (scale < 1.0), diag
    try:
        ProcessMatrix(chi)
    except ValidationError as exc:
        assert _CONDITION[kind] in str(exc)
        rejected = True
    else:
        rejected = False
    try:
        predict_p2(ProcessMatrix(chi, validate=False), build_plan())
    except ValidationError:
        p2_rejected = True
    else:
        p2_rejected = False
    assert rejected == p2_rejected == (not diag.is_physical())
