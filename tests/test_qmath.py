import numpy as np
import pytest

from ionqpt.qmath import (
    HERMITICITY_TOL,
    PSD_EIGENVALUE_TOL,
    TRACE_TOL,
    UNITARITY_TOL,
    ValidationError,
    hermiticity_deviation,
    matrix_exponential,
    pauli_labels_2q,
    require_hermitian,
    require_unitary,
    two_qubit_pauli_basis,
    unitarity_deviation,
)


def test_pauli_labels_order():
    labels = pauli_labels_2q()
    assert len(labels) == 16
    assert labels[0] == "II"
    assert labels[5] == "XX"
    assert labels[3] == "IZ"
    assert labels[12] == "ZI"
    assert labels[15] == "ZZ"


def test_pauli_basis_structure():
    basis = two_qubit_pauli_basis()
    assert basis.shape == (16, 4, 4)
    for k in range(16):
        # involutory and Hermitian
        np.testing.assert_allclose(basis[k] @ basis[k], np.eye(4), atol=1e-14)
        assert hermiticity_deviation(basis[k]) < 1e-14
    # orthogonality Tr(P_j^dag P_k) = 4 delta_jk
    gram = np.einsum("jab,kba->jk", basis.conj().transpose(0, 2, 1), basis)
    np.testing.assert_allclose(gram, 4.0 * np.eye(16), atol=1e-13)


def test_pauli_basis_read_only():
    basis = two_qubit_pauli_basis()
    with pytest.raises(ValueError):
        basis[0, 0, 0] = 5.0


def test_hermiticity_checks():
    require_hermitian(np.eye(4, dtype=complex))
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-3
    assert hermiticity_deviation(m) == pytest.approx(1e-3)
    with pytest.raises(ValidationError):
        require_hermitian(m)


def test_unitarity_checks():
    require_unitary(np.eye(4, dtype=complex))
    assert unitarity_deviation(np.eye(3)) == 0.0
    with pytest.raises(ValidationError):
        require_unitary(2.0 * np.eye(4))


def test_matrix_exponential_against_scipy():
    import scipy.linalg

    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    g = 0.5 * (a + a.conj().T)
    u = matrix_exponential(g, 0.7)
    np.testing.assert_allclose(u, scipy.linalg.expm(-0.7j * g), atol=1e-12)
    assert unitarity_deviation(u) < 1e-13


def test_matrix_exponential_rejects_non_hermitian():
    g = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValidationError):
        matrix_exponential(g, 1.0)


def test_default_tolerances():
    assert HERMITICITY_TOL == UNITARITY_TOL == 1e-10
    assert TRACE_TOL == PSD_EIGENVALUE_TOL == 1e-8
