"""Complex linear-algebra primitives and the two-qubit Pauli-product basis.

All matrices are plain complex numpy arrays. Dimensions used elsewhere in the
package are 2 (one qubit), 4 (two qubits), 16 (process matrices / Choi
matrices) and 256 (the sequences of the tomography plan).
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "ValidationError",
    "HERMITICITY_TOL",
    "UNITARITY_TOL",
    "TRACE_TOL",
    "PSD_EIGENVALUE_TOL",
    "PAULI_LABELS_1Q",
    "pauli_labels_2q",
    "two_qubit_pauli_basis",
    "hermiticity_deviation",
    "require_hermitian",
    "unitarity_deviation",
    "require_unitary",
    "matrix_exponential",
]


class ValidationError(ValueError):
    """A matrix or parameter failed a structural precondition."""


# Absolute tolerances on max-entry deviations used across the package.
HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
TRACE_TOL = 1e-8
PSD_EIGENVALUE_TOL = 1e-8

PAULI_LABELS_1Q = ("I", "X", "Y", "Z")

_SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli_labels_2q() -> list[str]:
    """Two-letter labels (ion 1 letter first) in row-major order: II, IX, ... ZZ."""
    return [a + b for a in PAULI_LABELS_1Q for b in PAULI_LABELS_1Q]


def _build_basis() -> np.ndarray:
    basis = np.empty((16, 4, 4), dtype=complex)
    k = 0
    for a in PAULI_LABELS_1Q:
        for b in PAULI_LABELS_1Q:
            basis[k] = np.kron(_SIGMA[a], _SIGMA[b])
            k += 1
    basis.setflags(write=False)
    return basis


_PAULI_2Q = _build_basis()


def two_qubit_pauli_basis() -> np.ndarray:
    """The 16 unnormalized Pauli products sigma_ion1 (x) sigma_ion2, shape (16, 4, 4).

    Ordering follows the linear index k = 4*i1 + i2 over (I, X, Y, Z), i.e.
    II, IX, IY, IZ, XI, XX, ... ZZ.  The returned array is read-only; each P_k
    satisfies P_k @ P_k = I and Tr(P_j^dag P_k) = 4 delta_jk.
    """
    return _PAULI_2Q


def hermiticity_deviation(m: np.ndarray) -> float:
    """Max-entry deviation between M and its conjugate transpose."""
    return float(np.max(np.abs(m - m.conj().T)))


def require_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL,
                      name: str = "matrix") -> None:
    dev = hermiticity_deviation(m)
    if dev > tol:
        raise ValidationError(
            f"{name} is not Hermitian: max asymmetry {dev:.3e} exceeds {tol:.3e}")


def unitarity_deviation(u: np.ndarray) -> float:
    """Max-entry deviation of U U^dag from the identity."""
    return float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))


def require_unitary(u: np.ndarray, name: str = "matrix") -> None:
    dev = unitarity_deviation(u)
    if dev > UNITARITY_TOL:
        raise ValidationError(
            f"{name} is not unitary: max deviation of U U^dag from I is {dev:.3e}")


def matrix_exponential(hermitian_generator: np.ndarray,
                       scale: float) -> np.ndarray:
    """exp(-i * scale * G) for Hermitian G, computed by eigendecomposition.

    Exact to machine precision for the small dimensions used here; the result
    is unitary to ~1e-15.
    """
    g = np.asarray(hermitian_generator, dtype=complex)
    require_hermitian(g, name="generator")
    w, v = np.linalg.eigh(g)
    return (v * np.exp(-1j * scale * w)) @ v.conj().T
