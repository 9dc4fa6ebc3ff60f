"""Reference model of the two-ion QPT experiment, written apart from ionqpt.

The workload checks compare the program's outputs with this model, so it
shares no code with the package: every quantity is built here from the
textbook definitions.

Conventions (those of the paper and of ionqpt's file formats):

* Qubit state 0 is S (bright), 1 is D (dark); |SS> = (1, 0, 0, 0).
* Pauli products are sigma_ion1 (x) sigma_ion2 in the order II, IX, ... ZZ.
* chi acts as E(rho) = sum_mn chi[m, n] P_n rho P_m^dag, so a unitary with
  Pauli coefficients c_m = Tr(P_m U) / 4 has chi[m, n] = conj(c_m) c_n.
* The 256 sequences are ordered k = 16 (4 p1 + p2) + (4 m1 + m2) over the
  single-ion rotations (I, X pi, X pi/2, Y pi/2); the measured quantity is
  the probability P2 that both ions are bright.
"""
from __future__ import annotations

import json
import math

import numpy as np

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI_1Q = (_I2, _X, _Y, _Z)
LABELS_1Q = "IXYZ"
LABELS_2Q = [a + b for a in LABELS_1Q for b in LABELS_1Q]
KET_SS = np.array([1, 0, 0, 0], dtype=complex)

# (theta, phi) of the four single-ion tomography rotations.
SETTINGS = ((0.0, 0.0), (math.pi, 0.0), (math.pi / 2, 0.0),
            (math.pi / 2, math.pi / 2))


def pauli_basis() -> np.ndarray:
    """The 16 two-qubit Pauli products, shape (16, 4, 4)."""
    return np.array([np.kron(a, b) for a in PAULI_1Q for b in PAULI_1Q])


PAULI = pauli_basis()


def rotation(theta: float, phi: float) -> np.ndarray:
    """R(theta, phi) = cos(theta/2) I - i sin(theta/2) (cos phi X + sin phi Y)."""
    return (math.cos(theta / 2) * _I2
            - 1j * math.sin(theta / 2) * (math.cos(phi) * _X
                                          + math.sin(phi) * _Y))


def setting_pair_unitary(s1: int, s2: int) -> np.ndarray:
    return np.kron(rotation(*SETTINGS[s1]), rotation(*SETTINGS[s2]))


def prep_states() -> np.ndarray:
    """The 16 prepared states (R1 (x) R2)|SS>, index 4 p1 + p2, shape (16, 4)."""
    return np.array([setting_pair_unitary(p1, p2) @ KET_SS
                     for p1 in range(4) for p2 in range(4)])


def ms_unitary(theta: float = math.pi / 4) -> np.ndarray:
    """exp(-i theta X1 X2) = cos(theta) I - i sin(theta) XX, since XX^2 = I."""
    return math.cos(theta) * np.eye(4) - 1j * math.sin(theta) * PAULI[5]


def unitary_chi(u: np.ndarray) -> np.ndarray:
    c = np.array([np.trace(p @ u) / 4 for p in PAULI])
    return np.outer(c.conj(), c)


def identity_chi() -> np.ndarray:
    chi = np.zeros((16, 16), dtype=complex)
    chi[0, 0] = 1.0
    return chi


def apply_chi(chi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """E(rho) = sum_mn chi[m, n] P_n rho P_m^dag, summed term by term."""
    out = np.zeros((4, 4), dtype=complex)
    for m in range(16):
        for n in range(16):
            if chi[m, n] != 0:
                out += chi[m, n] * PAULI[n] @ rho @ PAULI[m].conj().T
    return out


def output_state(chi: np.ndarray) -> np.ndarray:
    """The action of chi on |SS><SS|."""
    return apply_chi(chi, np.outer(KET_SS, KET_SS.conj()))


def p2_of_chi(chi: np.ndarray) -> np.ndarray:
    """Both-bright probability of every sequence, in plan order, shape (256,).

    Each prepared state goes through the channel once; the measurement pair
    U then gives P2 = <SS| U E(rho) U^dag |SS>.
    """
    p = np.empty(256)
    for i, psi in enumerate(prep_states()):
        out = apply_chi(chi, np.outer(psi, psi.conj()))
        for m1 in range(4):
            for m2 in range(4):
                u = setting_pair_unitary(m1, m2)
                p[16 * i + 4 * m1 + m2] = (u @ out @ u.conj().T)[0, 0].real
    return p


def bell_fidelity(chi: np.ndarray) -> float:
    """Fidelity of E(|SS><SS|) with the nearest (|SS> + e^{i phi}|DD>)/sqrt 2.

    That is (rho_SS,SS + rho_DD,DD)/2 + |rho_SS,DD|, the quantity a parity
    scan measures: the populations give the first term and the amplitude of
    the parity fringe, 2 |rho_SS,DD|, the second.
    """
    rho = output_state(chi)
    return float(0.5 * (rho[0, 0].real + rho[3, 3].real) + abs(rho[0, 3]))


def cptp_violation(chi: np.ndarray) -> dict:
    """How far chi is from a CPTP map; all entries are ~0 for a physical chi.

    Complete positivity is chi >= 0 (chi is a Gram matrix of the map's
    Kraus coefficients); trace preservation is sum_mn chi[m,n] P_m^dag P_n = I.
    """
    herm = float(np.max(np.abs(chi - chi.conj().T)))
    min_eig = float(np.linalg.eigvalsh(0.5 * (chi + chi.conj().T))[0])
    tp = sum(chi[m, n] * PAULI[m].conj().T @ PAULI[n]
             for m in range(16) for n in range(16))
    return {"hermiticity": herm,
            "negative_eigenvalue": max(0.0, -min_eig),
            "trace_preservation": float(np.max(np.abs(tp - np.eye(4))))}


def is_cptp(chi: np.ndarray, tol: float = 1e-6) -> bool:
    return all(v <= tol for v in cptp_violation(chi).values())


def process_fidelity(chi: np.ndarray, chi_ideal: np.ndarray) -> float:
    """Tr(chi chi_ideal) for a rank-one (unitary) target."""
    return float(np.trace(chi @ chi_ideal).real)


def read_chi(path: str) -> np.ndarray:
    with open(path) as fh:
        doc = json.load(fh)
    if doc["basis_order"] != LABELS_2Q:
        raise ValueError(f"{path}: unexpected basis order")
    return np.asarray(doc["re"], float) + 1j * np.asarray(doc["im"], float)


def read_counts(path: str) -> tuple[np.ndarray, int]:
    """(n2 per sequence in plan order, shots per sequence) of a dataset file."""
    with open(path) as fh:
        doc = json.load(fh)
    records = sorted(doc["records"], key=lambda r: r["k"])
    return (np.array([r["n2"] for r in records], float),
            int(doc["meta"]["shots"]))
