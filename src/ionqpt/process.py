"""Process-matrix (chi) calculus for two-qubit maps.

A quantum map E is stored as a 16x16 complex matrix chi over the unnormalized
Pauli-product basis P_0..P_15 (II, IX, ... ZZ), acting as

    E(rho) = sum_mn chi[m, n] P_n rho P_m^dag.

With this convention a unitary U = sum_m c_m P_m (c_m = Tr(P_m U)/4) has
chi[m, n] = conj(c_m) * c_n, so the ideal Molmer-Sorensen propagator
exp(-i pi/4 X1X2) carries chi[II,II] = chi[XX,XX] = 1/2, chi[XX,II] = i/2 and
chi[II,XX] = -i/2.  A trace-preserving map has Tr(chi) = 1, but unit trace
alone does not make a map trace preserving.

The Choi matrix J is the one other form of a map, ordered input (x) output:
J = sum_ij |i><j| (x) E(|i><j|), so probabilities are Tr[J (rho^T (x) M)],
E(rho) = Tr_in[J (rho^T (x) I)] and trace preservation is Tr_out J = I.
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .qmath import (
    HERMITICITY_TOL,
    PSD_EIGENVALUE_TOL,
    TRACE_TOL,
    ValidationError,
    hermiticity_deviation,
    pauli_labels_2q,
    require_hermitian,
    require_unitary,
    two_qubit_pauli_basis,
)

__all__ = [
    "ProcessMatrix",
    "CptpDiagnostics",
    "identity_chi",
    "unitary_to_chi",
    "apply_process",
    "process_fidelity",
    "extract_error_process",
    "validate_cptp",
    "chi_to_choi",
    "choi_to_chi",
    "chi_to_json_dict",
    "chi_from_json_dict",
    "save_chi",
    "load_chi",
    "atomic_write_text",
]

_P = two_qubit_pauli_basis()

# v_n = (I (x) P_n) |omega>, |omega> = sum_i |i>|i>; columns are orthogonal with
# norm 2, so choi = V chi^T V^dag and chi^T = V^dag choi V / 16.
_OMEGA = np.eye(4, dtype=complex).reshape(16)
_V = np.stack([np.kron(np.eye(4, dtype=complex), _P[n]) @ _OMEGA
               for n in range(16)], axis=1)

CHI_CONVENTION = "unnormalized-pauli-trace-one"


class ProcessMatrix:
    """A 16x16 chi matrix in the two-qubit Pauli-product basis.

    Entries are finite.  Validated instances are CPTP by the one rule of
    ``CptpDiagnostics``: Hermitian to 1e-10, PSD to -1e-8, unit trace and
    trace preserving to 1e-8.  Pass ``validate=False`` for possibly-unphysical
    matrices (e.g. raw linear inversion output).
    """

    __slots__ = ("chi",)

    def __init__(self, chi: np.ndarray, validate: bool = True):
        chi = np.array(chi, dtype=complex)
        if chi.shape != (16, 16):
            raise ValidationError(f"chi must be 16x16, got {chi.shape}")
        if not np.all(np.isfinite(chi)):
            raise ValidationError("chi has non-finite entries")
        chi.setflags(write=False)
        self.chi = chi
        if validate:
            validate_cptp(self).require()

    def __repr__(self) -> str:  # pragma: no cover
        return f"ProcessMatrix(trace={self.chi.trace():.6f})"


@dataclass(frozen=True)
class CptpDiagnostics:
    """The package's one physicality rule: chi is Hermitian to
    ``HERMITICITY_TOL`` (1e-10), PSD down to -``PSD_EIGENVALUE_TOL`` (-1e-8)
    on the minimum eigenvalue, and has unit trace and Tr_out J = I to
    ``TRACE_TOL`` (1e-8)."""

    min_eigenvalue: float
    hermiticity_deviation: float
    trace_deviation: float
    tp_residual: float

    def failures(self) -> list[str]:
        """Each condition of the rule that fails, with its figure."""
        checks = (
            ("Hermiticity deviation", self.hermiticity_deviation,
             HERMITICITY_TOL),
            ("PSD: -min eigenvalue", -self.min_eigenvalue, PSD_EIGENVALUE_TOL),
            ("unit trace deviation", self.trace_deviation, TRACE_TOL),
            ("trace preservation (TP) residual", self.tp_residual, TRACE_TOL))
        return [f"{name} {value:.3e} > {tol:g}"
                for name, value, tol in checks if value > tol]

    def is_physical(self) -> bool:
        return not self.failures()

    def require(self) -> None:
        """Raise one ValidationError naming every failed condition."""
        failed = self.failures()
        if failed:
            raise ValidationError("chi is not CPTP: " + "; ".join(failed))


def identity_chi() -> ProcessMatrix:
    chi = np.zeros((16, 16), dtype=complex)
    chi[0, 0] = 1.0
    return ProcessMatrix(chi)


def unitary_to_chi(u: np.ndarray) -> ProcessMatrix:
    """Rank-1 chi of the map rho -> U rho U^dag."""
    u = np.asarray(u, dtype=complex)
    require_unitary(u, name="input unitary")
    c = np.einsum("kab,ba->k", _P, u) / 4.0
    chi = np.outer(c.conj(), c)
    return ProcessMatrix(chi)


def _require_density_matrix(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValidationError(f"density matrix must be 4x4, got {rho.shape}")
    require_hermitian(rho, TRACE_TOL, name="density matrix")
    if abs(rho.trace() - 1.0) > TRACE_TOL:
        raise ValidationError(
            f"density matrix trace deviates from 1 by {abs(rho.trace() - 1):.3e}")
    if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0] < -TRACE_TOL:
        raise ValidationError("density matrix has a negative eigenvalue")
    return rho


def apply_process(chi: ProcessMatrix, rho: np.ndarray) -> np.ndarray:
    """E(rho) = sum_ij rho[i, j] J[(i, a), (j, b)], read off the Choi matrix."""
    rho = _require_density_matrix(rho)
    j = chi_to_choi(chi.chi).reshape(4, 4, 4, 4)
    return np.einsum("ij,iajb->ab", rho, j)


class _Fidelity(float):
    """A float that also reads as ``.fidelity``, the spelling that
    ``tests/test_acceptance.py`` (kept unchanged) uses."""

    @property
    def fidelity(self) -> float:
        return float(self)


def process_fidelity(chi_exp: ProcessMatrix,
                     chi_ideal: ProcessMatrix) -> float:
    """F_p = Tr(chi_exp chi_ideal), clamped to [0, 1]; target must be rank 1."""
    eigs = np.linalg.eigvalsh(chi_ideal.chi)
    if eigs[-2] > 1e-6:
        raise ValidationError(
            f"chi_ideal is not rank 1 (second eigenvalue {eigs[-2]:.3e})")
    raw = np.trace(chi_exp.chi @ chi_ideal.chi)
    return _Fidelity(np.clip(raw.real, 0.0, 1.0))


def _partial_trace_out(g: np.ndarray) -> np.ndarray:
    """Tr_out of a 16x16 operator on input (x) output."""
    return np.einsum("iaja->ij", g.reshape(4, 4, 4, 4))


def extract_error_process(chi_meas: ProcessMatrix,
                          u_ideal: np.ndarray) -> ProcessMatrix:
    """Error process chi_tilde with E_meas = U_ideal o E_tilde.

    The error acts before the ideal gate: E_meas(rho) = U E_tilde(rho) U^dag,
    which makes chi_tilde[II,II] equal the process fidelity versus the ideal
    gate.  In Choi form this is one conjugation of the output factor,
    J_tilde = (I (x) U^dag) J (I (x) U).  The result is Hermitized but not
    validated, so that an unphysical input (raw linear inversion) stays
    reportable.
    """
    u_ideal = np.asarray(u_ideal, dtype=complex)
    require_unitary(u_ideal, name="u_ideal")
    w = np.kron(np.eye(4), u_ideal.conj().T)
    chi = choi_to_chi(w @ chi_to_choi(chi_meas.chi) @ w.conj().T)
    return ProcessMatrix(0.5 * (chi + chi.conj().T), validate=False)


def validate_cptp(chi: ProcessMatrix) -> CptpDiagnostics:
    """Physicality diagnostics; never raises."""
    c = chi.chi
    herm = hermiticity_deviation(c)
    ch = 0.5 * (c + c.conj().T)
    min_eig = float(np.linalg.eigvalsh(ch)[0])
    tr_dev = float(abs(c.trace() - 1.0))
    tp_res = float(np.max(np.abs(_partial_trace_out(chi_to_choi(c))
                                 - np.eye(4))))
    return CptpDiagnostics(min_eigenvalue=min_eig, hermiticity_deviation=herm,
                           trace_deviation=tr_dev, tp_residual=tp_res)


def chi_to_choi(chi: np.ndarray) -> np.ndarray:
    """16x16 Choi matrix (input (x) output ordering, trace 4 for TP maps)."""
    chi = np.asarray(chi, dtype=complex)
    return _V @ chi.T @ _V.conj().T


def choi_to_chi(choi: np.ndarray) -> np.ndarray:
    choi = np.asarray(choi, dtype=complex)
    return (_V.conj().T @ choi @ _V / 16.0).T


# ---------------------------------------------------------------------------
# JSON export/import
# ---------------------------------------------------------------------------

def chi_to_json_dict(chi: ProcessMatrix | np.ndarray) -> dict:
    c = chi.chi if isinstance(chi, ProcessMatrix) else np.asarray(chi, dtype=complex)
    return {
        "basis_order": pauli_labels_2q(),
        "re": c.real.tolist(),
        "im": c.imag.tolist(),
        "convention": CHI_CONVENTION,
    }


def _is_number(value) -> bool:
    """Whether a JSON value is a number; a boolean is not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(value, name: str) -> np.ndarray:
    """The nested JSON list ``value`` as floats, if every entry is a number."""
    entries = np.asarray(value, dtype=object)
    if not all(map(_is_number, entries.flat)):
        raise ValidationError(f"every entry of {name} must be a JSON number")
    return entries.astype(float)


def chi_from_json_dict(doc: dict, validate: bool = True) -> ProcessMatrix:
    if not isinstance(doc, dict):
        raise ValidationError("chi document must be a JSON object")
    if doc.get("convention") != CHI_CONVENTION:
        raise ValidationError(
            f"unsupported chi convention {doc.get('convention')!r}")
    if doc.get("basis_order") != pauli_labels_2q():
        raise ValidationError("unexpected basis_order in chi document")
    chi = _numbers(doc["re"], "re") + 1j * _numbers(doc["im"], "im")
    return ProcessMatrix(chi, validate=validate)


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory plus rename.  An OSError
    names ``path``, not the temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                                   suffix=".json")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def save_chi(path: str, chi: ProcessMatrix | np.ndarray) -> None:
    atomic_write_text(path, json.dumps(chi_to_json_dict(chi)))


def load_chi(path: str, validate: bool = True) -> ProcessMatrix:
    with open(path) as fh:
        return chi_from_json_dict(json.load(fh), validate=validate)
