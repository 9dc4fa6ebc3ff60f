"""The 256-sequence two-ion QPT experiment plan and its forward model.

Preparation and measurement settings are drawn from four rotations per ion
(identity, X pi, X pi/2, Y pi/2) applied to ions initialized in |SS>, with
collective detection of the both-bright probability P2.  Sequence order is
lexicographic with the preparation pair outer and the measurement pair inner:
k = 16*(4*p1 + p2) + (4*m1 + m2).
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .process import ProcessMatrix, atomic_write_text
from .qmath import ValidationError, two_qubit_pauli_basis

__all__ = [
    "RotationSetting",
    "TimingModel",
    "SequenceRecord",
    "ExperimentPlan",
    "rotation_unitary",
    "setting_unitary",
    "build_plan",
    "prep_state",
    "meas_operator",
    "predict_p2",
    "design_tensor",
    "design_matrix",
    "design_rank",
    "effect_matrix",
    "hermitian_dof_basis",
    "inversion_map",
    "plan_to_json_dict",
    "plan_from_json_dict",
]

_P = two_qubit_pauli_basis()

KET_SS = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)


class RotationSetting(enum.Enum):
    """One of the four single-ion tomography rotations, as (theta, phi)."""

    ID = ("I", 0.0, 0.0)
    XPI = ("Xpi", math.pi, 0.0)
    XHALF = ("Xhalf", math.pi / 2, 0.0)
    YHALF = ("Yhalf", math.pi / 2, math.pi / 2)

    def __init__(self, code: str, theta: float, phi: float):
        self.code = code
        self.theta = theta
        self.phi = phi

    @classmethod
    def from_code(cls, code: str) -> "RotationSetting":
        for s in cls:
            if s.code == code:
                return s
        raise ValidationError(f"unknown rotation code {code!r}")


SETTINGS = tuple(RotationSetting)


def rotation_unitary(theta: float, phi: float) -> np.ndarray:
    """R(theta, phi) = exp[-i theta/2 (X cos phi + Y sin phi)] on one qubit."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s * np.exp(-1j * phi)],
                     [-1j * s * np.exp(1j * phi), c]], dtype=complex)


def setting_unitary(pair: tuple[RotationSetting, RotationSetting]) -> np.ndarray:
    r1, r2 = pair
    return np.kron(rotation_unitary(r1.theta, r1.phi),
                   rotation_unitary(r2.theta, r2.phi))


@dataclass(frozen=True)
class TimingModel:
    """Durations of the pulse sequence, in the units given by field names.

    One individually addressed rotation occupies ``composite_block_us``; a
    preparation (or measurement) stage is two such blocks, one per ion, so the
    prep+meas overhead is 100 us at defaults.  ``shot_overhead_ms`` is the
    cooling/detection dead time per shot; the paper does not state it, and the
    10 ms default yields a ~21.5 min run over which slow drift accumulates.
    """

    composite_block_us: float = 25.0
    pulse_pi_us: float = 8.0
    process_duration_us: float = 0.0
    shot_overhead_ms: float = 10.0

    @property
    def prep_block_us(self) -> float:
        return 2.0 * self.composite_block_us

    @property
    def in_sequence_us(self) -> float:
        return 4.0 * self.composite_block_us + self.process_duration_us

    @property
    def shot_period_s(self) -> float:
        return self.shot_overhead_ms * 1e-3 + self.in_sequence_us * 1e-6


@dataclass(frozen=True)
class SequenceRecord:
    k: int
    prep: tuple[RotationSetting, RotationSetting]
    meas: tuple[RotationSetting, RotationSetting]
    start_time_s: float


@dataclass(frozen=True)
class ExperimentPlan:
    """An ordered list of (prep, meas) sequences with timing metadata."""

    sequences: tuple[SequenceRecord, ...]
    shots_per_sequence: int
    timing: TimingModel

    def __post_init__(self):
        if self.shots_per_sequence < 1:
            raise ValidationError("shots_per_sequence must be >= 1")
        times = [s.start_time_s for s in self.sequences]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError("sequence start times must be strictly increasing")

    @property
    def n_sequences(self) -> int:
        return len(self.sequences)


def build_plan(process_duration_us: float = 0.0, shots: int = 500,
               timing: TimingModel | None = None) -> ExperimentPlan:
    """Canonical 256-sequence plan (prep outer, meas inner, lexicographic)."""
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    timing = replace(timing or TimingModel(),
                     process_duration_us=process_duration_us)
    period = timing.shot_period_s
    sequences = []
    k = 0
    for p1 in SETTINGS:
        for p2 in SETTINGS:
            for m1 in SETTINGS:
                for m2 in SETTINGS:
                    sequences.append(SequenceRecord(
                        k=k, prep=(p1, p2), meas=(m1, m2),
                        start_time_s=k * shots * period))
                    k += 1
    return ExperimentPlan(sequences=tuple(sequences),
                          shots_per_sequence=shots, timing=timing)


def prep_state(pair: tuple[RotationSetting, RotationSetting]) -> np.ndarray:
    """(R1 (x) R2) |SS><SS| (R1 (x) R2)^dag."""
    u = setting_unitary(pair)
    psi = u @ KET_SS
    return np.outer(psi, psi.conj())


def meas_operator(pair: tuple[RotationSetting, RotationSetting]) -> np.ndarray:
    """POVM element whose expectation is the both-bright probability P2."""
    u = setting_unitary(pair)
    phi = u.conj().T @ KET_SS
    return np.outer(phi, phi.conj())


# Design tensors, effect matrices and inversion maps are pure functions of the
# sequence settings; cache by the settings signature so plans differing only
# in timing share them.  Effect matrices and inversion maps are stored
# read-only, since every caller gets the same arrays.
_DESIGN_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_EFFECT_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
_INVERSION_CACHE: dict[tuple, tuple[int, np.ndarray | None]] = {}


def _plan_signature(plan: ExperimentPlan) -> tuple:
    return tuple((s.prep[0].code, s.prep[1].code, s.meas[0].code, s.meas[1].code)
                 for s in plan.sequences)


def sequence_operators(plan: ExperimentPlan) -> tuple[np.ndarray, np.ndarray]:
    """Stacked prep states and measurement operators, each (n_seq, 4, 4)."""
    sig = _plan_signature(plan)
    cached = _DESIGN_CACHE.get(sig)
    if cached is None:
        rho = np.stack([prep_state(s.prep) for s in plan.sequences])
        mop = np.stack([meas_operator(s.meas) for s in plan.sequences])
        ctensor = _build_design_tensor(rho, mop)
        cached = (rho, mop, ctensor)
        _DESIGN_CACHE[sig] = cached
    return cached[0], cached[1]


def _build_design_tensor(rho: np.ndarray, mop: np.ndarray) -> np.ndarray:
    # C[k, m, n] = Tr(M_k P_n rho_k P_m^dag); p_k = sum_mn chi[m,n] C[k,m,n].
    pn_rho = np.einsum("nbc,kcd->knbd", _P, rho)
    return np.einsum("kab,knbd,mda->kmn", mop, pn_rho, _P.conj().transpose(0, 2, 1))


def design_tensor(plan: ExperimentPlan) -> np.ndarray:
    sequence_operators(plan)
    return _DESIGN_CACHE[_plan_signature(plan)][2]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def effect_matrix(plan: ExperimentPlan) -> tuple[np.ndarray, np.ndarray]:
    """Real form of the Choi-space forward map, and the transposed prep states.

    Row k of the complex effect matrix E is vec(rho_k^T (x) M_k), so that
    p_k = Tr(J E_k) for a Choi matrix J.  Each E_k is Hermitian, so
    Tr(J E_k) = sum_ab (Re E_k Re J + Im E_k Im J)_ab.  The first array F,
    shape (n_seq, 512), is E with the real and imaginary part of each entry
    in adjacent columns, numpy's memory layout of a complex array.  For a
    C-contiguous complex J, F @ J.view(float).ravel() is therefore p, and
    (w @ F).view(complex) is vec R for R = sum_k w_k E_k.  The second array,
    shape (n_seq, 16), holds vec(rho_k^T) row by row.
    """
    sig = _plan_signature(plan)
    cached = _EFFECT_CACHE.get(sig)
    if cached is None:
        rho, mop = sequence_operators(plan)
        n = len(rho)
        e = np.einsum("kba,kcd->kacbd", rho, mop).reshape(n, 256)
        # Column-major storage makes both matrix-vector products faster.
        forward = np.asfortranarray(np.ascontiguousarray(e).view(np.float64))
        rho_t = rho.transpose(0, 2, 1).reshape(n, 16).copy()
        cached = (_read_only(forward), _read_only(rho_t))
        _EFFECT_CACHE[sig] = cached
    return cached


def predict_p2(chi: ProcessMatrix, plan: ExperimentPlan,
               boundary_tol: float = 1e-10) -> np.ndarray:
    """Predicted both-bright probability for every sequence in plan order."""
    c = design_tensor(plan)
    p = np.einsum("mn,kmn->k", chi.chi, c)
    if np.max(np.abs(p.imag)) > 1e-8:
        raise ValidationError("forward model produced complex probabilities; "
                              "chi violates Hermiticity")
    p = p.real
    if p.min() < -boundary_tol or p.max() > 1.0 + boundary_tol:
        raise ValidationError(
            f"probability outside [0,1]: range [{p.min():.3e}, {p.max():.3e}]; "
            "chi is not CPTP")
    return np.clip(p, 0.0, 1.0)


def hermitian_dof_basis() -> np.ndarray:
    """256 Hermitian 16x16 basis matrices parameterizing chi with real weights.

    Order: 16 diagonal projectors, then for each m < n the symmetric pair
    (E_mn + E_nm) followed by the antisymmetric pair i(E_mn - E_nm).
    """
    basis = np.zeros((256, 16, 16), dtype=complex)
    a = 0
    for m in range(16):
        basis[a, m, m] = 1.0
        a += 1
    for m in range(16):
        for n in range(m + 1, 16):
            basis[a, m, n] = 1.0
            basis[a, n, m] = 1.0
            a += 1
            basis[a, m, n] = 1.0j
            basis[a, n, m] = -1.0j
            a += 1
    return basis


def design_matrix(plan: ExperimentPlan) -> tuple[np.ndarray, np.ndarray]:
    """Real linear map A from Hermitian-chi coefficients to probabilities.

    Returns (A, H) with A of shape (n_seq, 256) and H the Hermitian basis such
    that p = A @ x for chi = sum_a x[a] H[a].
    """
    c = design_tensor(plan)
    h = hermitian_dof_basis()
    a = c.reshape(len(c), 256) @ h.reshape(256, 256).T
    return a.real.copy(), h


def inversion_map(plan: ExperimentPlan) -> tuple[int, np.ndarray | None]:
    """Rank of the design matrix, and the least-squares map to chi.

    For a full-rank plan the map L = H^T pinv(A), for (A, H) from
    ``design_matrix``, gives the least-squares chi from frequencies f as
    (L @ f).reshape(16, 16).  Singular values at or below max(A.shape) * eps
    times the largest count as zero, the cutoff of numpy's ``lstsq`` and
    ``matrix_rank``.  L is None when the rank is below 256.
    """
    sig = _plan_signature(plan)
    cached = _INVERSION_CACHE.get(sig)
    if cached is None:
        a, h = design_matrix(plan)
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        rank = int(np.sum(s > s[0] * max(a.shape) * np.finfo(float).eps))
        inverse = None
        if rank == a.shape[1]:
            inverse = _read_only(h.reshape(256, 256).T @ ((vt.T / s) @ u.T))
        cached = (rank, inverse)
        _INVERSION_CACHE[sig] = cached
    return cached


def design_rank(plan: ExperimentPlan) -> int:
    """Rank of the chi -> probabilities map; 256 for the canonical settings."""
    return inversion_map(plan)[0]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def timing_to_dict(t: TimingModel) -> dict:
    return {
        "composite_block_us": t.composite_block_us,
        "pulse_pi_us": t.pulse_pi_us,
        "process_duration_us": t.process_duration_us,
        "shot_overhead_ms": t.shot_overhead_ms,
    }


def timing_from_dict(d: dict) -> TimingModel:
    return TimingModel(**d)


def plan_to_json_dict(plan: ExperimentPlan) -> dict:
    return {
        "shots_per_sequence": plan.shots_per_sequence,
        "timing": timing_to_dict(plan.timing),
        "sequences": [
            {
                "k": s.k,
                "prep": [s.prep[0].code, s.prep[1].code],
                "meas": [s.meas[0].code, s.meas[1].code],
                "start_time_s": s.start_time_s,
            }
            for s in plan.sequences
        ],
    }


def plan_from_json_dict(doc: dict) -> ExperimentPlan:
    sequences = tuple(
        SequenceRecord(
            k=int(s["k"]),
            prep=(RotationSetting.from_code(s["prep"][0]),
                  RotationSetting.from_code(s["prep"][1])),
            meas=(RotationSetting.from_code(s["meas"][0]),
                  RotationSetting.from_code(s["meas"][1])),
            start_time_s=float(s["start_time_s"]),
        )
        for s in doc["sequences"]
    )
    return ExperimentPlan(sequences=sequences,
                          shots_per_sequence=int(doc["shots_per_sequence"]),
                          timing=timing_from_dict(doc["timing"]))


def save_plan(path: str, plan: ExperimentPlan) -> None:
    atomic_write_text(path, json.dumps(plan_to_json_dict(plan)))
