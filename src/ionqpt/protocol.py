"""The 256-sequence two-ion QPT experiment plan and its forward model.

Preparation and measurement settings are drawn from four rotations per ion
(identity, X pi, X pi/2, Y pi/2) applied to ions initialized in |SS>, with
collective detection of the both-bright probability P2.  Sequence order is
lexicographic with the preparation pair outer and the measurement pair inner:
k = 16*(4*p1 + p2) + (4*m1 + m2).

The forward model is one real matrix, the effect matrix F of
``effect_matrix``: P2 of sequence k is Tr(J E_k) for the Choi matrix J of
the process and E_k = rho_k^T (x) M_k.  Prediction (``predict_p2``), linear
inversion (``inversion_map``) and the MLE in ``recon`` all read F.
"""
from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .process import ProcessMatrix, chi_to_choi
from .qmath import ValidationError, hermiticity_deviation

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
    "design_rank",
    "effect_matrix",
    "inversion_map",
]

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

    def __post_init__(self):
        # Negative durations stay allowed, as for ProcessSpec.duration_us.
        if not all(math.isfinite(v) for v in asdict(self).values()):
            raise ValidationError("timing parameters must be finite")

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


# Effect matrices and inversion maps are pure functions of the sequence
# settings; cache them by the settings signature so plans differing only in
# timing share them.  Both are stored read-only, since every caller gets the
# same arrays.
_EFFECT_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
_INVERSION_CACHE: dict[tuple, tuple[int, np.ndarray | None]] = {}

# Predicted probabilities may leave [0, 1] by this much before the chi counts
# as not CPTP; within it they are clipped.
_BOUNDARY_TOL = 1e-10


def _plan_signature(plan: ExperimentPlan) -> tuple:
    return tuple((s.prep[0].code, s.prep[1].code, s.meas[0].code, s.meas[1].code)
                 for s in plan.sequences)


def sequence_operators(plan: ExperimentPlan) -> tuple[np.ndarray, np.ndarray]:
    """Stacked prep states and measurement operators, each (n_seq, 4, 4)."""
    rho = np.stack([prep_state(s.prep) for s in plan.sequences])
    mop = np.stack([meas_operator(s.meas) for s in plan.sequences])
    return rho, mop


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


def predict_p2(chi: ProcessMatrix, plan: ExperimentPlan) -> np.ndarray:
    """Predicted both-bright probability for every sequence in plan order."""
    # F is real, so it would silently drop an anti-Hermitian part of chi.
    if hermiticity_deviation(chi.chi) > 1e-8:
        raise ValidationError("forward model produced complex probabilities; "
                              "chi violates Hermiticity")
    choi = np.ascontiguousarray(chi_to_choi(chi.chi))
    p = effect_matrix(plan)[0] @ choi.view(float).ravel()
    if p.min() < -_BOUNDARY_TOL or p.max() > 1.0 + _BOUNDARY_TOL:
        raise ValidationError(
            f"probability outside [0,1]: range [{p.min():.3e}, {p.max():.3e}]; "
            "chi is not CPTP")
    return np.clip(p, 0.0, 1.0)


def inversion_map(plan: ExperimentPlan) -> tuple[int, np.ndarray | None]:
    """Rank of the effect matrix, and its least-squares inverse.

    For a full-rank plan the map L = pinv(F), for F from ``effect_matrix``,
    gives the minimum-norm least-squares Choi matrix from frequencies f as
    (L @ f).view(complex).reshape(16, 16).  F's row space holds only
    Hermitian J, so that J is Hermitian, and it is the one least-squares fit
    among Hermitian J.  Singular values at or below max(F.shape) * eps times the
    largest count as zero, the cutoff of numpy's ``lstsq`` and
    ``matrix_rank``.  L is None when the rank is below 256, the number of
    real parameters of a Hermitian J.
    """
    sig = _plan_signature(plan)
    cached = _INVERSION_CACHE.get(sig)
    if cached is None:
        forward, _ = effect_matrix(plan)
        # F^T = U S V^T is C-contiguous, LAPACK's faster layout here, and
        # pinv(F) = U S^-1 V^T.
        u, s, vt = np.linalg.svd(forward.T, full_matrices=False)
        rank = int(np.sum(s > s[0] * max(forward.shape) * np.finfo(float).eps))
        inverse = None
        if rank == 256:
            inverse = _read_only((u[:, :rank] / s[:rank]) @ vt[:rank])
        cached = (rank, inverse)
        _INVERSION_CACHE[sig] = cached
    return cached


def design_rank(plan: ExperimentPlan) -> int:
    """Rank of the chi -> probabilities map; 256 for the canonical settings."""
    return inversion_map(plan)[0]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _from_dict(cls, d, what: str):
    """``cls(**d)`` for a mapping ``d`` whose keys are all fields of ``cls``."""
    if not isinstance(d, dict):
        raise ValidationError(f"{what} must be a mapping, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValidationError(f"unknown {what} field(s): {', '.join(unknown)}")
    return cls(**d)


def timing_from_dict(d: dict) -> TimingModel:
    return _from_dict(TimingModel, d, "timing")
