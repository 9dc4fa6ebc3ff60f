"""The 256-sequence two-ion QPT experiment plan and its forward model.

Preparation and measurement settings are drawn from four rotations per ion
(identity, X pi, X pi/2, Y pi/2) applied to ions initialized in |SS>, with
collective detection of the both-bright probability P2.  Every plan runs the
256 ``SEQUENCES`` in lexicographic order, preparation pair outer and
measurement pair inner: k = 16*(4*p1 + p2) + (4*m1 + m2).

The forward model is one real matrix, the effect matrix F of
``effect_matrix``: P2 of sequence k is Tr(J E_k) for the Choi matrix J of
the process and E_k = rho_k^T (x) M_k.  Prediction (``predict_p2``), linear
inversion (``inversion_map``) and the MLE in ``recon`` all read F.
"""
from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .process import ProcessMatrix, chi_to_choi
from .qmath import ValidationError, hermiticity_deviation

__all__ = [
    "RotationSetting",
    "TimingModel",
    "SEQUENCES",
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


# (prep pair, meas pair) of sequence k = 16*(4*p1 + p2) + (4*m1 + m2).
SEQUENCES = tuple(itertools.product(
    itertools.product(RotationSetting, repeat=2), repeat=2))


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
        for name, value in asdict(self).items():
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError(
                    f"timing {name} must be finite and >= 0, got {value}")
        # A block's two pulses add up to one pi time and must fit in it.
        if self.pulse_pi_us > self.composite_block_us:
            raise ValidationError(
                f"timing pulse_pi_us ({self.pulse_pi_us}) exceeds "
                f"composite_block_us ({self.composite_block_us})")

    @property
    def in_sequence_us(self) -> float:
        return 4.0 * self.composite_block_us + self.process_duration_us

    @property
    def shot_period_s(self) -> float:
        return self.shot_overhead_ms * 1e-3 + self.in_sequence_us * 1e-6


@dataclass(frozen=True)
class ExperimentPlan:
    """Shots and timing of a run of the 256 ``SEQUENCES``, in order."""

    shots_per_sequence: int
    timing: TimingModel

    def __post_init__(self):
        if self.shots_per_sequence < 1:
            raise ValidationError("shots_per_sequence must be >= 1")
        # The start times k * shots * period increase strictly iff period > 0.
        if not self.timing.shot_period_s > 0:
            raise ValidationError("the shot period must be positive")

    @property
    def n_sequences(self) -> int:
        return len(SEQUENCES)

    def start_time_s(self, k: int) -> float:
        return k * self.shots_per_sequence * self.timing.shot_period_s


def build_plan(process_duration_us: float = 0.0, shots: int = 500,
               timing: TimingModel | None = None) -> ExperimentPlan:
    """Plan of ``shots`` per sequence with the given process window."""
    timing = replace(timing or TimingModel(),
                     process_duration_us=process_duration_us)
    return ExperimentPlan(shots_per_sequence=shots, timing=timing)


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


# Predicted probabilities may leave [0, 1] by this much before the chi counts
# as not CPTP; within it they are clipped.
_BOUNDARY_TOL = 1e-10


def sequence_operators() -> tuple[np.ndarray, np.ndarray]:
    """Stacked prep states and measurement operators, each (256, 4, 4)."""
    rho = np.stack([prep_state(prep) for prep, _ in SEQUENCES])
    mop = np.stack([meas_operator(meas) for _, meas in SEQUENCES])
    return rho, mop


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.cache
def effect_matrix() -> tuple[np.ndarray, np.ndarray]:
    """Real form of the Choi-space forward map, and the transposed prep states.

    Row k of the complex effect matrix E is vec(rho_k^T (x) M_k), so that
    p_k = Tr(J E_k) for a Choi matrix J.  Each E_k is Hermitian, so
    Tr(J E_k) = sum_ab (Re E_k Re J + Im E_k Im J)_ab.  The first array F,
    shape (256, 512), is E with the real and imaginary part of each entry
    in adjacent columns, numpy's memory layout of a complex array.  For a
    C-contiguous complex J, F @ J.view(float).ravel() is therefore p, and
    (w @ F).view(complex) is vec R for R = sum_k w_k E_k.  The second array,
    shape (256, 16), holds vec(rho_k^T) row by row.  Both are built once and
    are read-only, since every caller gets the same arrays.
    """
    rho, mop = sequence_operators()
    n = len(rho)
    e = np.einsum("kba,kcd->kacbd", rho, mop).reshape(n, 256)
    # Column-major storage makes both matrix-vector products faster.
    forward = np.asfortranarray(np.ascontiguousarray(e).view(np.float64))
    rho_t = rho.transpose(0, 2, 1).reshape(n, 16).copy()
    return _read_only(forward), _read_only(rho_t)


# predict_p2 and design_rank read no field of ``plan``: every plan runs the
# same sequences.  They take one because tests/test_acceptance.py (kept
# unchanged) passes one.
def predict_p2(chi: ProcessMatrix, plan: ExperimentPlan) -> np.ndarray:
    """Predicted both-bright probability of every sequence, in order k."""
    # F is real, so it would silently drop an anti-Hermitian part of chi.
    if hermiticity_deviation(chi.chi) > 1e-8:
        raise ValidationError("forward model produced complex probabilities; "
                              "chi violates Hermiticity")
    choi = np.ascontiguousarray(chi_to_choi(chi.chi))
    p = effect_matrix()[0] @ choi.view(float).ravel()
    if p.min() < -_BOUNDARY_TOL or p.max() > 1.0 + _BOUNDARY_TOL:
        raise ValidationError(
            f"probability outside [0,1]: range [{p.min():.3e}, {p.max():.3e}]; "
            "chi is not CPTP")
    return np.clip(p, 0.0, 1.0)


@functools.cache
def inversion_map() -> tuple[int, np.ndarray]:
    """Rank of the effect matrix, and its least-squares inverse.

    The map L = pinv(F), for F from ``effect_matrix``, gives the
    minimum-norm least-squares Choi matrix from frequencies f as
    (L @ f).view(complex).reshape(16, 16).  F's row space holds only
    Hermitian J, so that J is Hermitian, and it is the one least-squares fit
    among Hermitian J.  The rank counts the singular values above
    max(F.shape) * eps times the largest, the cutoff of numpy's ``lstsq``
    and ``matrix_rank``; the four settings make it 256, the number of real
    parameters of a Hermitian J, so L inverts every singular value.
    """
    forward, _ = effect_matrix()
    # F^T = U S V^T is C-contiguous, LAPACK's faster layout here, and
    # pinv(F) = U S^-1 V^T.
    u, s, vt = np.linalg.svd(forward.T, full_matrices=False)
    rank = int(np.sum(s > s[0] * max(forward.shape) * np.finfo(float).eps))
    return rank, _read_only((u / s) @ vt)


def design_rank(plan: ExperimentPlan) -> int:
    """Rank of the chi -> probabilities map; 256 for the four settings."""
    return inversion_map()[0]


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
