"""The 256-sequence two-ion QPT experiment plan and its forward model.

Preparation and measurement settings are drawn from four rotations per ion
(identity, X pi, X pi/2, Y pi/2) applied to ions initialized in |SS>, with
collective detection of the both-bright probability P2.  The 16 two-ion
``SETTINGS`` serve both stages, and every plan runs the 256 ``SEQUENCES`` in
lexicographic order, preparation outer and measurement inner: sequence
k = 16*a + b prepares rho_a and measures M_b.

P2 of sequence k is Tr(J E_k) for the Choi matrix J of the process, indexed
(in, out) x (in', out'), and the effect E_k = rho_a^T (x) M_b.  The design
is a product of 16 preparations and 16 measurements, so as a 16x16 matrix
P[a, b] the probabilities are P = A Jr B^T (Van Loan, J. Comput. Appl.
Math. 123, 85 (2000)).  Here Jr is J reshuffled to (in, in') x (out, out'),
A[a, (i, i')] = rho_a[i, i'] and B[b, (o, o')] = M_b[o', o]; both factors
(``design_factors``) have rank 16.  Three maps follow, and prediction
(``predict_p2``), linear inversion and the MLE in ``recon`` read only them:
``forward_p2`` is P = A Jr B^T, ``adjoint_p2`` is sum_k w_k E_k, the
reshuffle of A^H W conj(B), and ``invert_p2`` is Jr = A^-1 P B^-T, the one
J that reproduces P exactly.
"""
from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .process import ProcessMatrix, chi_to_choi, validate_cptp
from .qmath import ValidationError

__all__ = [
    "RotationSetting",
    "TimingModel",
    "SETTINGS",
    "SEQUENCES",
    "ExperimentPlan",
    "rotation_unitary",
    "setting_unitary",
    "build_plan",
    "prep_state",
    "meas_operator",
    "predict_p2",
    "design_rank",
    "design_factors",
    "forward_p2",
    "adjoint_p2",
    "invert_p2",
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


# The 16 two-ion settings (r1, r2), index 4*r1 + r2, used both to prepare
# and to measure.
SETTINGS = tuple(itertools.product(RotationSetting, repeat=2))
# (prep, meas) of sequence k = 16*a + b, for prep SETTINGS[a] and meas
# SETTINGS[b].
SEQUENCES = tuple(itertools.product(SETTINGS, repeat=2))


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

    def start_time_s(self, k: int | np.ndarray) -> float | np.ndarray:
        """Seconds from the run's start to the start of sequence(s) ``k``."""
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


@functools.cache
def design_factors() -> tuple[np.ndarray, np.ndarray]:
    """The read-only 16x16 factors A and B of the forward model.

    Row a of A is vec(rho_a) of preparation a, and row b of B is vec(M_b^T)
    of measurement b, both for the ``SETTINGS`` in order.
    """
    a = np.stack([prep_state(s) for s in SETTINGS]).reshape(16, 16)
    b = np.stack([meas_operator(s).T for s in SETTINGS]).reshape(16, 16)
    a.flags.writeable = b.flags.writeable = False
    return a, b


def _reshuffle(m: np.ndarray) -> np.ndarray:
    """(in, out) x (in', out') <-> (in, in') x (out, out'); its own inverse."""
    return m.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)


def forward_p2(j: np.ndarray) -> np.ndarray:
    """Re Tr(J E_k) of a Choi matrix J for every sequence, in order k; the
    imaginary part is 0 when J is Hermitian."""
    a, b = design_factors()
    return (a @ _reshuffle(j) @ b.T).real.ravel()


def adjoint_p2(w: np.ndarray) -> np.ndarray:
    """sum_k w_k E_k of real weights w, in order k."""
    a, b = design_factors()
    return _reshuffle(a.conj().T @ w.reshape(16, 16) @ b.conj())


def invert_p2(p: np.ndarray) -> np.ndarray:
    """The one Choi matrix J with Tr(J E_k) = p_k for every k."""
    a, b = design_factors()
    x = np.linalg.solve(a, p.reshape(16, 16))
    return _reshuffle(np.linalg.solve(b, x.T).T)


# predict_p2 and design_rank read no field of ``plan``: every plan runs the
# same sequences.  They take one because tests/test_acceptance.py (kept
# unchanged) passes one.
def predict_p2(chi: ProcessMatrix, plan: ExperimentPlan) -> np.ndarray:
    """Predicted both-bright probability of every sequence, in order k, of
    a chi that passes ``validate_cptp``; clipped into [0, 1]."""
    validate_cptp(chi).require()
    return np.clip(forward_p2(chi_to_choi(chi.chi)), 0.0, 1.0)


def design_rank(plan: ExperimentPlan) -> int:
    """Rank of the chi -> probabilities map, rank(A) rank(B); 256 for the
    four settings."""
    a, b = design_factors()
    return int(np.linalg.matrix_rank(a) * np.linalg.matrix_rank(b))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _from_dict(cls, d, what: str):
    """``cls(**d)`` for a mapping ``d`` whose keys are all fields of ``cls``
    and whose values are no booleans (JSON true is not the number 1)."""
    if not isinstance(d, dict):
        raise ValidationError(f"{what} must be a mapping, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValidationError(f"unknown {what} field(s): {', '.join(unknown)}")
    flags = sorted(k for k, v in d.items() if isinstance(v, bool))
    if flags:
        raise ValidationError(f"{what} field(s) must be numbers, not "
                              f"booleans: {', '.join(flags)}")
    return cls(**d)
