"""Monte-Carlo simulator of the composite-pulse QPT sequences under noise.

The simulator works at the pulse level.  Each shot is a product of 2x2-rotation
pulses (pairs of laser pulses forming the individually addressed composite
blocks), an optional process propagator, and a projective bright/dark readout.
Qubit/laser frequency offsets are realized as laser-frame phase accrual added
to the phi of each subsequent pulse, not as a Hamiltonian Z term; laser phase
diffusion is a random walk sampled at the event times with sqrt(duration)
scaling.  The entangling-gate propagator is applied at the midpoint of the
process window with its rotation axes following the accrued laser phase, so
free evolution before and after the gate dephases the surrounding pulses.

All shots of a sequence are simulated in one vectorized pass.  Only the
column of the shot unitary that acts on |SS> is needed, so each shot carries
the amplitudes psi[ion 1, ion 2] of that state: a pulse is psi <- A psi B^T
with batched closed-form rotations A and B, and the gate mixes psi with its
both-ions-flipped image.

Datasets are deterministic for a fixed seed under any execution order: each
(sequence, shot) pair draws from its own counter-derived RNG stream.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .process import ProcessMatrix, atomic_write_text, identity_chi, unitary_to_chi
from .protocol import (
    ExperimentPlan,
    RotationSetting,
    TimingModel,
    build_plan,
    rotation_unitary,
    timing_from_dict,
    timing_to_dict,
)
from .qmath import ValidationError, matrix_exponential, two_qubit_pauli_basis

__all__ = [
    "NoiseModel",
    "ProcessSpec",
    "ShotDataset",
    "composite_rotation",
    "sample_trajectory",
    "generate_dataset",
    "dataset_from_probabilities",
    "simulate_ramsey",
    "ramsey_contrast_model",
    "plan_for_process",
]

_XX = two_qubit_pauli_basis()[5]
_I4 = np.eye(4, dtype=complex)

# The shot-to-shot frequency spread is specified as a full width at half
# maximum (the directly measured linewidth); Gaussian draws use the
# equivalent standard deviation fwhm / (2 sqrt(2 ln 2)).
FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


@dataclass(frozen=True)
class NoiseModel:
    """Stochastic and systematic error parameters of the laser/addressing model.

    Defaults are the measured laser-noise figures (slow drift, per-shot
    frequency jitter, phase diffusion) with no addressing miscalibration;
    ``paper_study()`` adds the position-phase and potential-scaling phase
    errors used in the published simulation study.
    """

    drift_hz_per_min: float = 7.0
    fast_freq_sigma_hz: float = 300.0  # FWHM of the per-shot frequency spread
    phase_diffusion_rad_per_sqrt_us: float = 0.015
    phi_p_error_mrad: float = 0.0
    scaling_phase_error_mrad_ion2: float = 0.0
    pulse_area_fractional_error: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in asdict(self).values()):
            raise ValidationError("noise parameters must be finite")
        if self.fast_freq_sigma_hz < 0 or self.phase_diffusion_rad_per_sqrt_us < 0:
            raise ValidationError("noise sigmas must be nonnegative")
        if self.pulse_area_fractional_error <= -1.0:
            raise ValidationError("pulse_area_fractional_error must be > -1")

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    @classmethod
    def paper_study(cls) -> "NoiseModel":
        return cls(phi_p_error_mrad=-145.0, scaling_phase_error_mrad_ion2=155.0)

    @classmethod
    def drift_only(cls, drift_hz_per_min: float = 7.0) -> "NoiseModel":
        return cls(drift_hz_per_min=drift_hz_per_min, fast_freq_sigma_hz=0.0,
                   phase_diffusion_rad_per_sqrt_us=0.0)

    @property
    def fast_freq_gaussian_sigma_hz(self) -> float:
        """Standard deviation of the per-shot frequency draw (FWHM/2.355)."""
        return self.fast_freq_sigma_hz * FWHM_TO_SIGMA

    @property
    def is_shot_deterministic(self) -> bool:
        """True when per-shot randomness is absent (drift alone is per-sequence)."""
        return (self.fast_freq_sigma_hz == 0.0
                and self.phase_diffusion_rad_per_sqrt_us == 0.0)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseModel":
        return cls(**d)


@dataclass(frozen=True)
class ProcessSpec:
    """The quantum process placed between preparation and tomography blocks."""

    label: str  # identity | delay | ms | ms_plus
    theta: float = math.pi / 4
    duration_us: float = 120.0

    def __post_init__(self):
        if self.label not in ("identity", "delay", "ms", "ms_plus"):
            raise ValidationError(f"unknown process label {self.label!r}")

    @classmethod
    def identity(cls) -> "ProcessSpec":
        return cls("identity", duration_us=0.0)

    @classmethod
    def delay(cls, duration_us: float = 120.0) -> "ProcessSpec":
        return cls("delay", duration_us=duration_us)

    @classmethod
    def ms(cls, duration_us: float = 120.0) -> "ProcessSpec":
        return cls("ms", theta=math.pi / 4, duration_us=duration_us)

    @classmethod
    def ms_plus(cls, theta: float = 1.04,
                duration_us: float = 120.0) -> "ProcessSpec":
        return cls("ms_plus", theta=theta, duration_us=duration_us)

    @property
    def is_entangling(self) -> bool:
        return self.label in ("ms", "ms_plus")

    def ideal_unitary(self) -> np.ndarray:
        if self.is_entangling:
            return matrix_exponential(_XX, self.theta)
        return _I4.copy()

    def ideal_chi(self) -> ProcessMatrix:
        if self.is_entangling:
            return unitary_to_chi(self.ideal_unitary())
        return identity_chi()

    def to_dict(self) -> dict:
        return {"label": self.label, "theta": self.theta,
                "duration_us": self.duration_us}

    @classmethod
    def from_dict(cls, d: dict) -> "ProcessSpec":
        return cls(**d)


def plan_for_process(process: ProcessSpec, shots: int = 500,
                     timing: TimingModel | None = None) -> ExperimentPlan:
    """Canonical plan whose process window matches the given process."""
    return build_plan(process_duration_us=process.duration_us, shots=shots,
                      timing=timing)


# ---------------------------------------------------------------------------
# Composite individually addressed rotations
# ---------------------------------------------------------------------------

def _block_pulse_params(target_ion: int, total_theta: float, total_phi: float,
                        noise: NoiseModel) -> list[tuple[float, float, float]]:
    """Per-pulse (theta, phi_ion1, phi_ion2) for one composite block.

    The second pulse happens in the scaled potential: the beam-wide position
    phase correction leaves ion 1 with the residual phi_p error, and ion 2
    sits at the differential pi phase relative to ion 1, shifted further by
    the potential-scaling miscalibration.
    """
    if target_ion not in (1, 2):
        raise ValidationError(f"target_ion must be 1 or 2, got {target_ion}")
    if not (math.isclose(total_theta, math.pi, rel_tol=1e-12)
            or math.isclose(total_theta, math.pi / 2, rel_tol=1e-12)):
        raise ValidationError(
            f"composite rotation supports theta in {{pi/2, pi}}, got {total_theta}")
    phi = total_phi
    phi_p = noise.phi_p_error_mrad * 1e-3
    scal = noise.scaling_phase_error_mrad_ion2 * 1e-3
    half = 0.5 * total_theta * (1.0 + noise.pulse_area_fractional_error)
    if target_ion == 1:
        return [(half, phi, phi),
                (half, phi + phi_p, phi + phi_p + math.pi + scal)]
    return [(half, phi, phi),
            (half, phi + math.pi + phi_p, phi + phi_p + scal)]


def composite_rotation(target_ion: int, total_theta: float, total_phi: float,
                       noise: NoiseModel | None = None,
                       phase_offsets: tuple[float, float] = (0.0, 0.0)) -> np.ndarray:
    """Two-qubit unitary of one composite-addressed rotation block.

    ``phase_offsets`` are the accrued laser-phase deviations at the two pulse
    times (common to both ions).  With zero noise the block acts as
    R(total_theta, total_phi) on the target ion and the identity on the other.
    """
    noise = noise or NoiseModel.none()
    u = _I4
    for (theta, p1, p2), off in zip(
            _block_pulse_params(target_ion, total_theta, total_phi, noise),
            phase_offsets):
        u = np.kron(rotation_unitary(theta, p1 + off),
                    rotation_unitary(theta, p2 + off)) @ u
    return u


# ---------------------------------------------------------------------------
# Shot schedule and noise trajectories
# ---------------------------------------------------------------------------

_KIND_PULSE = 0
_KIND_MS = 1


@dataclass(frozen=True)
class _ShotSchedule:
    """Time-ordered laser events of one sequence (static part, no noise draws)."""

    times_us: np.ndarray      # event midpoints from shot start
    kinds: np.ndarray         # _KIND_PULSE or _KIND_MS
    thetas: np.ndarray        # pulse areas (MS entry holds the gate angle)
    phi1: np.ndarray          # static phase, ion 1 (incl. miscalibrations)
    phi2: np.ndarray


_SCHEDULE_CACHE: dict[tuple, _ShotSchedule] = {}


def _block_events(target: int, setting: RotationSetting, block_start_us: float,
                  timing: TimingModel, noise: NoiseModel) -> list[tuple]:
    if setting is RotationSetting.ID:
        return []
    pulses = _block_pulse_params(target, setting.theta, setting.phi, noise)
    # Each laser pulse lasts (theta_half / pi) * pulse_pi_us; the first starts
    # the block and the second ends it.
    dur = (setting.theta / 2.0) / math.pi * timing.pulse_pi_us
    t_first = block_start_us + 0.5 * dur
    t_second = block_start_us + timing.composite_block_us - 0.5 * dur
    (th_a, a1, a2), (th_b, b1, b2) = pulses
    return [(t_first, _KIND_PULSE, th_a, a1, a2),
            (t_second, _KIND_PULSE, th_b, b1, b2)]


def _shot_schedule(plan: ExperimentPlan, seq_index: int, process: ProcessSpec,
                   noise: NoiseModel) -> _ShotSchedule:
    seq = plan.sequences[seq_index]
    t = plan.timing
    key = (seq.prep[0].code, seq.prep[1].code, seq.meas[0].code,
           seq.meas[1].code, process.label, process.theta, process.duration_us,
           t.composite_block_us, t.pulse_pi_us, noise.phi_p_error_mrad,
           noise.scaling_phase_error_mrad_ion2, noise.pulse_area_fractional_error)
    cached = _SCHEDULE_CACHE.get(key)
    if cached is not None:
        return cached

    block = t.composite_block_us
    events: list[tuple] = []
    events += _block_events(1, seq.prep[0], 0.0, t, noise)
    events += _block_events(2, seq.prep[1], block, t, noise)
    if process.is_entangling:
        events.append((2.0 * block + 0.5 * process.duration_us, _KIND_MS,
                       process.theta, 0.0, 0.0))
    meas_start = 2.0 * block + process.duration_us
    events += _block_events(1, seq.meas[0], meas_start, t, noise)
    events += _block_events(2, seq.meas[1], meas_start + block, t, noise)
    events.sort(key=lambda e: e[0])

    arr = np.array(events, dtype=float).reshape(-1, 5)
    sched = _ShotSchedule(times_us=arr[:, 0], kinds=arr[:, 1].astype(int),
                          thetas=arr[:, 2], phi1=arr[:, 3], phi2=arr[:, 4])
    _SCHEDULE_CACHE[key] = sched
    return sched


def _shot_rng(seed: int, seq_index: int, shot_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(seq_index, shot_index))
    return np.random.Generator(np.random.PCG64(ss))


def sample_trajectory(plan: ExperimentPlan, seq_index: int, noise: NoiseModel,
                      seed: int, process: ProcessSpec | None = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw the frequency offsets, laser-phase walks and readout draws of
    every shot of one sequence.

    Shot ``s`` draws from its own stream ``_shot_rng(seed, seq_index, s)``:
    first ``n_events + 1`` standard normals (the fast frequency offset, then
    one phase-diffusion increment per event), then one uniform readout draw.
    The slow drift contribution is evaluated at the sequence start time and is
    therefore constant across all shots of a sequence; the fast Gaussian
    offset is redrawn per shot.  Phase-diffusion increments scale with the
    square root of the interval between consecutive events.

    Returns ``(freq_offset_hz, phase_offsets, readout)`` of shapes
    ``(shots,)``, ``(shots, n_events)`` and ``(shots,)``; ``phase_offsets``
    is the accrued laser-phase deviation (rad) at each event.
    """
    process = process or ProcessSpec.identity()
    sched = _shot_schedule(plan, seq_index, process, noise)
    shots = plan.shots_per_sequence
    z = np.empty((shots, len(sched.times_us) + 1))
    readout = np.empty(shots)
    for s in range(shots):
        rng = _shot_rng(seed, seq_index, s)
        rng.standard_normal(out=z[s])
        readout[s] = rng.random()
    t_min = plan.sequences[seq_index].start_time_s / 60.0
    freq = (noise.drift_hz_per_min * t_min
            + noise.fast_freq_gaussian_sigma_hz * z[:, 0])
    dt = np.diff(np.concatenate(([0.0], sched.times_us)))
    walk = np.cumsum(z[:, 1:] * noise.phase_diffusion_rad_per_sqrt_us
                     * np.sqrt(dt), axis=1)
    offsets = 2.0 * math.pi * freq[:, None] * sched.times_us * 1e-6 + walk
    return freq, offsets, readout


def _rotate(u: np.ndarray, v: np.ndarray, c: float, x: np.ndarray):
    """Apply [[c, x], [-x*, c]] to the amplitude pairs (u, v) of one ion."""
    return c * u + x * v, c * v - x.conj() * u


def _sequence_probabilities(sched: _ShotSchedule, offsets: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
    """(p2, p0) per shot: both-bright and both-dark probabilities from |SS>.

    ``pjk`` holds, per shot, the amplitude of ion 1 in j and ion 2 in k.  A
    pulse R(theta, phi1) x R(theta, phi2) is psi <- A psi B^T: A mixes the
    ion-1 pairs (p0k, p1k), B the ion-2 pairs (pj0, pj1).  The gate
    cos(theta) I - i sin(theta) (a x a), with a = [[0, e^-id], [e^id, 0]]
    following the accrued phase d, mixes pjk with p(1-j)(1-k), with the
    phases e^-2id, 1, 1, e^2id.
    """
    shots = offsets.shape[0]
    s = -1j * np.sin(sched.thetas / 2)
    x1 = s * np.exp(-1j * (sched.phi1 + offsets))
    x2 = s * np.exp(-1j * (sched.phi2 + offsets))
    p00 = np.ones(shots, dtype=complex)
    p01 = p10 = p11 = np.zeros(shots, dtype=complex)
    for i, kind in enumerate(sched.kinds):
        theta = sched.thetas[i]
        if kind == _KIND_PULSE:
            c = math.cos(theta / 2)
            p00, p10 = _rotate(p00, p10, c, x1[:, i])
            p01, p11 = _rotate(p01, p11, c, x1[:, i])
            p00, p01 = _rotate(p00, p01, c, x2[:, i])
            p10, p11 = _rotate(p10, p11, c, x2[:, i])
        else:
            c, ms = math.cos(theta), -1j * math.sin(theta)
            phase = np.exp(-2j * offsets[:, i])
            p00, p11 = (c * p00 + ms * phase * p11,
                        c * p11 + ms * phase.conj() * p00)
            p01, p10 = c * p01 + ms * p10, c * p10 + ms * p01
    return np.abs(p00) ** 2, np.abs(p11) ** 2


@dataclass
class ShotDataset:
    """Per-sequence outcome counts plus generation metadata.

    ``n2`` may be real-valued when the dataset carries exact expectation
    values (shots times probability) instead of sampled counts.
    """

    plan: ExperimentPlan
    noise: NoiseModel
    process: ProcessSpec
    seed: int | None
    n2: np.ndarray
    n1: np.ndarray | None = None
    n0: np.ndarray | None = None

    def __post_init__(self):
        shots = self.plan.shots_per_sequence
        for name in ("n2", "n1", "n0"):
            if name != "n2" and getattr(self, name) is None:
                continue
            n = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, n)
            if n.shape != (self.plan.n_sequences,):
                raise ValidationError(f"{name} must have one entry per sequence")
            if not np.all(np.isfinite(n)):
                raise ValidationError("counts must be finite")
            if n.min() < 0 or n.max() > shots:
                raise ValidationError(f"counts must satisfy 0 <= {name} <= shots")
        if (self.n1 is not None and self.n0 is not None
                and np.any(self.n0 + self.n1 + self.n2 != shots)):
            raise ValidationError("counts must satisfy n0 + n1 + n2 == shots")

    @property
    def frequencies(self) -> np.ndarray:
        return self.n2 / self.plan.shots_per_sequence

    def to_json_dict(self) -> dict:
        def _num(x: float):
            return int(x) if float(x).is_integer() else float(x)

        records = []
        for i, seq in enumerate(self.plan.sequences):
            rec = {"k": seq.k, "n2": _num(self.n2[i])}
            if self.n1 is not None:
                rec["n1"] = _num(self.n1[i])
            if self.n0 is not None:
                rec["n0"] = _num(self.n0[i])
            records.append(rec)
        return {
            "meta": {
                "seed": self.seed,
                "process_label": self.process.label,
                "process": self.process.to_dict(),
                "noise": self.noise.to_dict(),
                "timing": timing_to_dict(self.plan.timing),
                "shots": self.plan.shots_per_sequence,
            },
            "records": records,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ShotDataset":
        meta = doc["meta"]
        process = ProcessSpec.from_dict(meta["process"]) if "process" in meta \
            else ProcessSpec(meta["process_label"])
        timing = timing_from_dict(meta["timing"])
        shots = int(meta["shots"])
        plan = build_plan(process_duration_us=timing.process_duration_us,
                          shots=shots, timing=timing)
        records = sorted(doc["records"], key=lambda r: r["k"])
        if [r["k"] for r in records] != list(range(plan.n_sequences)):
            raise ValidationError("records must cover k = 0..255 exactly once")
        n2 = np.array([r["n2"] for r in records], dtype=float)
        n1 = n0 = None
        if all("n1" in r for r in records):
            n1 = np.array([r["n1"] for r in records], dtype=float)
        if all("n0" in r for r in records):
            n0 = np.array([r["n0"] for r in records], dtype=float)
        return cls(plan=plan, noise=NoiseModel.from_dict(meta["noise"]),
                   process=process, seed=meta.get("seed"), n2=n2, n1=n1, n0=n0)

    def save(self, path: str) -> None:
        atomic_write_text(path, json.dumps(self.to_json_dict()))

    @classmethod
    def load(cls, path: str) -> "ShotDataset":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def generate_dataset(plan: ExperimentPlan, process: ProcessSpec,
                     noise: NoiseModel, seed: int) -> ShotDataset:
    """Run all sequences and shots of the plan; deterministic for fixed seed.

    Each sequence is one vectorized pass over its shots.  A shot reads 2
    bright ions when its readout draw u < p2, 1 when u < p2 + p1 with
    p1 = max(0, 1 - p2 - p0), and 0 otherwise.
    """
    shots = plan.shots_per_sequence
    n2 = np.zeros(plan.n_sequences)
    n1 = np.zeros(plan.n_sequences)
    for k in range(plan.n_sequences):
        _, offsets, u = sample_trajectory(plan, k, noise, seed, process)
        p2, p0 = _sequence_probabilities(
            _shot_schedule(plan, k, process, noise), offsets)
        p1 = np.maximum(0.0, 1.0 - p2 - p0)
        n2[k] = np.count_nonzero(u < p2)
        n1[k] = np.count_nonzero((u >= p2) & (u < p2 + p1))
    return ShotDataset(plan=plan, noise=noise, process=process, seed=seed,
                       n2=n2, n1=n1, n0=shots - n2 - n1)


def dataset_from_probabilities(plan: ExperimentPlan, probabilities: np.ndarray,
                               process: ProcessSpec,
                               noise: NoiseModel | None = None) -> ShotDataset:
    """Exact-expectation dataset: n2 = shots * p, no sampling."""
    probabilities = np.asarray(probabilities, dtype=float)
    shots = plan.shots_per_sequence
    return ShotDataset(plan=plan, noise=noise or NoiseModel.none(),
                       process=process, seed=None,
                       n2=probabilities * shots)


# ---------------------------------------------------------------------------
# Ramsey simulation
# ---------------------------------------------------------------------------

def ramsey_contrast_model(tau_us: np.ndarray, phase_diffusion: float,
                          fast_freq_sigma_hz: float) -> np.ndarray:
    """Analytic fringe contrast: Gaussian phase gives C = exp(-var/2).

    ``fast_freq_sigma_hz`` is the FWHM of the per-shot frequency spread, as in
    :class:`NoiseModel`.
    """
    tau_us = np.asarray(tau_us, dtype=float)
    sigma = fast_freq_sigma_hz * FWHM_TO_SIGMA
    var = (phase_diffusion ** 2) * tau_us \
        + (2.0 * math.pi * sigma * tau_us * 1e-6) ** 2
    return np.exp(-0.5 * var)


def simulate_ramsey(delays_us, noise: NoiseModel, shots: int,
                    seed: int = 0, n_phases: int = 16,
                    detection_sampling: bool = False) -> np.ndarray:
    """Monte-Carlo single-ion Ramsey contrast per delay.

    Each shot draws a frequency offset and a diffusion phase for its delay and
    contributes one point on a scanned-analysis-phase fringe; the fitted
    sinusoid amplitude (relative to the 1/2 ideal) is the contrast.  By
    default the per-shot fringe probability is averaged directly; set
    ``detection_sampling`` to add binary projection noise.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    phases = np.linspace(0.0, 2.0 * math.pi, n_phases, endpoint=False)
    out = []
    for tau in np.asarray(delays_us, dtype=float):
        if tau <= 0:
            raise ValidationError("Ramsey delays must be positive")
        dphi = (2.0 * math.pi * noise.fast_freq_gaussian_sigma_hz * tau * 1e-6
                * rng.standard_normal(shots)
                + noise.phase_diffusion_rad_per_sqrt_us * math.sqrt(tau)
                * rng.standard_normal(shots))
        phi_a = phases[np.arange(shots) % n_phases]
        p = 0.5 * (1.0 + np.cos(phi_a + dphi))
        y = (rng.random(shots) < p).astype(float) if detection_sampling else p
        design = np.column_stack([np.cos(phi_a), np.sin(phi_a),
                                  np.ones(shots)])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        out.append(min(1.0, 2.0 * math.hypot(coef[0], coef[1])))
    return np.array(out)
