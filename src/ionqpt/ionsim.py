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

A dataset is simulated one event layout at a time.  The 256 sequences fall
into 16 event layouts, one for each choice of which of the four composite
blocks are identities; the sequences of a layout have their events in the
same places, so the amplitudes of all their shots evolve together, as
(sequence, shot) arrays.  Only the column of the shot unitary that acts on
|SS> is needed, so each shot carries the amplitudes psi[ion 1, ion 2] of
that state: a pulse is psi <- A psi B^T with batched closed-form rotations
A and B, and the gate mixes psi with its both-ions-flipped image.
``generate_dataset`` walks the layouts in one loop: a layout's shots are
drawn, walked, propagated and counted before the next layout's shots are
drawn.

Datasets are deterministic for a fixed seed under any execution order: shot s
of sequence k draws from its own stream, numpy's
PCG64(SeedSequence(seed, spawn_key=(k, s))).  The seed's part of that hash
is numpy's own SeedSequence(seed).pool; from it the seeding words of all
shots are derived together in numpy arrays.  A layout's shots then draw
together, in uint64 array operations that restate numpy's PCG64 and the
fast path of its normal sampler; the shots (about one in ten) with a normal
off that path are drawn again by numpy itself.  On a 2-vCPU x86-64 machine
a dataset costs about 2 us per shot at 30 shots and 1.2-1.5 us at 500.
"""
from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from .process import (ProcessMatrix, _is_number, atomic_write_text,
                      unitary_to_chi)
from .protocol import (
    SEQUENCES,
    ExperimentPlan,
    RotationSetting,
    TimingModel,
    _from_dict,
    build_plan,
)
from .qmath import ValidationError, matrix_exponential, two_qubit_pauli_basis

__all__ = [
    "NoiseModel",
    "ProcessSpec",
    "ShotDataset",
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
    def drift_only(cls) -> "NoiseModel":
        return cls(fast_freq_sigma_hz=0.0, phase_diffusion_rad_per_sqrt_us=0.0)

    @property
    def fast_freq_gaussian_sigma_hz(self) -> float:
        """Standard deviation of the per-shot frequency draw (FWHM/2.355)."""
        return self.fast_freq_sigma_hz * FWHM_TO_SIGMA

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseModel":
        return _from_dict(cls, d, "noise")


@dataclass(frozen=True)
class ProcessSpec:
    """The quantum process placed between preparation and tomography blocks."""

    label: str  # identity | delay | ms | ms_plus
    theta: float = math.pi / 4
    duration_us: float = 120.0

    def __post_init__(self):
        if self.label not in ("identity", "delay", "ms", "ms_plus"):
            raise ValidationError(f"unknown process label {self.label!r}")
        for name in ("theta", "duration_us"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, "
                                      f"got {getattr(self, name)}")
        if self.duration_us < 0:
            raise ValidationError(
                f"duration_us must be >= 0, got {self.duration_us}")

    @classmethod
    def identity(cls) -> "ProcessSpec":
        return cls("identity", duration_us=0.0)

    @classmethod
    def delay(cls) -> "ProcessSpec":
        return cls("delay")

    @classmethod
    def ms(cls) -> "ProcessSpec":
        return cls("ms", theta=math.pi / 4)

    @classmethod
    def ms_plus(cls, theta: float = 1.04) -> "ProcessSpec":
        return cls("ms_plus", theta=theta)

    @property
    def is_entangling(self) -> bool:
        return self.label in ("ms", "ms_plus")

    def ideal_unitary(self) -> np.ndarray:
        if self.is_entangling:
            return matrix_exponential(_XX, self.theta)
        return _I4.copy()

    def ideal_chi(self) -> ProcessMatrix:
        return unitary_to_chi(self.ideal_unitary())

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ProcessSpec":
        return _from_dict(cls, d, "process")


def plan_for_process(process: ProcessSpec, shots: int = 500) -> ExperimentPlan:
    """Canonical plan whose process window matches the given process."""
    return build_plan(process_duration_us=process.duration_us, shots=shots)


# ---------------------------------------------------------------------------
# Shot schedule and noise trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Layout:
    """The sequences whose ``ID`` blocks sit in the same places, so that
    their events line up; row r is sequence ``seqs[r]`` (static part, no
    noise draws)."""

    seqs: np.ndarray          # (n,) sequence indices, ascending
    gate: int | None          # event index of the entangling gate, if any
    times_us: np.ndarray      # (n, e) event midpoints from shot start
    thetas: np.ndarray        # (n, e) pulse areas (the gate holds its angle)
    phi1: np.ndarray          # (n, e) static phase, ion 1, miscalibrated
    phi2: np.ndarray
    cos: np.ndarray           # (n, e) cos(theta / 2)
    sin: np.ndarray           # (n, e) -i sin(theta / 2)


def _block_events(target: int, setting: RotationSetting, block_start_us: float,
                  timing: TimingModel, noise: NoiseModel) -> list[tuple]:
    """(time, theta, phi_ion1, phi_ion2) of each pulse of a composite block
    that rotates ion ``target`` by ``setting``.

    The second pulse happens in the scaled potential: the beam-wide position
    phase correction leaves ion 1 with the residual phi_p error, and ion 2
    sits at the differential pi phase relative to ion 1, shifted further by
    the potential-scaling miscalibration.
    """
    if setting is RotationSetting.ID:
        return []
    phi = setting.phi
    phi_p = noise.phi_p_error_mrad * 1e-3
    scal = noise.scaling_phase_error_mrad_ion2 * 1e-3
    half = 0.5 * setting.theta * (1.0 + noise.pulse_area_fractional_error)
    if target == 1:
        second = (phi + phi_p, phi + phi_p + math.pi + scal)
    else:
        second = (phi + math.pi + phi_p, phi + phi_p + scal)
    # Each laser pulse lasts (theta_half / pi) * pulse_pi_us; the first starts
    # the block and the second ends it.
    dur = (setting.theta / 2.0) / math.pi * timing.pulse_pi_us
    return [(block_start_us + 0.5 * dur, half, phi, phi),
            (block_start_us + timing.composite_block_us - 0.5 * dur, half,
             *second)]


@functools.cache
def _shot_schedule(plan: ExperimentPlan, process: ProcessSpec,
                   noise: NoiseModel) -> tuple[_Layout, ...]:
    """The events of all sequences, stacked per layout: one ``_Layout`` for
    each choice of which of the four blocks are ``ID``.

    A sequence's events are built in time order: a block's two pulses fit in
    it (``TimingModel`` checks pulse_pi_us <= composite_block_us) and every
    duration is nonnegative.  sin is taken over one sequence's events at a
    time and cos per pulse, so that no value depends on how the sequences
    are stacked.
    """
    t = plan.timing
    block = t.composite_block_us
    meas_start = 2.0 * block + process.duration_us
    groups: dict[tuple[bool, ...], list[int]] = {}
    for k, (prep, meas) in enumerate(SEQUENCES):
        ids = tuple(r is RotationSetting.ID for r in prep + meas)
        groups.setdefault(ids, []).append(k)
    layouts = []
    for seqs in groups.values():
        rows = []
        for k in seqs:
            prep, meas = SEQUENCES[k]
            events = (_block_events(1, prep[0], 0.0, t, noise)
                      + _block_events(2, prep[1], block, t, noise))
            gate = len(events) if process.is_entangling else None
            if process.is_entangling:
                events.append((2.0 * block + 0.5 * process.duration_us,
                               process.theta, 0.0, 0.0))
            events += _block_events(1, meas[0], meas_start, t, noise)
            events += _block_events(2, meas[1], meas_start + block, t, noise)
            rows.append(np.array(events, dtype=float).reshape(-1, 4))
        arr = np.stack(rows)
        thetas = arr[..., 1]
        layouts.append(_Layout(
            seqs=np.array(seqs), gate=gate, times_us=arr[..., 0],
            thetas=thetas, phi1=arr[..., 2], phi2=arr[..., 3],
            cos=np.vectorize(math.cos, otypes=[float])(thetas / 2),
            sin=np.stack([-1j * np.sin(row / 2) for row in thetas])))
    return tuple(layouts)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), from its pool
# on, and PCG64 seeding (numpy/random/src/pcg64/pcg64.h), restated so that
# the streams of all shots of a dataset are derived in a few array operations.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, n: int) -> list[int]:
    h = [init]
    for _ in range(n):
        h.append(h[-1] * mult & _MASK32)
    return h


# Both take Python ints or uint32 arrays (whose products wrap mod 2**32).
def _hashmix(value, h0, h1):
    value = (value ^ h0) * h1 & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _shot_streams(seed: int, shots: int) -> np.ndarray:
    """The uint64 words ``SeedSequence(seed, spawn_key=(k, s))
    .generate_state(4, np.uint64)`` that seed PCG64 for shot ``s`` of
    sequence ``k``, as an array of shape (256, shots, 4).

    The entropy words are the little-endian uint32 words of the seed, padded
    with zeros to the pool size, then k and s.  numpy's
    ``SeedSequence(seed).pool`` has the seed words mixed in; k is mixed in as
    an array over the sequences and s as an array over (sequence, shot).
    """
    pool = np.random.SeedSequence(seed).pool.tolist()
    # hashmix advances one shared constant per call: 4 to fill the pool, 12
    # to cross-mix it and 4 for each seed word past the fourth, then 4 each
    # for k and s.
    n_words = max(1, -(-seed.bit_length() // 32))
    c = _POOL_SIZE * max(_POOL_SIZE, n_words)
    h = _hash_constants(_HASH_INIT_A, _HASH_MULT_A, c + 2 * _POOL_SIZE)

    # Pool word dst takes in k, then s, with its own constants, and yields
    # state words dst and dst + 4: generate_state(4, uint64) draws 8 uint32
    # words, cycling over the pool, with the same hash as hashmix.  One pool
    # word at a time, so that only the output has the size of all streams.
    g = _hash_constants(_HASH_INIT_B, _HASH_MULT_B, 8)
    seq = np.arange(len(SEQUENCES), dtype=np.uint32)[:, None]
    shot = np.arange(shots, dtype=np.uint32)
    words = np.empty((len(SEQUENCES), shots, 2 * _POOL_SIZE), dtype="<u4")
    for dst in range(_POOL_SIZE):
        ck, cs = c + dst, c + _POOL_SIZE + dst
        mixed = _mix(pool[dst], _hashmix(seq, h[ck], h[ck + 1]))
        mixed = _mix(mixed, _hashmix(shot, h[cs], h[cs + 1]))
        for j in (dst, dst + _POOL_SIZE):
            words[:, :, j] = _hashmix(mixed, g[j], g[j + 1])
    return words.view("<u8")


# numpy's PCG64 draw (pcg64.h: step the LCG, then output XSL-RR of the new
# state) and the fast path of Generator.standard_normal's ziggurat
# (distributions.c), restated on uint64 arrays of state words.
_MULT_HI = np.uint64(_PCG64_MULT >> 64)
_MULT_LO = np.uint64(_PCG64_MULT & (2**64 - 1))
_MULT_LO_0 = np.uint64(_PCG64_MULT & _MASK32)  # the 32-bit halves of _MULT_LO
_MULT_LO_1 = np.uint64(_PCG64_MULT >> 32 & _MASK32)


def _pcg64_state(state: int, inc: int) -> dict:
    return {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
            "state": {"state": state, "inc": inc}}


@functools.cache
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat widths (signed) and fast-path bounds, indexed by the
    low 9 bits of an output: idx, then the sign bit.

    ``wi[idx]`` is read back from numpy, as the normal drawn from the state
    whose next output is idx with magnitude 1: that state steps to high word
    0 and low word the output, so it is (output - inc) / MULT mod 2**128.
    numpy's bound ``ki[idx]`` is floor(2**52 wi[idx - 1] / wi[idx]), with
    wi[255] / wi[0] for the base strip idx 0 and 0 for idx 1; each is
    lowered by 64, so that round-off never lifts it above numpy's.
    """
    rng = np.random.Generator(np.random.PCG64())
    inverse = pow(_PCG64_MULT, -1, 1 << 128)
    wi = np.empty(256)
    for idx in range(256):
        rng.bit_generator.state = _pcg64_state(
            ((1 << 9 | idx) - 1) * inverse & _MASK128, 1)
        wi[idx] = rng.standard_normal()
    ratio = np.concatenate([[wi[255] / wi[0], 0.0], wi[1:-1] / wi[2:]])
    ki = np.maximum(np.floor(ratio * 2.0**52) - 64, 0).astype(np.uint64)
    return np.concatenate([wi, -wi]), np.tile(ki, 2)


def _stream_draws(words: np.ndarray, rows: np.ndarray, n_normals: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``n_normals`` standard normals, then one uniform, from each PCG64
    stream seeded with ``words[rows]``, bit for bit as numpy draws them:
    arrays ``(len(rows), shots, n_normals)`` and ``(len(rows), shots)``.

    The 128-bit states and increments are held as high and low uint64 words
    over the (row, shot) grid and stepped once per draw; the high word of a
    product comes from 32-bit partial products.  A normal is read as
    numpy's ziggurat reads it, and a uniform is (output >> 11) 2**-53.  A
    stream with a normal off the fast path is replayed by ``rng``, set to
    its state: the only per-stream Python.
    """
    wi, ki = _ziggurat_tables()
    shape = (len(rows), words.shape[1])
    z, u = np.empty(shape + (n_normals,)), np.empty(shape)
    a, b, c, d = (np.empty(shape, dtype=np.uint64) for _ in range(4))
    width, carry = np.empty(shape), np.empty(shape, dtype=bool)
    fast = np.ones(shape, dtype=bool)
    # Seeding: inc = 2 i + 1, state = (words' state + inc) stepped once.
    hi, lo, inc_hi, inc_lo = (words[rows, :, i] for i in range(4))
    inc_hi <<= 1
    np.right_shift(inc_lo, 63, out=a)
    inc_hi |= a
    inc_lo <<= 1
    inc_lo |= 1
    lo += inc_lo
    hi += inc_hi
    np.less(lo, inc_lo, out=carry)
    hi += carry.view(np.uint8)
    for j in range(-1, n_normals + 1):
        # b = the high word of lo MULT_LO (Hacker's Delight, mulhu)
        np.bitwise_and(lo, _MASK32, out=a)
        np.right_shift(lo, 32, out=b)
        np.multiply(a, _MULT_LO_0, out=c)
        c >>= 32
        np.multiply(b, _MULT_LO_0, out=d)
        d += c
        a *= _MULT_LO_1
        np.bitwise_and(d, _MASK32, out=c)
        c += a
        b *= _MULT_LO_1
        d >>= 32
        c >>= 32
        b += d
        b += c
        # state = state MULT + inc mod 2**128
        hi *= _MULT_LO
        np.multiply(lo, _MULT_HI, out=a)
        hi += a
        hi += b
        hi += inc_hi
        lo *= _MULT_LO
        lo += inc_lo
        np.less(lo, inc_lo, out=carry)
        hi += carry.view(np.uint8)
        if j < 0:
            continue  # the seeding step
        # a = (hi ^ lo) rotated right by hi >> 58; numpy shifts by 64 to 0
        np.bitwise_xor(hi, lo, out=a)
        np.right_shift(hi, 58, out=d)
        np.right_shift(a, d, out=c)
        np.subtract(64, d, out=d)
        a <<= d
        a |= c
        if j == n_normals:
            a >>= 11
            np.multiply(a, 2.0**-53, out=u)
            break
        np.bitwise_and(a, 0x1FF, out=b)
        np.take(wi, b, out=width, mode="clip")
        np.take(ki, b, out=c, mode="clip")
        a >>= 9
        a &= 2**52 - 1
        np.multiply(a, width, out=z[:, :, j])
        np.less(a, c, out=carry)
        fast &= carry
    slow_r, slow_s = np.nonzero(~fast)
    for r, s, (s_hi, s_lo, i_hi, i_lo) in zip(
            slow_r.tolist(), slow_s.tolist(),
            words[rows[slow_r], slow_s].tolist()):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        rng.bit_generator.state = _pcg64_state(
            ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc)
        rng.standard_normal(out=z[r, s])
        u[r, s] = rng.random()
    return z, u


def _layout_draws(lay: _Layout, plan: ExperimentPlan, noise: NoiseModel,
                  words: np.ndarray, rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frequency offsets, laser-phase walks and readout draws of the
    shots of one event layout.

    Shot ``s`` of sequence ``k`` draws from its own stream, numpy's
    ``PCG64(SeedSequence(seed, spawn_key=(k, s)))``, whose seeding words are
    ``words[k, s]`` (``_shot_streams``): first ``n_events + 1`` standard
    normals (the fast frequency offset, then one phase-diffusion increment
    per event), then one uniform readout draw.  ``_stream_draws`` draws
    them for all shots of the layout at once; ``rng`` replays the few
    shots that leave the ziggurat's fast path.  The slow drift
    contribution is evaluated at the sequence start time and is therefore
    constant across all shots of a sequence; the fast Gaussian offset is
    redrawn per shot.  Phase-diffusion increments scale with the square
    root of the interval between consecutive events.

    Returns ``(freq_offset_hz, phase_offsets, readout)`` of shapes
    ``(n, shots)``, ``(n, shots, n_events)`` and ``(n, shots)`` for the
    layout's ``n`` sequences; ``phase_offsets`` is the accrued laser-phase
    deviation (rad) at each event.
    """
    # z[:, :, 0] is the frequency draw; z[:, :, 1:] becomes the phase walk.
    z, readout = _stream_draws(words, lay.seqs, lay.times_us.shape[1] + 1,
                               rng)
    t_min = plan.start_time_s(lay.seqs) / 60.0
    freq = (noise.drift_hz_per_min * t_min[:, None]
            + noise.fast_freq_gaussian_sigma_hz * z[:, :, 0])
    dt = np.diff(lay.times_us, axis=1, prepend=0.0)
    # In place, to hold no second copy of the layout's draws.
    offsets = z[:, :, 1:]
    offsets *= noise.phase_diffusion_rad_per_sqrt_us
    offsets *= np.sqrt(dt)[:, None, :]
    np.cumsum(offsets, axis=2, out=offsets)
    offsets += (2.0 * math.pi * freq[:, :, None]
                * lay.times_us[:, None, :] * 1e-6)
    return freq, offsets, readout


def _rotate(u: np.ndarray, v: np.ndarray, c: float | np.ndarray,
            x: np.ndarray):
    """Apply [[c, x], [-x*, c]] to the amplitude pairs (u, v) of one ion."""
    return c * u + x * v, c * v - x.conj() * u


def _sequence_probabilities(lay: _Layout, offsets: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
    """(p2, p0) per (sequence, shot) of one layout: both-bright and
    both-dark probabilities from |SS>.

    ``pjk`` holds, per shot, the amplitude of ion 1 in j and ion 2 in k.  A
    pulse R(theta, phi1) x R(theta, phi2) is psi <- A psi B^T: A mixes the
    ion-1 pairs (p0k, p1k), B the ion-2 pairs (pj0, pj1).  The gate
    cos(theta) I - i sin(theta) (a x a), with a = [[0, e^-id], [e^id, 0]]
    following the accrued phase d, mixes pjk with p(1-j)(1-k), with the
    phases e^-2id, 1, 1, e^2id.
    """
    n, shots, n_events = offsets.shape
    p00 = np.ones((n, shots), dtype=complex)
    p01 = p10 = p11 = np.zeros((n, shots), dtype=complex)
    for i in range(n_events):
        d = offsets[:, :, i]
        if i == lay.gate:
            theta = lay.thetas[0, i]
            c, ms = math.cos(theta), -1j * math.sin(theta)
            phase = np.exp(-2j * d)
            p00, p11 = (c * p00 + ms * phase * p11,
                        c * p11 + ms * phase.conj() * p00)
            p01, p10 = c * p01 + ms * p10, c * p10 + ms * p01
        else:
            c, s = lay.cos[:, i, None], lay.sin[:, i, None]
            x1 = s * np.exp(-1j * (lay.phi1[:, i, None] + d))
            x2 = s * np.exp(-1j * (lay.phi2[:, i, None] + d))
            p00, p10 = _rotate(p00, p10, c, x1)
            p01, p11 = _rotate(p01, p11, c, x1)
            p00, p01 = _rotate(p00, p01, c, x2)
            p10, p11 = _rotate(p10, p11, c, x2)
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
        window_us = self.plan.timing.process_duration_us
        if window_us != self.process.duration_us:
            raise ValidationError(
                f"process window mismatch: timing.process_duration_us is "
                f"{window_us} us, but the {self.process.label} process's "
                f"duration_us is {self.process.duration_us} us")
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
        others = [n for n in (self.n1, self.n0) if n is not None]
        if len(others) == 2 and np.any(self.n0 + self.n1 + self.n2 != shots):
            raise ValidationError("counts must satisfy n0 + n1 + n2 == shots")
        if len(others) == 1 and np.any(self.n2 + others[0] > shots):
            raise ValidationError("counts must sum to at most shots")

    @property
    def frequencies(self) -> np.ndarray:
        return self.n2 / self.plan.shots_per_sequence

    def to_json_dict(self) -> dict:
        def _num(x: float):
            return int(x) if float(x).is_integer() else float(x)

        records = []
        for i in range(self.plan.n_sequences):
            rec = {"k": i, "n2": _num(self.n2[i])}
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
                "timing": asdict(self.plan.timing),
                "shots": self.plan.shots_per_sequence,
            },
            "records": records,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ShotDataset":
        meta = doc["meta"]
        if "process" not in meta:
            raise ValidationError("meta.process is missing")
        process = ProcessSpec.from_dict(meta["process"])
        timing = _from_dict(TimingModel, meta["timing"], "timing")
        shots = meta["shots"]
        if not _is_number(shots) or not float(shots).is_integer():
            raise ValidationError(f"meta.shots must be an integer, got {shots!r}")
        shots = int(shots)
        plan = ExperimentPlan(shots, timing)
        records = sorted(doc["records"], key=lambda r: r["k"])
        if [r["k"] for r in records] != list(range(plan.n_sequences)):
            raise ValidationError("records must cover k = 0..255 exactly once")
        counts = {}
        for name in ("n2", "n1", "n0"):
            if name == "n2" or all(name in r for r in records):
                values = [r[name] for r in records]
                if not all(map(_is_number, values)):
                    raise ValidationError(f"every {name} must be a JSON number")
                counts[name] = np.array(values, dtype=float)
        return cls(plan=plan, noise=NoiseModel.from_dict(meta["noise"]),
                   process=process, seed=meta.get("seed"), **counts)

    def save(self, path: str) -> None:
        atomic_write_text(path, json.dumps(self.to_json_dict()))

    @classmethod
    def load(cls, path: str) -> "ShotDataset":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def _phase_overflow(noise: NoiseModel) -> ValidationError:
    """The error for a finite noise model whose laser phase overflows.  The
    phase grows with the drift times the run length and with the frequency
    spread times the delay, so whether it overflows depends on the plan."""
    return ValidationError(f"the laser phase is not finite under noise model "
                           f"{noise.to_dict()}")


def generate_dataset(plan: ExperimentPlan, process: ProcessSpec,
                     noise: NoiseModel, seed: int) -> ShotDataset:
    """Run all sequences and shots of the plan; deterministic for fixed seed.

    One loop over the event layouts of ``_shot_schedule`` draws a layout's
    shots (``_layout_draws``), propagates them (``_sequence_probabilities``)
    and counts them before the next layout is drawn; at 500 shots the
    draws are about 40% of the time, two thirds of that in the replays of
    shots off the ziggurat's fast path.  A shot reads 2 bright ions when
    its readout draw u < p2, 1 when u < p2 + p1 with p1 = max(0, 1 - p2 -
    p0), and 0 otherwise.  A noise model whose laser phase overflows on
    this plan raises ``ValidationError``.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    # Built first, so that ShotDataset checks the plan before any shot is
    # simulated; the counts are filled in place.
    shots = plan.shots_per_sequence
    ds = ShotDataset(plan=plan, noise=noise, process=process, seed=seed,
                     n2=np.zeros(plan.n_sequences),
                     n1=np.zeros(plan.n_sequences),
                     n0=np.full(plan.n_sequences, float(shots)))
    words = _shot_streams(seed, shots)
    rng = np.random.Generator(np.random.PCG64())  # for the replays
    for lay in _shot_schedule(plan, process, noise):
        with np.errstate(over="ignore", invalid="ignore"):
            _, offsets, u = _layout_draws(lay, plan, noise, words, rng)
            p2, p0 = _sequence_probabilities(lay, offsets)
        # A phase that overflowed has made its shot's amplitudes NaN.
        if not (np.isfinite(p2).all() and np.isfinite(p0).all()):
            raise _phase_overflow(noise)
        p1 = np.maximum(0.0, 1.0 - p2 - p0)
        ds.n2[lay.seqs] = np.count_nonzero(u < p2, axis=1)
        ds.n1[lay.seqs] = np.count_nonzero((u >= p2) & (u < p2 + p1), axis=1)
    ds.n0[:] = shots - ds.n2 - ds.n1
    return ds


def dataset_from_probabilities(plan: ExperimentPlan, probabilities: np.ndarray,
                               process: ProcessSpec) -> ShotDataset:
    """Exact-expectation dataset: n2 = shots * p, no sampling and no noise."""
    probabilities = np.asarray(probabilities, dtype=float)
    return ShotDataset(plan=plan, noise=NoiseModel.none(), process=process,
                       seed=None, n2=probabilities * plan.shots_per_sequence)


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
                    seed: int = 0) -> np.ndarray:
    """Monte-Carlo single-ion Ramsey contrast per delay.

    Each shot draws a frequency offset and a diffusion phase for its delay and
    contributes one point on a fringe scanned over 16 analysis phases; the
    fitted sinusoid amplitude (relative to the 1/2 ideal) is the contrast.
    The per-shot fringe probability is averaged directly, without binary
    projection noise.  A noise model whose phase overflows at a delay raises
    ``ValidationError``.
    """
    delays_us = np.asarray(delays_us, dtype=float)
    if not np.all(np.isfinite(delays_us) & (delays_us > 0)):
        raise ValidationError("Ramsey delays must be finite and positive")
    phases = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    if shots < len(phases):
        raise ValidationError(f"Ramsey shots must be >= {len(phases)}, one per "
                              f"analysis phase, got {shots}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = []
    for tau in delays_us:
        with np.errstate(over="ignore", invalid="ignore"):
            dphi = (2.0 * math.pi * noise.fast_freq_gaussian_sigma_hz * tau
                    * 1e-6 * rng.standard_normal(shots)
                    + noise.phase_diffusion_rad_per_sqrt_us * math.sqrt(tau)
                    * rng.standard_normal(shots))
        if not np.isfinite(dphi).all():
            raise _phase_overflow(noise)
        phi_a = phases[np.arange(shots) % len(phases)]
        p = 0.5 * (1.0 + np.cos(phi_a + dphi))
        design = np.column_stack([np.cos(phi_a), np.sin(phi_a),
                                  np.ones(shots)])
        coef, *_ = np.linalg.lstsq(design, p, rcond=None)
        out.append(min(1.0, 2.0 * math.hypot(coef[0], coef[1])))
    return np.array(out)
