import hashlib
import math

import numpy as np
import pytest

from ionqpt.ionsim import (
    FWHM_TO_SIGMA,
    NoiseModel,
    ProcessSpec,
    ShotDataset,
    composite_rotation,
    dataset_from_probabilities,
    generate_dataset,
    plan_for_process,
    ramsey_contrast_model,
    sample_trajectory,
    simulate_ramsey,
)
from ionqpt.ionsim import (
    _KIND_PULSE,
    _sequence_probabilities,
    _shot_rng,
    _shot_schedule,
)
from ionqpt.protocol import build_plan, predict_p2, rotation_unitary
from ionqpt.qmath import ValidationError


def test_noise_model_factories():
    none = NoiseModel.none()
    assert none.is_shot_deterministic
    assert none.drift_hz_per_min == 0.0
    paper = NoiseModel.paper_study()
    assert paper.phi_p_error_mrad == -145.0
    assert paper.scaling_phase_error_mrad_ion2 == 155.0
    assert paper.drift_hz_per_min == 7.0
    assert paper.fast_freq_sigma_hz == 300.0
    assert paper.phase_diffusion_rad_per_sqrt_us == 0.015
    drift = NoiseModel.drift_only()
    assert drift.is_shot_deterministic


def test_noise_model_fwhm_conversion():
    n = NoiseModel()
    assert n.fast_freq_gaussian_sigma_hz == pytest.approx(
        300.0 / (2.0 * math.sqrt(2.0 * math.log(2.0))))
    assert FWHM_TO_SIGMA == pytest.approx(0.42466, abs=1e-5)


def test_noise_model_validation_and_roundtrip():
    with pytest.raises(ValidationError):
        NoiseModel(fast_freq_sigma_hz=-1.0)
    for field in ("drift_hz_per_min", "fast_freq_sigma_hz",
                  "phase_diffusion_rad_per_sqrt_us", "phi_p_error_mrad",
                  "scaling_phase_error_mrad_ion2",
                  "pulse_area_fractional_error"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError):
                NoiseModel(**{field: bad})
    for bad in (-1.0, -1.5):
        with pytest.raises(ValidationError):
            NoiseModel(pulse_area_fractional_error=bad)
    NoiseModel(pulse_area_fractional_error=-0.5)
    n = NoiseModel.paper_study()
    assert NoiseModel.from_dict(n.to_dict()) == n


def test_process_spec():
    assert ProcessSpec.identity().duration_us == 0.0
    assert ProcessSpec.delay().duration_us == 120.0
    assert not ProcessSpec.delay().is_entangling
    ms = ProcessSpec.ms()
    assert ms.is_entangling and ms.theta == math.pi / 4
    assert ProcessSpec.ms_plus().theta == 1.04
    with pytest.raises(ValidationError):
        ProcessSpec("squeeze")
    np.testing.assert_allclose(ProcessSpec.identity().ideal_unitary(),
                               np.eye(4), atol=1e-15)
    u = ms.ideal_unitary()
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-13)
    assert ProcessSpec.from_dict(ms.to_dict()) == ms


def test_composite_rotation_noiseless_blocks():
    for theta, phi in [(math.pi, 0.0), (math.pi / 2, 0.0),
                       (math.pi / 2, math.pi / 2)]:
        u1 = composite_rotation(1, theta, phi)
        np.testing.assert_allclose(
            u1, np.kron(rotation_unitary(theta, phi), np.eye(2)), atol=1e-12)
        u2 = composite_rotation(2, theta, phi)
        np.testing.assert_allclose(
            u2, np.kron(np.eye(2), rotation_unitary(theta, phi)), atol=1e-12)


def test_composite_rotation_validation():
    with pytest.raises(ValidationError):
        composite_rotation(3, math.pi, 0.0)
    with pytest.raises(ValidationError):
        composite_rotation(1, 0.3, 0.0)


def test_composite_rotation_miscalibration_is_differential():
    noise = NoiseModel.paper_study()
    u1 = composite_rotation(1, math.pi / 2, 0.0, noise=noise)
    u2 = composite_rotation(2, math.pi / 2, 0.0, noise=noise)
    ideal1 = np.kron(rotation_unitary(math.pi / 2, 0.0), np.eye(2))
    ideal2 = np.kron(np.eye(2), rotation_unitary(math.pi / 2, 0.0))
    # both ions' blocks are perturbed, but ion 2 carries only the small
    # differential residual (-145 + 155 = +10 mrad) on its target rotation
    dev1 = np.max(np.abs(u1 - ideal1))
    dev2 = np.max(np.abs(u2 - ideal2))
    assert dev1 > 0.01
    assert 0.0 < dev2 < dev1


def test_sample_trajectory_drift_constant_within_sequence():
    plan = build_plan(shots=10)
    noise = NoiseModel.drift_only()
    freq100, _, _ = sample_trajectory(plan, 100, noise, seed=0)
    freqs = set(freq100[:5])
    assert len(freqs) == 1
    # later sequences have drifted further
    t100 = freq100[0]
    t200 = sample_trajectory(plan, 200, noise, seed=0)[0][0]
    assert t200 > t100 > 0.0


def test_sample_trajectory_jitter_varies_per_shot():
    plan = build_plan(shots=10)
    noise = NoiseModel(drift_hz_per_min=0.0, fast_freq_sigma_hz=300.0,
                       phase_diffusion_rad_per_sqrt_us=0.0)
    freq, offsets, readout = sample_trajectory(plan, 3, noise, seed=0)
    freqs = set(freq[:5])
    assert len(freqs) == 5
    # shot 4 reads its own stream: the normals, then the readout draw
    rng = _shot_rng(0, 3, 4)
    z = rng.standard_normal(offsets.shape[1] + 1)
    assert freq[4] == noise.fast_freq_gaussian_sigma_hz * z[0]
    assert readout[4] == rng.random()


def _reference_shot_unitary(sched, offsets):
    """The per-shot kron product of 4x4 event unitaries, kept as the
    reference for the batched simulator."""
    u = np.eye(4, dtype=complex)
    for i, kind in enumerate(sched.kinds):
        th = sched.thetas[i]
        if kind == _KIND_PULSE:
            g = np.kron(rotation_unitary(th, sched.phi1[i] + offsets[i]),
                        rotation_unitary(th, sched.phi2[i] + offsets[i]))
        else:
            delta = offsets[i]
            ax = np.array([[0.0, np.exp(-1j * delta)],
                           [np.exp(1j * delta), 0.0]], dtype=complex)
            g = (math.cos(th) * np.eye(4)
                 - 1j * math.sin(th) * np.kron(ax, ax))
        u = g @ u
    return u


@pytest.mark.parametrize("proc", [ProcessSpec.delay(), ProcessSpec.ms_plus()],
                         ids=lambda p: p.label)
def test_batched_probabilities_match_kron_reference(proc):
    plan = plan_for_process(proc, shots=4)
    noise = NoiseModel.paper_study()
    for k in range(plan.n_sequences):
        sched = _shot_schedule(plan, k, proc, noise)
        _, offsets, _ = sample_trajectory(plan, k, noise, 11, proc)
        p2, p0 = _sequence_probabilities(sched, offsets)
        u = np.array([_reference_shot_unitary(sched, off) for off in offsets])
        np.testing.assert_allclose(p2, np.abs(u[:, 0, 0]) ** 2,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(p0, np.abs(u[:, 3, 0]) ** 2,
                                   rtol=0, atol=1e-12)


def test_generate_dataset_deterministic_and_noiseless_corners():
    proc = ProcessSpec.identity()
    plan = plan_for_process(proc, shots=40)
    ds1 = generate_dataset(plan, proc, NoiseModel.none(), seed=42)
    ds2 = generate_dataset(plan, proc, NoiseModel.none(), seed=42)
    np.testing.assert_array_equal(ds1.n2, ds2.n2)
    ds3 = generate_dataset(plan, proc, NoiseModel.none(), seed=43)
    assert not np.array_equal(ds1.n2, ds3.n2)
    # deterministic sequences: prep I,I meas I,I always both-bright
    assert ds1.n2[0] == 40
    assert ds1.n2[16 * 5] == 0
    assert np.all(ds1.n2 + ds1.n1 + ds1.n0 == 40)


def test_noiseless_frequencies_track_forward_model():
    proc = ProcessSpec.ms()
    plan = plan_for_process(proc, shots=300)
    ds = generate_dataset(plan, proc, NoiseModel.none(), seed=0)
    p = predict_p2(proc.ideal_chi(), plan)
    # binomial sampling around the ideal probabilities
    assert np.max(np.abs(ds.frequencies - p)) < 0.12
    assert np.mean(np.abs(ds.frequencies - p)) < 0.025


def test_dataset_from_probabilities_exact():
    proc = ProcessSpec.ms()
    plan = plan_for_process(proc, shots=500)
    p = predict_p2(proc.ideal_chi(), plan)
    ds = dataset_from_probabilities(plan, p, proc)
    np.testing.assert_allclose(ds.frequencies, p, atol=1e-12)
    assert ds.seed is None


def test_dataset_validation():
    proc = ProcessSpec.identity()
    plan = plan_for_process(proc, shots=10)
    with pytest.raises(ValidationError):
        ShotDataset(plan=plan, noise=NoiseModel.none(), process=proc,
                    seed=0, n2=np.full(256, 11.0))
    with pytest.raises(ValidationError):
        ShotDataset(plan=plan, noise=NoiseModel.none(), process=proc,
                    seed=0, n2=np.zeros(255))
    for bad in (np.nan, np.inf):
        n2 = np.full(256, 5.0)
        n2[7] = bad
        with pytest.raises(ValidationError):
            ShotDataset(plan=plan, noise=NoiseModel.none(), process=proc,
                        seed=0, n2=n2)


def test_dataset_validation_n1_n0():
    proc = ProcessSpec.identity()
    plan = plan_for_process(proc, shots=10)

    def make(n1=None, n0=None, n2=4.0):
        return ShotDataset(
            plan=plan, noise=NoiseModel.none(), process=proc, seed=0,
            n2=np.full(256, n2),
            n1=None if n1 is None else np.full(256, n1),
            n0=None if n0 is None else np.full(256, n0))

    make(n1=3.0, n0=3.0)
    make(n1=3.0)
    make(n0=6.0)
    for kwargs in ({"n1": 9.0, "n0": -3.0}, {"n1": np.nan},
                   {"n0": np.inf}, {"n1": 11.0}, {"n0": -1.0},
                   {"n1": 3.0, "n0": 2.0}, {"n1": 3.0, "n0": 4.0}):
        with pytest.raises(ValidationError):
            make(**kwargs)
    with pytest.raises(ValidationError):
        ShotDataset(plan=plan, noise=NoiseModel.none(), process=proc,
                    seed=0, n2=np.full(256, 4.0), n1=np.full(255, 3.0))


def test_dataset_json_roundtrip(tmp_path):
    proc = ProcessSpec.delay()
    plan = plan_for_process(proc, shots=25)
    ds = generate_dataset(plan, proc, NoiseModel.paper_study(), seed=5)
    path = str(tmp_path / "ds.json")
    ds.save(path)
    loaded = ShotDataset.load(path)
    np.testing.assert_array_equal(loaded.n2, ds.n2)
    np.testing.assert_array_equal(loaded.n0, ds.n0)
    assert loaded.noise == ds.noise
    assert loaded.process == ds.process
    assert loaded.plan == ds.plan
    assert loaded.seed == 5


def test_ramsey_contrast_model_values():
    c = ramsey_contrast_model(np.array([120.0]), 0.015, 0.0)
    assert c[0] == pytest.approx(math.exp(-0.015 ** 2 * 120 / 2), abs=1e-12)
    # jitter term uses the FWHM -> sigma conversion
    c2 = ramsey_contrast_model(np.array([120.0]), 0.0, 300.0)
    sigma = 300.0 * FWHM_TO_SIGMA
    assert c2[0] == pytest.approx(
        math.exp(-0.5 * (2 * math.pi * sigma * 120e-6) ** 2), abs=1e-12)


def test_simulate_ramsey_no_noise_full_contrast():
    c = simulate_ramsey([50.0, 100.0], NoiseModel.none(), shots=2000, seed=0)
    np.testing.assert_allclose(c, 1.0, atol=1e-9)


def test_simulate_ramsey_matches_analytic_kernel():
    noise = NoiseModel(drift_hz_per_min=0.0)
    delays = [40.0, 120.0]
    c = simulate_ramsey(delays, noise, shots=20000, seed=1)
    model = ramsey_contrast_model(np.array(delays), 0.015, 300.0)
    np.testing.assert_allclose(c, model, atol=0.01)


def test_simulate_ramsey_rejects_nonpositive_delay():
    with pytest.raises(ValidationError):
        simulate_ramsey([0.0], NoiseModel.none(), shots=10)


# SHA-256 of the float64 bytes of (n2, n1, n0), frozen from the per-shot
# simulator that the batched one replaced: the datasets must not change.
GOLDEN_DATASETS = [
    ("identity", "paper", 30, 11,
     "a5bac674416ba4fd9224254d1c8aef2613b725ddc9dc22c78fc48f8fc8c01b26"),
    ("delay", "paper", 30, 11,
     "61de9fdd24dd038aeefc359c7f6940981e409e8510ccd990aeda4246f35347ee"),
    ("ms", "paper", 30, 11,
     "c8cb60ca412232d2b1864a94846c057e334feea40fb97173aa16cfa750cf6ac0"),
    ("ms_plus", "paper", 30, 11,
     "f84b7b82d6b8d631140fb66464ff495c1ae9108dbaa1857d08c2087980698e83"),
    ("ms", "default", 20, 3,
     "f6e3179f82b625aa6c6ff8158f27d91a5a490b42fded55650a4c514ff943241f"),
    ("ms", "none", 50, 0,
     "42f089783a3136dfccdb31fa5abad1ac8779082cac041e2760a196b2f4dabc9e"),
    ("ms", "none", 50, 2,
     "78a0dc96ffa17084b58a1af20a8aba14ae1fcbdff4b84f60a4220613db0fb7c3"),
]
_NOISES = {"paper": NoiseModel.paper_study, "default": NoiseModel,
           "none": NoiseModel.none}


@pytest.mark.parametrize("label,noise,shots,seed,digest", GOLDEN_DATASETS,
                         ids=lambda v: str(v)[:8])
def test_generate_dataset_golden_hashes(label, noise, shots, seed, digest):
    proc = getattr(ProcessSpec, label)()
    plan = plan_for_process(proc, shots=shots)
    ds = generate_dataset(plan, proc, _NOISES[noise](), seed)
    counts = np.stack([ds.n2, ds.n1, ds.n0]).astype("<f8")
    assert hashlib.sha256(counts.tobytes()).hexdigest() == digest
