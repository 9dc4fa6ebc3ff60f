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
    rng0 = np.random.default_rng(0)
    freqs = {sample_trajectory(plan, 100, s, noise, rng0).freq_offset_hz
             for s in range(5)}
    assert len(freqs) == 1
    # later sequences have drifted further
    t100 = sample_trajectory(plan, 100, 0, noise, rng0).freq_offset_hz
    t200 = sample_trajectory(plan, 200, 0, noise, rng0).freq_offset_hz
    assert t200 > t100 > 0.0


def test_sample_trajectory_jitter_varies_per_shot():
    plan = build_plan(shots=10)
    noise = NoiseModel(drift_hz_per_min=0.0, fast_freq_sigma_hz=300.0,
                       phase_diffusion_rad_per_sqrt_us=0.0)
    from ionqpt.ionsim import _shot_rng

    freqs = {sample_trajectory(plan, 3, s, noise, _shot_rng(0, 3, s)).freq_offset_hz
             for s in range(5)}
    assert len(freqs) == 5


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
