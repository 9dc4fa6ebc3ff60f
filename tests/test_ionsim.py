import hashlib
import math

import numpy as np
import pytest

from ionqpt import ionsim
from ionqpt.ionsim import (
    FWHM_TO_SIGMA,
    NoiseModel,
    ProcessSpec,
    ShotDataset,
    dataset_from_probabilities,
    generate_dataset,
    plan_for_process,
    ramsey_contrast_model,
    simulate_ramsey,
)
from ionqpt.ionsim import (
    _block_events,
    _layout_draws,
    _sequence_probabilities,
    _shot_schedule,
    _shot_streams,
    _stream_draws,
    _ziggurat_tables,
)
from ionqpt.protocol import (
    RotationSetting,
    TimingModel,
    build_plan,
    predict_p2,
    rotation_unitary,
)
from ionqpt.qmath import ValidationError


def test_noise_model_factories():
    none = NoiseModel.none()
    assert none.drift_hz_per_min == 0.0
    paper = NoiseModel.paper_study()
    assert paper.phi_p_error_mrad == -145.0
    assert paper.scaling_phase_error_mrad_ion2 == 155.0
    assert paper.drift_hz_per_min == 7.0
    assert paper.fast_freq_sigma_hz == 300.0
    assert paper.phase_diffusion_rad_per_sqrt_us == 0.015
    drift = NoiseModel.drift_only()


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
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValidationError):
            ProcessSpec.ms_plus(theta=bad)
        with pytest.raises(ValidationError):
            ProcessSpec("delay", duration_us=bad)
    for label, bad in (("ms", -120.0), ("delay", -200.0)):
        with pytest.raises(ValidationError, match="duration_us"):
            ProcessSpec(label, duration_us=bad)
    assert ProcessSpec("ms", duration_us=0.0).duration_us == 0.0
    np.testing.assert_allclose(ProcessSpec.identity().ideal_unitary(),
                               np.eye(4), atol=1e-15)
    u = ms.ideal_unitary()
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-13)
    assert ProcessSpec.from_dict(ms.to_dict()) == ms


def _block_unitary(target_ion, setting, noise=None):
    """Two-qubit unitary of one composite block, built with np.kron from the
    simulator's per-pulse parameters."""
    u = np.eye(4, dtype=complex)
    for _, half, p1, p2 in _block_events(target_ion, setting, 0.0,
                                         TimingModel(),
                                         noise or NoiseModel.none()):
        u = np.kron(rotation_unitary(half, p1), rotation_unitary(half, p2)) @ u
    return u


def test_composite_rotation_noiseless_blocks():
    for setting in (RotationSetting.XPI, RotationSetting.XHALF,
                    RotationSetting.YHALF):
        theta, phi = setting.theta, setting.phi
        u1 = _block_unitary(1, setting)
        np.testing.assert_allclose(
            u1, np.kron(rotation_unitary(theta, phi), np.eye(2)), atol=1e-12)
        u2 = _block_unitary(2, setting)
        np.testing.assert_allclose(
            u2, np.kron(np.eye(2), rotation_unitary(theta, phi)), atol=1e-12)


def test_composite_rotation_miscalibration_is_differential():
    noise = NoiseModel.paper_study()
    u1 = _block_unitary(1, RotationSetting.XHALF, noise=noise)
    u2 = _block_unitary(2, RotationSetting.XHALF, noise=noise)
    ideal1 = np.kron(rotation_unitary(math.pi / 2, 0.0), np.eye(2))
    ideal2 = np.kron(np.eye(2), rotation_unitary(math.pi / 2, 0.0))
    # both ions' blocks are perturbed, but ion 2 carries only the small
    # differential residual (-145 + 155 = +10 mrad) on its target rotation
    dev1 = np.max(np.abs(u1 - ideal1))
    dev2 = np.max(np.abs(u2 - ideal2))
    assert dev1 > 0.01
    assert 0.0 < dev2 < dev1


@pytest.mark.parametrize("pulse_pi_us", [0.0, 8.0, 25.0])
def test_shot_schedule_is_time_ordered(pulse_pi_us):
    for proc in (ProcessSpec.identity(), ProcessSpec("ms", duration_us=0.0),
                 ProcessSpec.ms()):
        plan = build_plan(proc.duration_us, shots=2,
                          timing=TimingModel(pulse_pi_us=pulse_pi_us))
        layouts = _shot_schedule(plan, proc, NoiseModel.none())
        assert len(layouts) == 16
        np.testing.assert_array_equal(
            np.sort(np.concatenate([lay.seqs for lay in layouts])),
            np.arange(256))
        for lay in layouts:
            assert np.all(np.diff(lay.times_us, axis=1) >= 0), proc.label


def test_shot_schedule_follows_the_timing():
    proc = ProcessSpec.ms()
    slow, fast = (build_plan(proc.duration_us, shots=2,
                             timing=TimingModel(pulse_pi_us=t))
                  for t in (8.0, 16.0))
    a = _shot_schedule(slow, proc, NoiseModel.none())
    assert _shot_schedule(slow, proc, NoiseModel.none()) is a
    b = _shot_schedule(fast, proc, NoiseModel.none())
    times = [np.concatenate([lay.times_us.ravel() for lay in sched])
             for sched in (a, b)]
    assert not np.array_equal(*times)


def _all_layout_draws(plan, noise, seed, process):
    """(layout, (freq, offsets, readout)) for every layout of a dataset, drawn
    as generate_dataset draws them."""
    words = _shot_streams(seed, plan.shots_per_sequence)
    rng = np.random.Generator(np.random.PCG64())
    for lay in _shot_schedule(plan, process, noise):
        yield lay, _layout_draws(lay, plan, noise, words, rng)


def _sequence_trajectory(plan, k, noise, seed, process=None):
    """(freq, offsets, readout) of sequence k, picked out of the layout
    that _layout_draws returns it in."""
    process = process or ProcessSpec.identity()
    for lay, draws in _all_layout_draws(plan, noise, seed, process):
        if k in lay.seqs:
            r = int(np.flatnonzero(lay.seqs == k)[0])
            return tuple(a[r] for a in draws)


def test_layout_draws_drift_constant_within_sequence():
    plan = build_plan(shots=10)
    noise = NoiseModel.drift_only()
    freq100, _, _ = _sequence_trajectory(plan, 100, noise, seed=0)
    freqs = set(freq100[:5])
    assert len(freqs) == 1
    # later sequences have drifted further
    t100 = freq100[0]
    t200 = _sequence_trajectory(plan, 200, noise, seed=0)[0][0]
    assert t200 > t100 > 0.0


def test_layout_draws_jitter_varies_per_shot():
    plan = build_plan(shots=10)
    noise = NoiseModel(drift_hz_per_min=0.0, fast_freq_sigma_hz=300.0,
                       phase_diffusion_rad_per_sqrt_us=0.0)
    freq, offsets, readout = _sequence_trajectory(plan, 3, noise, seed=0)
    freqs = set(freq[:5])
    assert len(freqs) == 5
    # shot 4 reads its own stream, whose PCG64 state the simulator forms
    # from the seeding words: the normals, then the readout draw
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(0, spawn_key=(3, 4))))
    z = rng.standard_normal(offsets.shape[1] + 1)
    assert freq[4] == noise.fast_freq_gaussian_sigma_hz * z[0]
    assert readout[4] == rng.random()


@pytest.mark.parametrize("n_words", range(1, 8))
def test_shot_streams_match_numpy_seedsequence(n_words):
    rng = np.random.default_rng(n_words)
    words = rng.integers(1, 2**32, size=n_words).tolist()
    seeds = [sum(w << 32 * i for i, w in enumerate(words))]
    if n_words == 1:
        seeds += [0, 2**32 - 1]
    # every (k, s) of a 3-shot dataset
    shots = 3
    for seed in seeds:
        words = _shot_streams(seed, shots)
        assert words.shape == (256, shots, 4) and words.dtype == np.uint64
        for k in range(256):
            for s in range(shots):
                ref = np.random.SeedSequence(
                    seed, spawn_key=(k, s)).generate_state(4, np.uint64)
                np.testing.assert_array_equal(words[k, s], ref,
                                              err_msg=str((seed, k, s)))


class _Words(np.random.bit_generator.ISpawnableSeedSequence):
    """Hands fixed seeding words to numpy's own PCG64 seeding."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, dtype) == (4, np.uint64)
        return self.words

    def spawn(self, n_children):
        raise NotImplementedError


_MULT = ionsim._PCG64_MULT
_MULT_INV = pow(_MULT, -1, 1 << 128)
_M128 = (1 << 128) - 1


def _crafted_words(output, draw, inc):
    """Seeding words of a stream whose draw ``draw`` (0 = first) outputs
    ``output``: the state after that draw's step has high word 0 and low
    word ``output``, and each step back is (state - inc) / MULT."""
    state = output
    for _ in range(draw + 2):  # the draws, then seeding's second step
        state = (state - inc) * _MULT_INV & _M128
    seed = (state - inc) & _M128  # seeding steps 0 to inc, then adds seed
    i = inc >> 1
    return [seed >> 64, seed & 2**64 - 1, i >> 64, i & 2**64 - 1]


def _numpy_draws(words, n_normals):
    rng = np.random.Generator(np.random.PCG64(_Words(words)))
    return rng.standard_normal(n_normals), rng.random()


def _outputs_drawn(output, inc=1):
    """(standard normal, outputs consumed) of numpy's generator whose next
    output is ``output``."""
    bg = np.random.PCG64()
    bg.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                "state": {"state": (output - inc) * _MULT_INV & _M128,
                          "inc": inc}}
    x = np.random.Generator(bg).standard_normal()
    state = output
    for consumed in range(1, 100):
        if state == bg.state["state"]["state"]:
            return x, consumed
        state = (state * _MULT + inc) & _M128
    raise AssertionError("numpy drew 100 or more outputs for one normal")


@pytest.mark.parametrize("shots", [1, 7, 30])
def test_stream_draws_match_numpy(shots):
    rng = np.random.default_rng(shots)
    n_normals = 9
    words = rng.integers(0, 2**64, size=(5, shots, 4), dtype=np.uint64)
    rows = np.array([3, 0, 4])
    _, ki = _ziggurat_tables()
    # Normals off the fast path, numpy's or this table's, at (row, shot,
    # draw): the tail (idx 0), idx 1 (always off), a magnitude at the
    # table's bound and one just below it.
    crafted = [
        (3, 0, 0, (2**52 - 1) << 9 | 0),
        (0, shots - 1, 3, 12345 << 9 | 1),
        (4, shots // 2, 5, int(ki[100]) << 9 | 1 << 8 | 100),
        (3, shots - 1, n_normals - 1, int(ki[200] - 1) << 9 | 200),
    ]
    for row, shot, draw, output in crafted:
        inc = int(rng.integers(0, 2**62)) << 66 | 2 * draw + 1
        words[row, shot] = _crafted_words(output, draw, inc)
    tail, consumed = _outputs_drawn(crafted[0][3])
    assert consumed > 1 and abs(tail) > 3.6
    assert _outputs_drawn(crafted[1][3])[1] > 1
    z, u = _stream_draws(words, rows, n_normals,
                         np.random.Generator(np.random.PCG64()))
    assert z.shape == (3, shots, n_normals) and u.shape == (3, shots)
    for r, k in enumerate(rows):
        for s in range(shots):
            ref_z, ref_u = _numpy_draws(words[k, s], n_normals)
            np.testing.assert_array_equal(z[r, s], ref_z, err_msg=str((k, s)))
            assert u[r, s] == ref_u, (k, s)
    for row, shot, draw, output in crafted:
        # the crafted draw is where it was meant to be
        x = _outputs_drawn(output)[0]
        if output & 0xFF > 1:
            assert z[list(rows).index(row), shot, draw] == x


def test_ziggurat_tables_match_numpy():
    wi, ki = _ziggurat_tables()
    assert wi.shape == ki.shape == (512,)
    np.testing.assert_array_equal(wi[256:], -wi[:256])
    np.testing.assert_array_equal(ki[256:], ki[:256])
    # idx 1 never takes the fast path, so its width is never used
    assert ki[1] == 0 and np.all(np.delete(ki[:256], 1) > 2**51)
    rng = np.random.default_rng(29)
    for idx in range(256):
        if idx == 1:
            continue
        bound = int(ki[idx])
        # Every width is numpy's fast-path output, and every bound is at
        # most numpy's: a magnitude just below it uses one output.
        for rabs in (1, int(rng.integers(1, bound)), bound - 1):
            for sign in (0, 1):
                x, consumed = _outputs_drawn(rabs << 9 | sign << 8 | idx)
                assert consumed == 1, (idx, rabs)
                assert x == rabs * wi[sign << 8 | idx], (idx, rabs, sign)


def test_dataset_peak_memory_is_bounded():
    # One 500-shot paper-noise identity dataset peaked at 13.8 MB with the
    # per-shot draw loop; the array draws must hold no further per-shot copy.
    import tracemalloc

    proc = ProcessSpec.identity()
    plan = plan_for_process(proc, shots=500)
    generate_dataset(plan, proc, NoiseModel.paper_study(), 0)  # warm caches
    tracemalloc.start()
    try:
        generate_dataset(plan, proc, NoiseModel.paper_study(), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14.5e6


def _reference_shot_unitary(lay, r, offsets):
    """The per-shot kron product of 4x4 event unitaries of row r of a
    layout, kept as the reference for the batched simulator."""
    u = np.eye(4, dtype=complex)
    for i, th in enumerate(lay.thetas[r]):
        if i != lay.gate:
            g = np.kron(rotation_unitary(th, lay.phi1[r, i] + offsets[i]),
                        rotation_unitary(th, lay.phi2[r, i] + offsets[i]))
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
    layouts = _shot_schedule(plan, proc, noise)
    # all 16 layouts; without a gate, the all-ID layout has no events
    assert len(layouts) == 16
    assert min(lay.times_us.shape[1] for lay in layouts) == (
        1 if proc.is_entangling else 0)
    for lay, (_, offsets, _) in _all_layout_draws(plan, noise, 11, proc):
        p2, p0 = _sequence_probabilities(lay, offsets)
        u = np.array([[_reference_shot_unitary(lay, r, off) for off in row]
                      for r, row in enumerate(offsets)])
        np.testing.assert_allclose(p2, np.abs(u[..., 0, 0]) ** 2,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(p0, np.abs(u[..., 3, 0]) ** 2,
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
    with pytest.raises(ValidationError):
        generate_dataset(plan, proc, NoiseModel.none(), seed=-1)


def test_generate_dataset_rejects_plan_for_another_process(monkeypatch):
    # build_plan's process window is 0 us; the delay process lasts 120 us, so
    # its meta block and shot period would both be wrong.
    with pytest.raises(ValidationError, match="process window"):
        generate_dataset(build_plan(shots=20), ProcessSpec.delay(),
                         NoiseModel.none(), seed=0)
    # The window is checked before any shot is simulated.
    def no_streams(seed, shots):
        raise AssertionError("simulated a plan for another process")

    monkeypatch.setattr(ionsim, "_shot_streams", no_streams)
    with pytest.raises(ValidationError, match="process window"):
        generate_dataset(build_plan(shots=500), ProcessSpec.delay(),
                         NoiseModel.paper_study(), seed=0)
    # ShotDataset checks the window, so an exact-expectation dataset fails too.
    plan = build_plan(shots=10)
    p = np.full(plan.n_sequences, 0.5)
    with pytest.raises(ValidationError, match="process window"):
        dataset_from_probabilities(plan, p, ProcessSpec.delay())


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


@pytest.mark.parametrize("name", ["n1", "n0"])
def test_dataset_with_one_of_n1_n0_caps_the_sum(name):
    proc = ProcessSpec.identity()
    plan = plan_for_process(proc, shots=10)
    ShotDataset(plan=plan, noise=NoiseModel.none(), process=proc, seed=0,
                n2=np.full(256, 2.0), **{name: np.full(256, 8.0)})
    n2 = np.full(256, 2.0)
    n2[17] = 8.0
    with pytest.raises(ValidationError, match="at most shots"):
        ShotDataset(plan=plan, noise=NoiseModel.none(), process=proc, seed=0,
                    n2=n2, **{name: np.full(256, 8.0)})


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


def test_exact_dataset_json_roundtrip(tmp_path):
    proc = ProcessSpec.ms()
    plan = plan_for_process(proc, shots=60)
    probs = predict_p2(proc.ideal_chi(), plan)
    ds = dataset_from_probabilities(plan, probs, proc)
    assert not np.all(ds.n2 == np.round(ds.n2))
    path = str(tmp_path / "exact.json")
    ds.save(path)
    np.testing.assert_array_equal(ShotDataset.load(path).n2, ds.n2)


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
    for delay in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="delays"):
            simulate_ramsey([20.0, delay], NoiseModel.none(), shots=10)
    # the fit needs one shot per analysis phase
    for shots in (0, -3, 15):
        with pytest.raises(ValidationError, match="shots"):
            simulate_ramsey([20.0], NoiseModel.none(), shots=shots)


# SHA-256 of the float64 bytes of (n2, n1, n0): the datasets must not change.
# The rows at 30 to 50 shots were frozen from the per-shot simulator, the
# rows at 1 and 7 shots from the per-sequence one, and the 500-shot row from
# the per-shot draw loop before the draws became array operations.
GOLDEN_DATASETS = [
    ("ms", "paper", 1, 11,
     "bbbb015861a96f6f5a20a705ab2bddbdf828388ee0f41da6ac1c32dd8e52f6c2"),
    ("ms_plus", "paper", 7, 11,
     "5e989dd1a70d81486fe2842bd89b6ae2252ddd4e8b13c45afb2440306621fb96"),
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
    ("ms", "paper", 20, 2**32 + 5,
     "8f7b2e4cf31649a333a986a2642bb8e1779d7e6ff63d1065ba12002d80256848"),
    ("ms", "paper", 20, 2**130 + 1,
     "24a8003dbead6eeea864a89e2138ab8bf5352a0eb814c54417683651d8d7d707"),
    # The paper's 500 shots per sequence (criterion 3's dataset).
    ("identity", "paper", 500, 11,
     "bacaf3b16bced469ee21623967c10e80fc98d0c0916721afac67db3262179c74"),
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
