import numpy as np
import pytest

from ionqpt.ionsim import (
    NoiseModel,
    ProcessSpec,
    dataset_from_probabilities,
    generate_dataset,
    plan_for_process,
)
from ionqpt.process import (
    ProcessMatrix,
    chi_to_choi,
    process_fidelity,
    validate_cptp,
)
from ionqpt.protocol import (
    ExperimentPlan,
    build_plan,
    effect_matrix,
    predict_p2,
    sequence_operators,
)
from ionqpt.qmath import ValidationError, two_qubit_pauli_basis
from ionqpt.recon import (
    IdentifiabilityError,
    MleConfig,
    _mle_choi,
    bootstrap_fidelity,
    bootstrap_statistic,
    linear_inversion,
    max_threads,
    mle_reconstruct,
)


@pytest.fixture(scope="module")
def ms_exact_dataset():
    proc = ProcessSpec.ms()
    plan = plan_for_process(proc, shots=500)
    p = predict_p2(proc.ideal_chi(), plan)
    return dataset_from_probabilities(plan, p, proc)


@pytest.fixture(scope="module")
def ms_sampled_dataset():
    proc = ProcessSpec.ms()
    plan = plan_for_process(proc, shots=150)
    return generate_dataset(plan, proc, NoiseModel.none(), seed=0)


def test_mle_config_validation():
    with pytest.raises(ValidationError):
        MleConfig(log_likelihood_tolerance=0.0)
    with pytest.raises(ValidationError):
        MleConfig(dilution=1.5)
    with pytest.raises(ValidationError):
        MleConfig(max_iterations=0)
    for eps in (0.0, -1.0, 0.5, 0.7, float("nan")):
        with pytest.raises(ValidationError):
            MleConfig(epsilon_probability_floor=eps)


def test_linear_inversion_exact(ms_exact_dataset):
    chi, diag = linear_inversion(ms_exact_dataset)
    assert diag.physical
    assert diag.raw_trace == pytest.approx(1.0, abs=1e-8)
    ideal = ms_exact_dataset.process.ideal_chi()
    np.testing.assert_allclose(chi.chi, ideal.chi, atol=1e-8)


def test_linear_inversion_noisy_is_unphysical(ms_sampled_dataset):
    chi, diag = linear_inversion(ms_sampled_dataset)
    assert diag.min_eigenvalue < 0.0
    assert not diag.physical


def test_linear_inversion_rank_deficient_plan():
    full = build_plan(shots=10)
    # repeat one (prep, meas) combination for all 256 slots: rank collapses
    base = full.sequences[0]
    seqs = tuple(
        type(base)(k=s.k, prep=base.prep, meas=base.meas,
                   start_time_s=s.start_time_s)
        for s in full.sequences)
    plan = ExperimentPlan(sequences=seqs, shots_per_sequence=10,
                          timing=full.timing)
    ds = dataset_from_probabilities(plan, np.full(256, 0.5),
                                    ProcessSpec.identity())
    with pytest.raises(IdentifiabilityError):
        linear_inversion(ds)


def test_mle_exact_probabilities(ms_exact_dataset):
    chi, result = mle_reconstruct(ms_exact_dataset)
    assert result.converged
    f = process_fidelity(chi, ms_exact_dataset.process.ideal_chi()).fidelity
    assert f >= 1.0 - 1e-6
    assert validate_cptp(chi).is_physical()


def test_mle_sampled_dataset(ms_sampled_dataset):
    chi, result = mle_reconstruct(ms_sampled_dataset)
    assert result.converged
    f = process_fidelity(chi, ms_sampled_dataset.process.ideal_chi()).fidelity
    assert f >= 0.97
    assert validate_cptp(chi).is_physical()


def test_mle_likelihood_monotone(ms_sampled_dataset):
    _, result = mle_reconstruct(ms_sampled_dataset)
    assert np.all(np.diff(result.log_likelihoods) >= -1e-9)
    assert result.final_log_likelihood == result.log_likelihoods[-1]


def test_mle_iteration_budget(ms_sampled_dataset):
    _, result = mle_reconstruct(ms_sampled_dataset,
                                MleConfig(max_iterations=5))
    assert not result.converged
    assert result.iterations == 5


def test_bootstrap_determinism(ms_sampled_dataset):
    # a loose MLE budget keeps this about stream determinism, not convergence
    config = MleConfig(max_iterations=200, log_likelihood_tolerance=1e-6)
    stat = lambda chi: float(chi.chi[0, 0].real)
    a = bootstrap_statistic(ms_sampled_dataset, config, stat, replicas=3, seed=11)
    b = bootstrap_statistic(ms_sampled_dataset, config, stat, replicas=3, seed=11)
    np.testing.assert_array_equal(a, b)
    c = bootstrap_statistic(ms_sampled_dataset, config, stat, replicas=3, seed=12)
    assert not np.array_equal(a, c)


def test_bootstrap_counts_unconverged_replicas(ms_sampled_dataset):
    config = MleConfig(max_iterations=5)
    results = []
    samples = bootstrap_statistic(ms_sampled_dataset, config,
                                  lambda chi: 0.0, replicas=3, seed=1,
                                  results=results)
    assert len(samples) == 3
    assert [r.iterations for r in results] == [5, 5, 5]
    report = bootstrap_fidelity(ms_sampled_dataset, config,
                                ms_sampled_dataset.process.ideal_unitary(),
                                replicas=2, seed=1)
    assert report.unconverged == 2
    assert len(report.fidelity_samples) == 2


def test_bootstrap_needs_two_replicas(ms_sampled_dataset):
    with pytest.raises(ValidationError):
        bootstrap_statistic(ms_sampled_dataset, None, lambda c: 0.0,
                            replicas=1, seed=0)


def test_max_threads_env(monkeypatch):
    monkeypatch.delenv("QPT_THREADS", raising=False)
    assert max_threads() == 1
    monkeypatch.setenv("QPT_THREADS", "4")
    assert max_threads() == 4
    monkeypatch.setenv("QPT_THREADS", "junk")
    assert max_threads() == 1
    monkeypatch.setenv("QPT_THREADS", "-2")
    assert max_threads() == 1


def _random_cptp_chi(rng) -> ProcessMatrix:
    """chi of the channel whose four Kraus operators are the blocks of a
    random 16x4 isometry."""
    g = rng.normal(size=(16, 4)) + 1j * rng.normal(size=(16, 4))
    iso, _ = np.linalg.qr(g)
    kraus = iso.reshape(4, 4, 4)
    pauli = two_qubit_pauli_basis()
    # K_i = sum_m c_im P_m; chi[m, n] = sum_i conj(c_im) c_in, the convention
    # of unitary_to_chi.
    c = np.einsum("mba,iab->im", pauli, kraus) / 4.0
    chi = ProcessMatrix(c.conj().T @ c)
    assert validate_cptp(chi).is_physical()
    return chi


def test_effect_matrix_matches_design_tensor():
    plan = build_plan(shots=10)
    forward, rho_t = effect_matrix(plan)
    assert not forward.flags.writeable and not rho_t.flags.writeable
    rho, _ = sequence_operators(plan)
    np.testing.assert_array_equal(rho_t.reshape(-1, 4, 4),
                                  rho.transpose(0, 2, 1))
    rng = np.random.default_rng(2024)
    for _ in range(5):
        chi = _random_cptp_chi(rng)
        choi = np.ascontiguousarray(chi_to_choi(chi.chi))
        np.testing.assert_allclose(forward @ choi.view(float).ravel(),
                                   predict_p2(chi, plan), rtol=0, atol=1e-12)


def _einsum_mle_choi(dataset, config, steps):
    """The iteration as first written: the effect stacks of both outcomes
    built with np.kron and contracted by einsum, run for a fixed number of
    steps with no stop rule."""
    plan = dataset.plan
    rho, mop = sequence_operators(plan)
    eye4 = np.eye(4, dtype=complex)
    eye16 = np.eye(16, dtype=complex)
    e_bright = np.stack([np.kron(r.T, m) for r, m in zip(rho, mop)])
    e_other = np.stack([np.kron(r.T, eye4 - m) for r, m in zip(rho, mop)])
    shots = plan.shots_per_sequence
    n2 = dataset.n2
    n_other = shots - n2
    total = float(shots * plan.n_sequences)
    eps = config.epsilon_probability_floor
    d = config.dilution
    j = eye16 / 4.0
    log_ls = []
    for _ in range(steps):
        p = np.einsum("ab,kba->k", j, e_bright).real
        p = np.clip(p, eps, 1.0 - eps)
        log_ls.append(float(n2 @ np.log(p) + n_other @ np.log1p(-p)))
        r = (np.einsum("k,kab->ab", n2 / p, e_bright)
             + np.einsum("k,kab->ab", n_other / (1.0 - p), e_other))
        r_d = (1.0 - d) * eye16 + d * (4.0 / total) * r
        g = r_d @ j @ r_d
        t = np.einsum("iaja->ij", g.reshape(4, 4, 4, 4))
        w, v = np.linalg.eigh(0.5 * (t + t.conj().T))
        w = np.clip(w, 1e-14 * max(w[-1], 1e-300), None)
        lam_inv = np.kron((v / np.sqrt(w)) @ v.conj().T, eye4)
        j = lam_inv @ g @ lam_inv
        j = 0.5 * (j + j.conj().T)
    return j, log_ls


def test_mle_iteration_matches_einsum_reference(ms_sampled_dataset):
    # a tolerance no step can meet makes both loops run exactly 200 steps
    config = MleConfig(max_iterations=200, log_likelihood_tolerance=1e-300)
    j, log_ls, converged = _mle_choi(ms_sampled_dataset, config)
    j_ref, log_ls_ref = _einsum_mle_choi(ms_sampled_dataset, config, 200)
    assert not converged
    assert len(log_ls) == 200
    np.testing.assert_allclose(j, j_ref, rtol=0, atol=1e-9)
    np.testing.assert_allclose(log_ls, log_ls_ref, rtol=1e-12)
