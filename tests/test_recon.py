from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ionqpt.ionsim import (
    NoiseModel,
    ProcessSpec,
    ShotDataset,
    dataset_from_probabilities,
    generate_dataset,
    plan_for_process,
)
from ionqpt.process import (
    ProcessMatrix,
    apply_process,
    chi_to_choi,
    process_fidelity,
    validate_cptp,
)
from ionqpt.protocol import (
    SEQUENCES,
    adjoint_p2,
    build_plan,
    design_factors,
    design_rank,
    forward_p2,
    meas_operator,
    predict_p2,
    prep_state,
)
from ionqpt.qmath import ValidationError, two_qubit_pauli_basis
from ionqpt import recon
from ionqpt.recon import (
    GAP_TOLERANCE,
    _PROBABILITY_FLOOR,
    _factor_gradient,
    _factor_state,
    _likelihood,
    bootstrap_fidelity,
    bootstrap_statistic,
    linear_inversion,
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


def test_mle_config_validation(ms_exact_dataset, monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved with a budget below 1")

    def no_draw(*args, **kwargs):
        raise AssertionError("drew a replica with a budget below 1")

    monkeypatch.setattr(recon, "_mle", no_solve)
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for budget in (0, -1):
        with pytest.raises(ValidationError, match="max_iterations"):
            mle_reconstruct(ms_exact_dataset, budget)
        with pytest.raises(ValidationError, match="max_iterations"):
            bootstrap_statistic(ms_exact_dataset, budget, lambda c: 0.0,
                                replicas=2, seed=0)


def test_linear_inversion_exact(ms_exact_dataset):
    chi, diag = linear_inversion(ms_exact_dataset)
    assert diag.is_physical()
    assert diag.raw_trace == pytest.approx(1.0, abs=1e-8)
    ideal = ms_exact_dataset.process.ideal_chi()
    np.testing.assert_allclose(chi.chi, ideal.chi, atol=1e-8)


def test_linear_inversion_noisy_is_unphysical(ms_sampled_dataset):
    chi, diag = linear_inversion(ms_sampled_dataset)
    assert diag.min_eigenvalue < 0.0
    assert not diag.is_physical()


def test_mle_exact_probabilities(ms_exact_dataset):
    chi, result = mle_reconstruct(ms_exact_dataset)
    assert result.converged
    f = process_fidelity(chi, ms_exact_dataset.process.ideal_chi())
    assert f >= 1.0 - 1e-6
    assert validate_cptp(chi).is_physical()


def test_mle_sampled_dataset(ms_sampled_dataset):
    chi, result = mle_reconstruct(ms_sampled_dataset)
    assert result.converged
    f = process_fidelity(chi, ms_sampled_dataset.process.ideal_chi())
    assert f >= 0.97
    assert validate_cptp(chi).is_physical()


def test_mle_likelihood_monotone(ms_sampled_dataset):
    _, result = mle_reconstruct(ms_sampled_dataset)
    assert np.all(np.diff(result.log_likelihoods) >= -1e-9)
    assert result.final_log_likelihood == result.log_likelihoods[-1]


def test_mle_iteration_budget(ms_sampled_dataset):
    _, result = mle_reconstruct(ms_sampled_dataset, 5)
    assert not result.converged
    assert result.stop_reason == "budget"
    assert result.gap > GAP_TOLERANCE
    assert result.iterations == 5


@st.composite
def count_vectors(draw):
    shots = draw(st.integers(1, 40))
    return shots, draw(arrays(float, 256, elements=st.integers(0, shots)))


# Derandomized, so every run draws the same examples, and bounded, so that
# the test adds about a second to the suite.
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(count_vectors(), st.sampled_from([1, 7, 40]))
def test_mle_output_is_cptp_on_random_counts(counts, budget):
    shots, n2 = counts
    proc = ProcessSpec.ms()
    ds = ShotDataset(plan=plan_for_process(proc, shots=shots),
                     noise=NoiseModel.none(), process=proc, seed=None, n2=n2)
    chi, _ = mle_reconstruct(ds, budget)
    diag = validate_cptp(chi)
    assert diag.is_physical(), diag


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_duality_gap_bounds_the_likelihood_still_to_gain(seed):
    # uniformly random counts, which no channel fits closely
    proc = ProcessSpec.ms()
    plan = plan_for_process(proc, shots=20)
    rng = np.random.default_rng(seed)
    ds = ShotDataset(plan=plan, noise=NoiseModel.none(), process=proc,
                     seed=None, n2=rng.integers(0, 21, 256).astype(float))
    with mock.patch.object(recon, "GAP_TOLERANCE", 1e-6):
        _, long = mle_reconstruct(ds)
    assert long.stop_reason == "gap"
    assert -1e-9 <= long.gap <= 1e-6
    for budget in (1, 10, 100, 300):
        _, short = mle_reconstruct(ds, budget)
        assert short.gap >= -1e-9
        assert short.gap >= (long.final_log_likelihood
                             - short.final_log_likelihood - 1e-9)


# The same bound on arbitrary counts, derandomized and bounded as above,
# to about two seconds.  The reference solve stops at a gap of 1e-6 or after
# 2000 iterations; either way its log L is at most log L*, which is all the
# bound needs.
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(count_vectors(),
       st.sets(st.sampled_from([1, 7, 10, 40, 100, 300]), min_size=1))
def test_duality_gap_bounds_the_likelihood_on_random_counts(counts, budgets):
    shots, n2 = counts
    proc = ProcessSpec.ms()
    ds = ShotDataset(plan=plan_for_process(proc, shots=shots),
                     noise=NoiseModel.none(), process=proc, seed=None, n2=n2)
    with mock.patch.object(recon, "GAP_TOLERANCE", 1e-6):
        _, long = mle_reconstruct(ds, 2000)
    assert long.gap >= -1e-9
    assert long.converged == (long.gap <= 1e-6)
    assert np.diff(long.log_likelihoods).min(initial=0.0) >= -1e-9
    for budget in sorted(budgets):
        _, short = mle_reconstruct(ds, budget)
        assert short.gap >= -1e-9
        assert short.gap >= (long.final_log_likelihood
                             - short.final_log_likelihood - 1e-9)


def test_noiseless_seed2_certifies_within_budget():
    # the solve the |delta log L| rule left running to its budget
    proc = ProcessSpec.ms()
    ds = generate_dataset(plan_for_process(proc, shots=50), proc,
                          NoiseModel.none(), seed=2)
    _, result = mle_reconstruct(ds, 5000)
    assert result.stop_reason == "gap"
    assert result.converged
    assert result.iterations < 5000
    assert result.gap <= GAP_TOLERANCE


def _paper_dataset(proc):
    return generate_dataset(plan_for_process(proc, shots=500), proc,
                            NoiseModel.paper_study(), seed=11)


def test_factor_gradient_matches_central_differences():
    # T = I/2 has Lambda = I, whose eigenvalues are all equal; the others are
    # random factors at random counts.
    rng = np.random.default_rng(31)
    factors = [np.eye(16, dtype=complex) / 2.0]
    factors += [rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
                for _ in range(2)]
    shots = 30
    for t in factors:
        n2 = rng.integers(0, shots + 1, 256).astype(float)

        def objective(x):
            state = _factor_state(x, n2, shots - n2)
            return (-state[2] / shots, -2.0 / shots
                    * _factor_gradient(*state).view(float).ravel())

        x = t.view(float).ravel()
        _, analytic = objective(x)
        h = 1e-6
        step = h * np.eye(x.size)
        numeric = np.array([(objective(x + e)[0] - objective(x - e)[0])
                            / (2.0 * h) for e in step])
        assert (np.linalg.norm(numeric - analytic)
                <= 1e-6 * np.linalg.norm(analytic))


def test_paper_identity_bootstrap_certifies_every_replica():
    # criterion 10's 500-shot bootstrap: replicas 2, 7 and 11 end at
    # rank-deficient optima, where the Lambda_0 gap is loose
    proc = ProcessSpec.identity()
    report = bootstrap_fidelity(_paper_dataset(proc), None,
                                proc.ideal_unitary(), replicas=12, seed=9)
    assert report.unconverged == 0


@pytest.mark.parametrize("proc", [ProcessSpec.identity(), ProcessSpec.delay()],
                         ids=["identity", "delay"])
def test_factor_solve_agrees_with_fixed_point_solve(proc, monkeypatch):
    import scipy.optimize

    ds = _paper_dataset(proc)
    _, fast = mle_reconstruct(ds)

    def no_gradient(*state):
        raise AssertionError("the finisher computed the factor gradient")

    # with no quasi-Newton step the fixed-point finisher does the whole solve;
    # it reads J, R and K of each iterate's state, never the factor gradient
    monkeypatch.setattr(scipy.optimize, "minimize", lambda *a, **k: None)
    monkeypatch.setattr(recon, "_factor_gradient", no_gradient)
    _, fixed = mle_reconstruct(ds)
    assert fast.converged and fixed.converged
    assert fixed.iterations > fast.iterations
    assert all(np.diff(r.log_likelihoods).min() >= -1e-9
               for r in (fast, fixed))
    # both are within their gap of the same optimum
    assert (abs(fast.final_log_likelihood - fixed.final_log_likelihood)
            <= GAP_TOLERANCE)


def test_bootstrap_determinism(ms_sampled_dataset, monkeypatch):
    # a loose MLE stop keeps this about stream determinism, not convergence
    monkeypatch.setattr(recon, "GAP_TOLERANCE", 1.0)
    stat = lambda chi: float(chi.chi[0, 0].real)
    a = bootstrap_statistic(ms_sampled_dataset, 200, stat, replicas=3, seed=11)
    b = bootstrap_statistic(ms_sampled_dataset, 200, stat, replicas=3, seed=11)
    np.testing.assert_array_equal(a, b)
    c = bootstrap_statistic(ms_sampled_dataset, 200, stat, replicas=3, seed=12)
    assert not np.array_equal(a, c)


def test_bootstrap_counts_unconverged_replicas(ms_sampled_dataset):
    results = []
    samples = bootstrap_statistic(ms_sampled_dataset, 5,
                                  lambda chi: 0.0, replicas=3, seed=1,
                                  results=results)
    assert len(samples) == 3
    assert [r.iterations for r in results] == [5, 5, 5]
    report = bootstrap_fidelity(ms_sampled_dataset, 5,
                                ms_sampled_dataset.process.ideal_unitary(),
                                replicas=2, seed=1)
    assert report.unconverged == 2
    assert len(report.fidelity_samples) == 2


def test_bootstrap_needs_two_replicas(ms_sampled_dataset):
    with pytest.raises(ValidationError):
        bootstrap_statistic(ms_sampled_dataset, None, lambda c: 0.0,
                            replicas=1, seed=0)


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


def sequence_operators() -> tuple[np.ndarray, np.ndarray]:
    """Stacked prep states and measurement operators, each (256, 4, 4)."""
    rho = np.stack([prep_state(prep) for prep, _ in SEQUENCES])
    mop = np.stack([meas_operator(meas) for _, meas in SEQUENCES])
    return rho, mop


def test_predict_p2_matches_chi_space_oracle():
    # The oracle applies chi in the Pauli basis, never forming a Choi matrix:
    # p_k = Tr(M_k E(rho_k)).
    plan = build_plan(shots=10)
    a, b = design_factors()
    assert not a.flags.writeable and not b.flags.writeable
    rho, mop = sequence_operators()
    np.testing.assert_array_equal(a.reshape(-1, 4, 4), rho[::16])
    np.testing.assert_array_equal(b.reshape(-1, 4, 4),
                                  mop[:16].transpose(0, 2, 1))
    rng = np.random.default_rng(2024)
    for _ in range(5):
        chi = _random_cptp_chi(rng)
        oracle = [np.trace(m @ apply_process(chi, r)).real
                  for r, m in zip(rho, mop)]
        np.testing.assert_allclose(predict_p2(chi, plan), oracle,
                                   rtol=0, atol=1e-12)


def test_inversion_map_rank_and_exact_recovery():
    plan = build_plan(shots=10)
    assert design_rank(plan) == 256
    a, b = design_factors()
    assert np.linalg.matrix_rank(a) == np.linalg.matrix_rank(b) == 16
    assert not a.flags.writeable and not b.flags.writeable
    rng = np.random.default_rng(7)
    for _ in range(5):
        chi = _random_cptp_chi(rng)
        ds = dataset_from_probabilities(plan, predict_p2(chi, plan),
                                        ProcessSpec.identity())
        recovered, diag = linear_inversion(ds)
        assert diag.raw_trace == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(recovered.chi, chi.chi, rtol=0, atol=1e-10)


def test_kronecker_maps_match_einsum_effects():
    # The effects built one by one as rho_k^T (x) M_k, as the forward model
    # was first written; the factored maps must agree with them.
    rho, mop = sequence_operators()
    effects = np.einsum("kba,kcd->kacbd", rho, mop).reshape(256, 16, 16)
    rng = np.random.default_rng(11)
    for _ in range(5):
        j = chi_to_choi(_random_cptp_chi(rng).chi)
        np.testing.assert_allclose(forward_p2(j),
                                   np.einsum("ab,kba->k", j, effects).real,
                                   rtol=0, atol=1e-13)
        w = rng.normal(size=256)
        np.testing.assert_allclose(adjoint_p2(w),
                                   np.einsum("k,kab->ab", w, effects),
                                   rtol=0, atol=1e-12)


def _einsum_mle_choi(dataset, steps):
    """The iteration as first written: the effect stacks of both outcomes
    built with np.kron and contracted by einsum, run as the plain
    R_hat J R_hat step for a fixed number of steps with no stop rule.
    Returns each iterate with its p, log L and R."""
    plan = dataset.plan
    rho, mop = sequence_operators()
    eye4 = np.eye(4, dtype=complex)
    eye16 = np.eye(16, dtype=complex)
    e_bright = np.stack([np.kron(r.T, m) for r, m in zip(rho, mop)])
    e_other = np.stack([np.kron(r.T, eye4 - m) for r, m in zip(rho, mop)])
    shots = plan.shots_per_sequence
    n2 = dataset.n2
    n_other = shots - n2
    total = float(shots * plan.n_sequences)
    eps = _PROBABILITY_FLOOR
    j = eye16 / 4.0
    trace = []
    for _ in range(steps):
        p = np.einsum("ab,kba->k", j, e_bright).real
        p = np.clip(p, eps, 1.0 - eps)
        log_l = float(n2 @ np.log(p) + n_other @ np.log1p(-p))
        r = (np.einsum("k,kab->ab", n2 / p, e_bright)
             + np.einsum("k,kab->ab", n_other / (1.0 - p), e_other))
        trace.append((j, p, log_l, r))
        r_hat = (4.0 / total) * r
        g = r_hat @ j @ r_hat
        t = np.einsum("iaja->ij", g.reshape(4, 4, 4, 4))
        w, v = np.linalg.eigh(0.5 * (t + t.conj().T))
        w = np.clip(w, 1e-14 * max(w[-1], 1e-300), None)
        lam_inv = np.kron((v / np.sqrt(w)) @ v.conj().T, eye4)
        j = lam_inv @ g @ lam_inv
        j = 0.5 * (j + j.conj().T)
    return trace


def test_mle_iteration_matches_einsum_reference(ms_sampled_dataset,
                                                monkeypatch):
    # every iterate of 200 reference steps: the kernel's p, log L and R at
    # it; and the log L of every step of the finisher alone, which takes
    # the same steps through the factor map
    import scipy.optimize

    trace = _einsum_mle_choi(ms_sampled_dataset, 200)
    n2 = ms_sampled_dataset.n2
    scale = 4.0 / (150.0 * 256)
    for j_ref, p_ref, log_l_ref, r_ref in trace:
        p, log_l, r = _likelihood(np.ascontiguousarray(j_ref), n2, 150 - n2)
        np.testing.assert_allclose(p, p_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(log_l, log_l_ref, rtol=1e-12)
        np.testing.assert_allclose(r * scale, r_ref * scale, rtol=0, atol=1e-9)
    monkeypatch.setattr(scipy.optimize, "minimize", lambda *a, **k: None)
    monkeypatch.setattr(recon, "GAP_TOLERANCE", 0.0)
    _, fixed = mle_reconstruct(ms_sampled_dataset, 200)
    np.testing.assert_allclose(fixed.log_likelihoods,
                               [t[2] for t in trace], rtol=1e-12)
