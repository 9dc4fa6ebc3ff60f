import math

import numpy as np
import pytest

from ionqpt import analysis
from ionqpt.analysis import (
    FitError,
    MotionalOccupation,
    TruncationError,
    bell_populations,
    bell_state_fidelity,
    displaced_thermal_populations,
    fit_heating,
    fit_over_rotation,
    fit_ramsey_model,
    lamb_dicke_eta,
    read_series_csv,
    sideband_rabi_signal,
    simulate_parity_scan,
    thermal_gate_error,
    write_series_csv,
)
from ionqpt.ionsim import NoiseModel, ProcessSpec, ramsey_contrast_model, simulate_ramsey
from ionqpt.process import ProcessMatrix, unitary_to_chi
from ionqpt.qmath import ValidationError, matrix_exponential, two_qubit_pauli_basis

_XX = two_qubit_pauli_basis()[5]


def over_rotated_chi(theta):
    return unitary_to_chi(matrix_exponential(_XX, theta))


# ---------------------------------------------------------------------------
# Bell-state tomography
# ---------------------------------------------------------------------------

def test_parity_scan_ideal_ms_exact():
    scan = simulate_parity_scan(ProcessSpec.ms().ideal_chi())
    assert scan.p_amp == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(scan.p2 + scan.p1 + scan.p0, 1.0, atol=1e-9)
    p0, p2 = bell_populations(ProcessSpec.ms().ideal_chi())
    assert p0 == pytest.approx(0.5, abs=1e-12)
    assert p2 == pytest.approx(0.5, abs=1e-12)
    assert bell_state_fidelity(p0, p2, scan) == pytest.approx(1.0, abs=1e-9)


def test_parity_scan_sampled_is_deterministic():
    chi = ProcessSpec.ms().ideal_chi()
    a = simulate_parity_scan(chi, shots=2400, seed=3)
    b = simulate_parity_scan(chi, shots=2400, seed=3)
    np.testing.assert_array_equal(a.p2, b.p2)
    assert a.p_amp == b.p_amp


def test_sampling_clips_round_off_populations():
    # identity plus a -5e-9 weight on XX: validated (PSD to -1e-8), and it
    # sends |SS> to population 1 + 5e-9 there and -5e-9 in |DD>
    c = np.zeros((16, 16), dtype=complex)
    c[0, 0], c[5, 5] = 1.0 + 5e-9, -5e-9
    chi = ProcessMatrix(c)
    p0, p2 = bell_populations(chi, shots=100, seed=0)
    assert (p0, p2) == (0.0, 1.0)
    scan = simulate_parity_scan(chi, shots=2400, seed=0)
    np.testing.assert_allclose(scan.p2 + scan.p1 + scan.p0, 1.0, atol=1e-12)


def test_bell_fidelity_over_rotation_oracle():
    theta = 1.04
    chi = over_rotated_chi(theta)
    scan = simulate_parity_scan(chi)
    p0, p2 = bell_populations(chi)
    f = bell_state_fidelity(p0, p2, scan)
    assert f == pytest.approx(0.5 * (1.0 + math.sin(2 * theta)), abs=1e-6)


def test_bell_fidelity_validation_and_monotonicity():
    with pytest.raises(ValidationError):
        bell_state_fidelity(-0.1, 0.5, 1.0)
    with pytest.raises(ValidationError):
        bell_state_fidelity(0.5, 1.2, 1.0)
    f_lo = bell_state_fidelity(0.4, 0.4, 0.8)
    assert bell_state_fidelity(0.5, 0.4, 0.8) > f_lo
    assert bell_state_fidelity(0.4, 0.5, 0.8) > f_lo
    assert bell_state_fidelity(0.4, 0.4, 0.9) > f_lo


# ---------------------------------------------------------------------------
# Over-rotation fit
# ---------------------------------------------------------------------------

def _depolarized(theta):
    return ProcessMatrix(0.9 * over_rotated_chi(theta).chi + 0.1 * np.eye(16) / 16)


_ANGLES = (0.1, 0.45, math.pi / 4, 1.04, 1.4)


@pytest.mark.parametrize("chi,theta,residual", [
    *[(over_rotated_chi(t), t, 0.0) for t in _ANGLES],
    # white noise keeps the angle and lowers F_p to 0.9 + 0.1/16
    (_depolarized(1.04), 1.04, 0.1 - 0.1 / 16),
    # past pi/2 the fit stops at the end point, F_p = sin^2(1.7)
    (over_rotated_chi(1.7), math.pi / 2, math.cos(1.7) ** 2),
], ids=[*map(str, _ANGLES), "depolarized-1.04", "1.7"])
def test_fit_over_rotation_exact_on_unitaries(chi, theta, residual):
    fit = fit_over_rotation(chi)
    assert abs(fit.theta - theta) < 1e-12
    assert abs(fit.residual_error - residual) < 1e-12


# ---------------------------------------------------------------------------
# Ramsey model fit
# ---------------------------------------------------------------------------

def test_fit_ramsey_roundtrip_on_analytic_curve():
    delays = np.array([10.0, 25.0, 50.0, 100.0, 200.0, 400.0, 800.0])
    contrasts = ramsey_contrast_model(delays, 0.015, 300.0)
    fit = fit_ramsey_model(delays, contrasts)
    assert fit.phase_diffusion_rad_per_sqrt_us == pytest.approx(0.015, rel=1e-4)
    assert fit.fast_freq_sigma_hz == pytest.approx(300.0, rel=1e-3)
    assert fit.residual < 1e-8


def test_fit_ramsey_on_simulated_contrasts():
    delays = [20.0, 60.0, 120.0, 240.0, 480.0]
    contrasts = simulate_ramsey(delays, NoiseModel(drift_hz_per_min=0.0),
                                shots=20000, seed=2)
    fit = fit_ramsey_model(delays, contrasts)
    assert abs(fit.phase_diffusion_rad_per_sqrt_us - 0.015) / 0.015 < 0.15
    assert abs(fit.fast_freq_sigma_hz - 300.0) / 300.0 < 0.15


def test_fit_ramsey_flat_input_fails():
    with pytest.raises(FitError):
        fit_ramsey_model([10.0, 20.0, 40.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValidationError):
        fit_ramsey_model([10.0, 20.0], [1.0, 0.9])


# ---------------------------------------------------------------------------
# Displaced thermal populations
# ---------------------------------------------------------------------------

def test_ground_state_populations():
    p = displaced_thermal_populations(0.0, 0.0)
    assert p[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(p[1:] < 1e-12)


def test_coherent_limit_is_poisson():
    p = displaced_thermal_populations(0.0, 2.0)
    poisson = np.array([math.exp(-2.0) * 2.0 ** k / math.factorial(k)
                        for k in range(20)])
    np.testing.assert_allclose(p[:20], poisson, atol=1e-8)


def test_mean_occupation_is_additive():
    for n_th, n_coh in [(5.5, 0.4), (3.5, 0.1), (0.2, 3.0)]:
        p = displaced_thermal_populations(n_th, n_coh)
        mean = float(np.arange(len(p)) @ p)
        assert abs(mean - (n_th + n_coh)) / (n_th + n_coh) < 1e-3
        assert p.sum() == pytest.approx(1.0, abs=1e-6)
        assert p.min() > -1e-12


def test_truncation_error_raised():
    # mean 1000 fits below 4096 states, but its thermal tail does not
    with pytest.raises(TruncationError, match="at 4096 Fock states"):
        displaced_thermal_populations(1000.0, 0.0)


def test_populations_validation():
    with pytest.raises(ValidationError):
        displaced_thermal_populations(-1.0, 0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            displaced_thermal_populations(bad, 0.0)
        with pytest.raises(ValidationError):
            displaced_thermal_populations(1.0, bad)


def _expm_populations(n_th, n_coh, dim):
    # Test-only reference: displace the truncated thermal state by the matrix
    # exponential of alpha (a^dag - a).
    import scipy.linalg

    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    disp = scipy.linalg.expm(math.sqrt(n_coh) * (a.T - a))
    r = n_th / (1.0 + n_th)
    return disp ** 2 @ ((1.0 - r) * r ** np.arange(dim))


@pytest.mark.parametrize("n_th,n_coh", [
    (5.5, 0.4), (3.5, 0.1), (32.0, 22.0), (0.0, 2.0), (40.0, 25.0),
    (1e-4, 3.0),
])
def test_closed_form_matches_matrix_exponential(n_th, n_coh):
    # The reference is exact for n well below its truncation, so compare
    # the first 384 of 768 populations.
    ref = _expm_populations(n_th, n_coh, 768)[:384]
    pops = displaced_thermal_populations(n_th, n_coh, tail_tol=1e-6)
    n = min(len(pops), 384)
    np.testing.assert_allclose(pops[:n], ref[:n], rtol=0, atol=1e-12)
    assert np.all(ref[n:] < 1e-6)


def _log_sum_populations(n_th, n_coh, ns):
    # Test-only reference for large displacements: L_n(-x) = sum_k C(n, k)
    # x^k / k! has only positive terms, so it is summed in log space.
    from scipy.special import gammaln, logsumexp

    if n_th == 0.0:
        return np.exp(ns * math.log(n_coh) - n_coh - gammaln(ns + 1.0))
    a = 1.0 + n_th
    r, x = n_th / a, n_coh / (n_th * a)
    out = []
    for n in ns:
        k = np.arange(n + 1.0)
        terms = (gammaln(n + 1.0) - gammaln(n - k + 1.0)
                 - 2.0 * gammaln(k + 1.0) + k * math.log(x))
        out.append(math.log(1.0 - r) - n_coh / a + n * math.log(r)
                   + logsumexp(terms))
    return np.exp(out)


@pytest.mark.parametrize("n_th,n_coh", [(0.0, 800.0), (2.0, 3000.0),
                                        (0.0, 3500.0)])
def test_closed_form_holds_at_large_displacement(n_th, n_coh):
    # q_n grows like e^(n_coh / (1 + n_th)), past the float range here.
    pops = displaced_thermal_populations(n_th, n_coh)
    assert np.all(np.isfinite(pops))
    assert pops.sum() == pytest.approx(1.0, abs=1e-6)
    ns = np.arange(0, len(pops), 7)
    ref = _log_sum_populations(n_th, n_coh, ns)
    np.testing.assert_allclose(pops[ns], ref, rtol=1e-9, atol=1e-13)


def test_truncation_grows_by_the_rounding_step():
    # A first size that misses the tolerance grows to the next size on
    # _auto_dim's grid, not to twice the size, and never below the first.
    grown = 0
    for n_th in range(0, 51, 2):
        for n_coh in range(0, 51, 2):
            ref = displaced_thermal_populations(n_th, n_coh, tail_tol=1e-9)
            for tol in (1e-3, 1e-4, 1e-6):
                first = analysis._auto_dim(n_th, n_coh, tol)
                pops = displaced_thermal_populations(n_th, n_coh, tail_tol=tol)
                # The tail at size d is 1 - sum(p[:d - 2]); the sizes used to
                # double from the first one until it met the tolerance.
                doubled = first
                while 1.0 - ref[:doubled - 2].sum() > tol:
                    doubled *= 2
                assert 1.0 - pops[:-2].sum() <= tol
                assert first <= len(pops) <= doubled
                assert len(pops) == first or len(pops) < doubled
                assert all(size % analysis._grid_step(size) == 0
                           for size in (first, len(pops)))
                grown += len(pops) > first
    assert grown == 91


def test_mean_beyond_largest_truncation_raises():
    for n_th, n_coh in [(0.0, 5000.0), (0.0, 1e300), (1e300, 0.0)]:
        with pytest.raises(TruncationError):
            displaced_thermal_populations(n_th, n_coh)


# ---------------------------------------------------------------------------
# Sideband signal and heating fit
# ---------------------------------------------------------------------------

def test_sideband_signal_boundaries():
    occ = MotionalOccupation(n_th=0.0, n_coh=0.0,
                             rabi_omega=2 * math.pi * 250e3, eta=0.039)
    t_pi = math.pi / (occ.rabi_omega * occ.eta) * 1e6
    sig = sideband_rabi_signal(occ, [0.0, t_pi])
    assert sig[0] == pytest.approx(0.0, abs=1e-12)
    assert sig[1] == pytest.approx(2.0, abs=1e-9)


def test_sideband_signal_range_and_dephasing():
    t = np.linspace(0.0, 400.0, 200)
    hot = MotionalOccupation(n_th=32.0, n_coh=22.0,
                             rabi_omega=2 * math.pi * 250e3, eta=0.039)
    cold = MotionalOccupation(n_th=5.5, n_coh=0.4,
                              rabi_omega=2 * math.pi * 250e3, eta=0.039)
    for occ in (hot, cold):
        sig = sideband_rabi_signal(occ, t)
        assert sig.min() >= 0.0 and sig.max() <= 2.0
    # hotter distribution dephases towards the mixed value faster
    late = t > 200.0
    assert (np.std(sideband_rabi_signal(hot, t)[late])
            < np.std(sideband_rabi_signal(cold, t)[late]))


def test_fit_heating_round_trip():
    omega = 2 * math.pi * 250e3
    t = np.linspace(2.0, 600.0, 1200)
    occ = MotionalOccupation(n_th=3.5, n_coh=0.1, rabi_omega=omega, eta=0.039)
    rng = np.random.default_rng(273)
    y = sideband_rabi_signal(occ, t) + 0.02 * rng.standard_normal(len(t))
    fit, cov = fit_heating(t, y, eta=0.039)
    assert abs(fit.n_th - 3.5) / 3.5 < 0.1
    assert abs(fit.n_coh - 0.1) / 0.1 < 0.1
    assert abs(fit.rabi_omega - omega) / omega < 0.01
    assert cov.shape == (3, 3)
    assert np.all(np.diag(cov) >= 0.0)


def test_fit_heating_rejects_degenerate_input():
    with pytest.raises(FitError):
        fit_heating(np.linspace(1, 100, 20), np.full(20, 0.7))
    with pytest.raises(ValidationError):
        fit_heating([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])


def test_fit_heating_rejects_non_finite_input():
    t = np.linspace(2.0, 600.0, 40)
    y = 1.0 - np.cos(0.05 * t)
    for i, bad in ((0, float("nan")), (7, float("nan")), (39, float("inf"))):
        bad_t, bad_y = t.copy(), y.copy()
        bad_t[i] = bad_y[i] = bad
        for args in ((bad_t, y), (t, bad_y)):
            with pytest.raises(ValidationError):
                fit_heating(*args)


def test_fit_heating_lets_model_errors_through(monkeypatch):
    # A fault in the model or its Jacobian is a bug, not a failed start.  The
    # scan is simulated before the patch: sideband_rabi_signal shares the model.
    def broken(*args):
        raise ZeroDivisionError("broken model")

    t = np.linspace(2.0, 600.0, 60)
    occ = MotionalOccupation(n_th=3.5, n_coh=0.1,
                             rabi_omega=2 * math.pi * 250e3, eta=0.039)
    y = sideband_rabi_signal(occ, t)
    monkeypatch.setattr(analysis, "_sideband_model", broken)
    with pytest.raises(ZeroDivisionError):
        fit_heating(t, y)


@pytest.mark.parametrize("n_th,n_coh,omega_factor", [
    (5.5, 0.4, 1.0), (32.0, 22.0, 0.97), (0.3, 3.0, 1.02),
])
def test_sideband_jacobian_matches_central_differences(n_th, n_coh,
                                                       omega_factor):
    t_us = np.linspace(2.0, 600.0, 150)
    params = np.array([2 * math.pi * 250e3 * omega_factor, n_th, n_coh])

    def signal(p):
        occ = MotionalOccupation(n_th=p[1], n_coh=p[2], rabi_omega=p[0],
                                 eta=0.039)
        return sideband_rabi_signal(occ, t_us, tail_tol=1e-4)

    model, jac = analysis._sideband_model(params, t_us * 1e-6, 0.039, 1e-4)
    np.testing.assert_allclose(model, signal(params), rtol=0, atol=1e-14)
    # Steps near cbrt(machine epsilon) in each parameter's own scale.
    for k, h in enumerate(1e-5 * np.maximum(params, 1.0)):
        step = np.zeros(3)
        step[k] = h
        fd = (signal(params + step) - signal(params - step)) / (2 * h)
        err = np.linalg.norm(jac[:, k] - fd) / np.linalg.norm(fd)
        assert err < 1e-6, (k, err)


def test_sideband_model_matches_sin_cos_reference():
    # The model's half-angle tangent u = tan(h) against np.sin and np.cos.
    # The times include t -> 0 and half angles h within 1e-9 of an odd
    # multiple of pi/2 in Fock states 0, 3 and 40, where u -> inf; a scan
    # whose length is not a multiple of the block and a single time.
    eta = 0.039
    params = np.array([2 * math.pi * 250e3, 5.5, 0.4])
    pops, d_th, d_coh = analysis._populations(params[1], params[2], 1e-4)
    rate = eta * np.sqrt(np.arange(len(pops)) + 1.0)
    odd = np.array([1.0, 3.0, 41.0])[:, None] * math.pi / 2
    poles = ((odd + np.array([-1e-9, 0.0, 1e-9])).ravel()
             / (0.5 * params[0] * rate[[0, 3, 40]].repeat(3)))
    scan = np.linspace(0.0, 600e-6, 2 * analysis._MODEL_BLOCK + 37)
    scan = np.concatenate([scan, [1e-300, 1e-15], poles])

    for t_s in (scan, poles[4:5]):
        model, jac = analysis._sideband_model(params, t_s, eta, 1e-4)
        half = np.outer(t_s, 0.5 * params[0] * rate)
        sin, cos = np.sin(half), np.cos(half)
        np.testing.assert_allclose(model, 2.0 * sin ** 2 @ pops,
                                   rtol=0, atol=1e-14)
        d_omega = t_s * (2.0 * sin * cos @ (rate * pops))
        err = np.linalg.norm(jac[:, 0] - d_omega) / np.linalg.norm(d_omega)
        assert err <= 1e-12, err
        d_occ = 2.0 * sin ** 2 @ np.stack([d_th, d_coh], 1)
        np.testing.assert_allclose(jac[:, 1:], d_occ, rtol=0, atol=1e-14)


def test_sideband_model_peak_memory_is_bounded():
    # 1200 times x 640 Fock states: whole sin and cos tables take 6.1 MB
    # each and peaked at 12.4 MB; two tables of 256 times keep it near 3 MB.
    import tracemalloc

    params = np.array([2 * math.pi * 250e3, 45.0, 10.0])
    t_s = np.linspace(2.0, 600.0, 1200) * 1e-6
    assert len(analysis._populations(45.0, 10.0, 1e-4)[0]) == 640
    tracemalloc.start()
    try:
        analysis._sideband_model(params, t_s, 0.039, 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def _record_least_squares(monkeypatch, unconverged=lambda call: False):
    # Wrap least_squares; a call that ``unconverged`` selects reports its
    # result as out of budget.
    import scipy.optimize

    real, calls = scipy.optimize.least_squares, []

    def wrapped(*args, **kwargs):
        sol = real(*args, **kwargs)
        calls.append((kwargs["max_nfev"], sol))
        if unconverged(len(calls) - 1):
            sol.success, sol.status = False, 0
        return sol

    monkeypatch.setattr(scipy.optimize, "least_squares", wrapped)
    return calls


def test_fit_heating_continues_an_unconverged_leader(monkeypatch):
    # On this scan no start converges within the first round; start 3 has
    # the lowest cost and converges 6 evaluations into its continuation.
    calls = _record_least_squares(monkeypatch)
    omega = 2 * math.pi * 250e3
    t = np.linspace(2.0, 600.0, 300)
    occ = MotionalOccupation(n_th=25.0, n_coh=2.0, rabi_omega=omega, eta=0.039)
    rng = np.random.default_rng(2)
    y = sideband_rabi_signal(occ, t) + 0.02 * rng.standard_normal(len(t))
    fit, _ = fit_heating(t, y, eta=0.039)
    firsts = [sol for _, sol in calls[:5]]
    assert [n for n, _ in calls] == [20] * 5 + [60]
    assert not any(sol.success for sol in firsts)
    assert min(sol.cost for sol in firsts) == firsts[3].cost
    assert calls[5][1].success
    assert fit.n_th == calls[5][1].x[1] and fit.n_coh == calls[5][1].x[2]
    assert abs(fit.n_th - 25.0) / 25.0 < 0.1
    assert abs(fit.n_coh - 2.0) / 2.0 < 0.1
    assert abs(fit.rabi_omega - omega) / omega < 0.01


def test_fit_heating_falls_back_to_a_converged_start(monkeypatch):
    # Start 2 leads (lowest cost) but is reported out of budget in the first
    # round and again in its continuation: the lowest-cost start that did
    # converge in the first round, start 0, wins.  It stops a little short of
    # start 2's optimum, with n_coh 0.112 against 0.104.
    calls = _record_least_squares(monkeypatch, lambda call: call in (2, 5))
    omega = 2 * math.pi * 250e3
    t = np.linspace(2.0, 600.0, 1200)
    occ = MotionalOccupation(n_th=3.5, n_coh=0.1, rabi_omega=omega, eta=0.039)
    rng = np.random.default_rng(273)
    y = sideband_rabi_signal(occ, t) + 0.02 * rng.standard_normal(len(t))
    fit, _ = fit_heating(t, y, eta=0.039)
    firsts = [sol for _, sol in calls[:5]]
    assert [n for n, _ in calls] == [20] * 5 + [60]
    assert min(sol.cost for sol in firsts) == firsts[2].cost
    converged = [i for i, sol in enumerate(firsts) if sol.success]
    assert min(converged, key=lambda i: firsts[i].cost) == 0
    assert fit.n_th == firsts[0].x[1] and fit.n_coh == firsts[0].x[2]
    assert abs(fit.n_th - 3.5) / 3.5 < 0.1
    assert abs(fit.n_coh - 0.1) / 0.1 < 0.2
    assert abs(fit.rabi_omega - omega) / omega < 0.01


def test_fit_heating_fails_when_no_start_converges(monkeypatch):
    calls = _record_least_squares(monkeypatch, lambda call: True)
    t = np.linspace(2.0, 600.0, 60)
    occ = MotionalOccupation(n_th=3.5, n_coh=0.1,
                             rabi_omega=2 * math.pi * 250e3, eta=0.039)
    with pytest.raises(FitError, match="every start"):
        fit_heating(t, sideband_rabi_signal(occ, t))
    assert [n for n, _ in calls] == [20] * 5 + [60]


def test_fit_heating_rejects_a_fit_on_the_occupation_bound(monkeypatch):
    # Three starts converge onto n_th = n_coh = 50 with Omega 4.2x the true
    # value; the leader, start 3, does not converge in its continuation.  A
    # start on the bound is not a fit, so no start is left.
    calls = _record_least_squares(monkeypatch)
    omega = 2 * math.pi * 250e3
    t = np.linspace(2.0, 600.0, 150)
    occ = MotionalOccupation(n_th=0.5, n_coh=15.0, rabi_omega=omega, eta=0.039)
    rng = np.random.default_rng(2)
    y = sideband_rabi_signal(occ, t) + 0.02 * rng.standard_normal(len(t))
    with pytest.raises(FitError, match="bound"):
        fit_heating(t, y, eta=0.039)
    firsts = [sol for _, sol in calls[:5]]
    on_bound = [i for i, sol in enumerate(firsts)
                if sol.success and min(sol.x[1:]) > 50.0 - 1e-6]
    assert on_bound == [0, 1, 2, 4]
    assert [n for n, _ in calls] == [20] * 5 + [60]
    assert not calls[5][1].success


def test_periodogram_peak_memory_is_bounded():
    # 1200 times x 512 frequencies: whole tables take 4.9 MB each and
    # peaked at 23.5 MB; blocks of 64 frequencies keep the peak near 3 MB.
    import tracemalloc

    t_s = np.linspace(2.0, 600.0, 1200) * 1e-6
    y = np.random.default_rng(0).standard_normal(1200)
    w = 2 * math.pi * np.linspace(0.25 / np.ptp(t_s),
                                  0.5 / np.median(np.diff(t_s)), 512)
    tracemalloc.start()
    try:
        analysis._lombscargle(t_s, y, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_periodogram_matches_scipy_lombscargle():
    import scipy.signal

    # An irregular random scan and criterion 9's three sideband scans.
    rng = np.random.default_rng(5)
    scans = [(np.sort(rng.uniform(0.0, 1e-3, 300)), rng.standard_normal(300))]
    times_us = np.linspace(2.0, 600.0, 1200)
    for n_th, n_coh, seed in [(5.5, 0.4, 142), (3.5, 0.1, 273),
                              (32.0, 22.0, 2)]:
        occ = MotionalOccupation(n_th=n_th, n_coh=n_coh,
                                 rabi_omega=2 * math.pi * 250e3, eta=0.039)
        noise = 0.02 * np.random.default_rng(seed).standard_normal(1200)
        scans.append((times_us * 1e-6,
                      sideband_rabi_signal(occ, times_us) + noise))
    for t_s, y in scans:
        w = 2 * math.pi * np.linspace(0.25 / np.ptp(t_s),
                                      0.5 / np.median(np.diff(t_s)), 512)
        ours = analysis._lombscargle(t_s, y - y.mean(), w)
        ref = scipy.signal.lombscargle(t_s, y - y.mean(), w)
        np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=0)
        assert np.argmax(ours) == np.argmax(ref)


def test_motional_occupation_validation():
    with pytest.raises(ValidationError):
        MotionalOccupation(n_th=-1.0, n_coh=0.0, rabi_omega=1.0, eta=0.04)


# ---------------------------------------------------------------------------
# Closed-form helpers
# ---------------------------------------------------------------------------

def test_thermal_gate_error():
    assert thermal_gate_error(0.039, 0.0) == 0.0
    val = thermal_gate_error(0.039, 0.4)
    assert val == pytest.approx((math.pi ** 2 / 4) * 0.039 ** 4
                                * (0.4 + 2 * 0.4 ** 2), abs=1e-12)
    assert abs(val - 4.10e-6) < 1e-7
    with pytest.raises(ValidationError):
        thermal_gate_error(-0.1, 0.4)


def test_lamb_dicke_eta():
    eta = lamb_dicke_eta(40.0, 2 * math.pi * 1.41e6, 729e-9, math.pi / 4)
    assert abs(eta - 0.039) / 0.039 < 0.1
    # frequency quadrupled -> eta halved
    eta4 = lamb_dicke_eta(40.0, 4 * 2 * math.pi * 1.41e6, 729e-9, math.pi / 4)
    assert eta4 == pytest.approx(eta / 2.0, rel=1e-12)
    assert lamb_dicke_eta(40.0, 2 * math.pi * 1.41e6, 729e-9,
                          math.pi / 2) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValidationError):
        lamb_dicke_eta(0.0, 1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------

def test_series_csv_roundtrip(tmp_path):
    path = str(tmp_path / "series.csv")
    xs = np.array([1.0, 2.5, 3.75])
    ys = np.array([0.1, 0.9, 0.5])
    write_series_csv(path, xs, ys, header=("time_us", "signal"))
    rx, ry = read_series_csv(path)
    np.testing.assert_allclose(rx, xs, atol=0)
    np.testing.assert_allclose(ry, ys, atol=0)


def test_read_series_csv_header_only_on_first_row(tmp_path):
    path = str(tmp_path / "series.csv")
    with open(path, "w") as fh:
        fh.write("# scan\n\ntime_us,signal\n2.0,0.1\n4.0,0.3\n")
    rx, ry = read_series_csv(path)
    np.testing.assert_array_equal(rx, [2.0, 4.0])
    np.testing.assert_array_equal(ry, [0.1, 0.3])
    with open(path, "w") as fh:
        fh.write("time_us,signal\n2.0,0.1\n3.0,abc\n4.0,0.3\n")
    with pytest.raises(ValidationError, match="abc"):
        read_series_csv(path)
