"""Companion noise characterization: Ramsey contrast and sideband thermometry.

Two independent measurements pin down the noise budget of the ion trap:

* A single-ion Ramsey scan measures the laser phase noise.  The contrast
  decays as exp(-(sigma_phi^2 tau)/2) from phase diffusion, multiplied by a
  Gaussian envelope from the per-shot frequency jitter.  Fitting the analytic
  model to simulated fringe contrasts recovers both noise parameters.

* Blue-sideband Rabi flopping measures the motional state.  Fitting the
  displaced-thermal flopping model recovers the thermal and coherent
  occupations, from which the residual thermal gate error follows.

Runtime: one to two seconds (the Ramsey scan samples 2 x 10^4 shots per
delay).
"""
import math

import numpy as np

from ionqpt.analysis import (
    MotionalOccupation,
    fit_heating,
    fit_ramsey_model,
    sideband_rabi_signal,
    thermal_gate_error,
)
from ionqpt.ionsim import NoiseModel, simulate_ramsey


def ramsey_section():
    noise = NoiseModel.paper_study()
    delays = np.array([5.0, 20.0, 40.0, 60.0, 80.0, 100.0, 120.0, 160.0, 200.0])
    print("Ramsey contrast versus delay (2 x 10^4 shots per point):")
    contrasts = simulate_ramsey(delays, noise, shots=20000, seed=100)
    for tau, c in zip(delays, contrasts):
        print(f"  tau = {tau:6.1f} us  contrast = {c:.4f}")

    fit = fit_ramsey_model(delays, contrasts)
    print("\nFitted noise model vs the one used to simulate:")
    print(f"  phase diffusion  {fit.phase_diffusion_rad_per_sqrt_us:.4f} "
          f"rad/sqrt(us)   (true {noise.phase_diffusion_rad_per_sqrt_us})")
    print(f"  fast jitter FWHM {fit.fast_freq_sigma_hz:6.1f} Hz          "
          f"(true {noise.fast_freq_sigma_hz})")
    loss = 1.0 - contrasts[delays.tolist().index(120.0)]
    print(f"  contrast loss at 120 us: {100 * loss:.2f}%")


def thermometry_section():
    rng = np.random.default_rng(273)
    true = MotionalOccupation(n_th=3.5, n_coh=0.1,
                              rabi_omega=2 * math.pi * 250e3, eta=0.039)
    times = np.linspace(2.0, 600.0, 1200)
    signal = sideband_rabi_signal(true, times)
    noisy = signal + 0.02 * rng.standard_normal(times.size)

    occ, cov = fit_heating(times, noisy, eta=true.eta)
    sigmas = np.sqrt(np.diag(cov))
    print("\nSideband thermometry fit (2% additive noise on the flopping signal):")
    print(f"  Omega/2pi = {occ.rabi_omega / (2 * math.pi) / 1e3:7.2f} kHz "
          f"+- {sigmas[0] / (2 * math.pi) / 1e3:.2f}  (true 250.00)")
    print(f"  n_th      = {occ.n_th:7.3f} +- {sigmas[1]:.3f}  (true {true.n_th})")
    print(f"  n_coh     = {occ.n_coh:7.3f} +- {sigmas[2]:.3f}  (true {true.n_coh})")

    err = thermal_gate_error(true.eta, occ.n_th)
    print(f"\nResidual thermal gate error at eta = {true.eta}: {err:.2e}")
    print("Negligible against the 10^-2-level laser-noise contributions above.")


def main():
    ramsey_section()
    thermometry_section()


if __name__ == "__main__":
    main()
