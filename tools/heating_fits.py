"""Print a fixed set of heating fits to full precision, with their times.

The scans are the 1200-point (n_th, n_coh) = (5.5, 0.4), (3.5, 0.1) and
(32, 22) scans of acceptance criterion 9 at noise seeds 142, 273 and 2 (the
second is also the benchmark's first heating mode), the benchmark's second
mode, (20, 10) at 150 points and seed 2, and the (25, 2) 300-point scan at
seed 2 whose leader needs its continuation. Every scan runs from 2 to 600 us
with Omega = 2 pi x 250 kHz, eta = 0.039 and noise of standard deviation 0.02.
Each line gives the fitted (Omega, n_th, n_coh), the diagonal of the
covariance and the seconds the fit took. The fits move at round-off between
machines and BLAS builds, so the values are printed, not hashed: compare two
commits on one machine, with one BLAS thread. It takes a few seconds:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/heating_fits.py
"""
import math
import time

import numpy as np

from ionqpt.analysis import MotionalOccupation, fit_heating, sideband_rabi_signal

OMEGA, ETA, NOISE = 2 * math.pi * 250e3, 0.039, 0.02
SCANS = ((5.5, 0.4, 142, 1200), (3.5, 0.1, 273, 1200), (32.0, 22.0, 2, 1200),
         (20.0, 10.0, 2, 150), (25.0, 2.0, 2, 300))

for n_th, n_coh, seed, points in SCANS:
    times = np.linspace(2.0, 600.0, points)
    occ = MotionalOccupation(n_th=n_th, n_coh=n_coh, rabi_omega=OMEGA, eta=ETA)
    signal = (sideband_rabi_signal(occ, times)
              + NOISE * np.random.default_rng(seed).standard_normal(points))
    start = time.perf_counter()
    fit, cov = fit_heating(times, signal, eta=ETA)
    seconds = time.perf_counter() - start
    print(f"({n_th}, {n_coh}) x {points}: "
          f"fit {fit.rabi_omega!r} {fit.n_th!r} {fit.n_coh!r}; "
          f"cov diag {' '.join(repr(float(v)) for v in np.diag(cov))}; "
          f"{seconds:.3f} s")
