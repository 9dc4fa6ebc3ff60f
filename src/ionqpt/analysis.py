"""Companion analyses: Bell-state fidelity, over-rotation fitting, Ramsey noise
model fitting, and motional-mode (sideband Rabi) thermometry.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.constants as const
import scipy.linalg
import scipy.optimize

from .ionsim import ramsey_contrast_model
from .process import ProcessMatrix, apply_process, process_fidelity, unitary_to_chi
from .protocol import rotation_unitary
from .qmath import ValidationError, matrix_exponential, two_qubit_pauli_basis

__all__ = [
    "FitError",
    "TruncationError",
    "ParityScan",
    "MotionalOccupation",
    "OverRotationFit",
    "RamseyFit",
    "simulate_parity_scan",
    "bell_populations",
    "bell_state_fidelity",
    "fit_over_rotation",
    "fit_ramsey_model",
    "displaced_thermal_populations",
    "sideband_rabi_signal",
    "fit_heating",
    "thermal_gate_error",
    "lamb_dicke_eta",
    "read_series_csv",
    "write_series_csv",
]

_XX = two_qubit_pauli_basis()[5]
_KET_SS = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)


class FitError(RuntimeError):
    """A nonlinear fit failed to converge or the data are degenerate."""


class TruncationError(ValueError):
    """Fock-space truncation leaves too much population in the tail."""


# ---------------------------------------------------------------------------
# Bell-state tomography
# ---------------------------------------------------------------------------

@dataclass
class ParityScan:
    """Populations versus analysis-pulse phase and the fitted fringe amplitude."""

    phases: np.ndarray
    p2: np.ndarray
    p1: np.ndarray
    p0: np.ndarray
    p_amp: float

    @property
    def parity(self) -> np.ndarray:
        return self.p2 + self.p0 - self.p1


def _output_populations(chi: ProcessMatrix, analysis_phase: float | None
                        ) -> tuple[float, float, float]:
    rho = apply_process(chi, np.outer(_KET_SS, _KET_SS.conj()))
    if analysis_phase is not None:
        r = rotation_unitary(math.pi / 2, analysis_phase)
        u = np.kron(r, r)
        rho = u @ rho @ u.conj().T
    p2 = float(rho[0, 0].real)
    p0 = float(rho[3, 3].real)
    return p2, max(0.0, 1.0 - p2 - p0), p0


def simulate_parity_scan(chi: ProcessMatrix, phases=None, shots: int = 0,
                         seed: int = 0) -> ParityScan:
    """Parity fringe of the state chi(|SS><SS|) under a common pi/2 analysis pulse.

    With ``shots`` > 0 each phase point is multinomially sampled with
    shots/len(phases) repetitions; shots = 0 returns exact populations.  The
    amplitude is a least-squares fit of a*sin(2 phi) + b*cos(2 phi) + c.
    """
    if phases is None:
        phases = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    phases = np.asarray(phases, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    p2 = np.empty_like(phases)
    p1 = np.empty_like(phases)
    p0 = np.empty_like(phases)
    per_point = shots // len(phases) if shots else 0
    for i, phi in enumerate(phases):
        q2, q1, q0 = _output_populations(chi, float(phi))
        if per_point:
            counts = rng.multinomial(per_point, [q2, q1, q0])
            p2[i], p1[i], p0[i] = counts / per_point
        else:
            p2[i], p1[i], p0[i] = q2, q1, q0
    parity = p2 + p0 - p1
    design = np.column_stack([np.sin(2 * phases), np.cos(2 * phases),
                              np.ones_like(phases)])
    coef, *_ = np.linalg.lstsq(design, parity, rcond=None)
    return ParityScan(phases=phases, p2=p2, p1=p1, p0=p0,
                      p_amp=float(np.hypot(coef[0], coef[1])))


def bell_populations(chi: ProcessMatrix, shots: int = 0,
                     seed: int = 0) -> tuple[float, float]:
    """(p0, p2) of the gate output with no analysis pulse, optionally sampled."""
    q2, q1, q0 = _output_populations(chi, None)
    if shots:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        counts = rng.multinomial(shots, [q2, q1, q0])
        return counts[2] / shots, counts[0] / shots
    return q0, q2


def bell_state_fidelity(p0: float, p2: float,
                        parity: ParityScan | float) -> float:
    """F_BST = P_amp/2 + (P0 + P2)/2, clamped to [0, 1]."""
    for name, v in (("p0", p0), ("p2", p2)):
        if not 0.0 <= v <= 1.0:
            raise ValidationError(f"{name} must lie in [0, 1], got {v}")
    p_amp = parity.p_amp if isinstance(parity, ParityScan) else float(parity)
    return float(np.clip(0.5 * p_amp + 0.5 * (p0 + p2), 0.0, 1.0))


# ---------------------------------------------------------------------------
# Over-rotation estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OverRotationFit:
    theta: float
    residual_error: float  # 1 - best fidelity


def fit_over_rotation(chi_meas: ProcessMatrix, lo: float = 0.0,
                      hi: float = math.pi / 2,
                      xtol: float = 1e-7) -> OverRotationFit:
    """Best-fit angle of an exp(-i theta XX) propagator by golden-section search.

    The fidelity profile is unimodal on [0, pi/2] for near-unitary chi, so
    golden-section is reliable without derivatives.
    """
    def fid(theta: float) -> float:
        chi_t = unitary_to_chi(matrix_exponential(_XX, theta))
        return process_fidelity(chi_meas, chi_t).fidelity

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fid(c), fid(d)
    while b - a > xtol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fid(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fid(d)
    theta = 0.5 * (a + b)
    return OverRotationFit(theta=theta, residual_error=1.0 - fid(theta))


# ---------------------------------------------------------------------------
# Ramsey noise-model fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RamseyFit:
    phase_diffusion_rad_per_sqrt_us: float
    fast_freq_sigma_hz: float
    residual: float


def fit_ramsey_model(delays_us, contrasts, uncertainties=None) -> RamseyFit:
    """Least-squares (diffusion, fast-jitter) fit of the contrast curve.

    The model multiplies the diffusion decay exp(-c^2 tau / 2) by the
    shot-averaged Gaussian-jitter factor exp(-(2 pi sigma_f tau)^2 / 2) --
    the same kernel the simulator realizes shot by shot.
    """
    delays_us = np.asarray(delays_us, dtype=float)
    contrasts = np.asarray(contrasts, dtype=float)
    if len(delays_us) < 3:
        raise ValidationError("need at least 3 delay points")
    if np.ptp(contrasts) < 1e-9:
        raise FitError("contrast curve is flat; noise parameters unidentifiable")
    sigma = None if uncertainties is None else np.asarray(uncertainties, float)
    try:
        popt, _ = scipy.optimize.curve_fit(
            ramsey_contrast_model, delays_us, contrasts,
            p0=(0.01, 200.0), sigma=sigma,
            bounds=([0.0, 0.0], [1.0, 1e5]), maxfev=10000)
    except RuntimeError as exc:
        raise FitError(f"Ramsey model fit failed: {exc}") from exc
    residual = float(np.sqrt(np.mean(
        (ramsey_contrast_model(delays_us, *popt) - contrasts) ** 2)))
    return RamseyFit(phase_diffusion_rad_per_sqrt_us=float(popt[0]),
                     fast_freq_sigma_hz=float(popt[1]), residual=residual)


# ---------------------------------------------------------------------------
# Motional-mode thermometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MotionalOccupation:
    """Thermal/coherent decomposition of a motional-mode occupation."""

    n_th: float
    n_coh: float
    rabi_omega: float  # carrier Rabi frequency, rad/s
    eta: float

    def __post_init__(self):
        if min(self.n_th, self.n_coh, self.rabi_omega, self.eta) < 0:
            raise ValidationError("occupation parameters must be nonnegative")


@lru_cache(maxsize=16)
def _displacement_schur(dim: int) -> tuple[np.ndarray, np.ndarray]:
    # The displacement generator a^dag - a is real antisymmetric (hence
    # normal), so its real Schur form is block diagonal with 2x2 rotation
    # generators: exp(alpha A) = Q E(alpha) Q^T with E built from cheap
    # per-block sines/cosines.  Caching (Q, block frequencies) makes repeated
    # displacements at the same truncation O(dim^2) setup + one real matmul.
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1)
    t, q = scipy.linalg.schur(a.T - a, output="real")
    return t, q


def _displacement_matrix(alpha: float, dim: int) -> np.ndarray:
    """exp(alpha (a^dag - a)) in the truncated Fock basis (real orthogonal)."""
    t, q = _displacement_schur(dim)
    e = np.zeros((dim, dim))
    i = 0
    while i < dim:
        if i + 1 < dim and abs(t[i + 1, i]) > 1e-12:
            c = math.cos(alpha * t[i, i + 1])
            s = math.sin(alpha * t[i, i + 1])
            e[i, i] = c
            e[i, i + 1] = s
            e[i + 1, i] = -s
            e[i + 1, i + 1] = c
            i += 2
        else:
            e[i, i] = 1.0
            i += 1
    return q @ e @ q.T


@lru_cache(maxsize=64)
def _displaced_thermal(n_th: float, n_coh: float, dim: int) -> np.ndarray:
    if n_th > 0:
        ratio = n_th / (1.0 + n_th)
        p_th = (1.0 - ratio) * ratio ** np.arange(dim)
    else:
        p_th = np.zeros(dim)
        p_th[0] = 1.0
    alpha = math.sqrt(n_coh)
    if alpha == 0.0:
        return p_th
    disp = _displacement_matrix(alpha, dim)
    return disp ** 2 @ p_th


def _truncation_tail(pops: np.ndarray) -> float:
    return float((1.0 - pops.sum()) + pops[-2:].sum())


def displaced_thermal_populations(n_th: float, n_coh: float,
                                  n_max: int | None = None,
                                  tail_tol: float = 1e-6) -> np.ndarray:
    """Fock populations of a displaced thermal state, numerically truncated.

    The thermal density matrix is displaced with |alpha|^2 = n_coh by exact
    matrix exponentiation in a truncated Fock basis.  When ``n_max`` is given
    and the tail exceeds ``tail_tol`` a TruncationError asks for a larger
    basis; otherwise the truncation grows automatically.
    """
    if n_th < 0 or n_coh < 0:
        raise ValidationError("n_th and n_coh must be nonnegative")
    if n_max is not None:
        pops = _displaced_thermal(n_th, n_coh, n_max + 1)
        if _truncation_tail(pops) > tail_tol:
            raise TruncationError(
                f"truncation tail {_truncation_tail(pops):.2e} exceeds "
                f"{tail_tol:.0e}; increase n_max")
        return pops.copy()
    dim = _auto_dim(n_th, n_coh, tail_tol)
    while True:
        pops = _displaced_thermal(n_th, n_coh, dim)
        if _truncation_tail(pops) <= tail_tol:
            return pops.copy()
        dim = _grow_dim(dim)


# Truncation sizes are bucketed to powers of two so repeated fits reuse the
# cached eigendecomposition instead of paying O(dim^3) per distinct size.
_DIM_BUCKETS = (64, 128, 192, 256, 320, 384, 448, 512, 640, 768, 896,
                1024, 1536, 2048, 3072, 4096)


def _auto_dim(n_th: float, n_coh: float, tail_tol: float) -> int:
    # The tail beyond the displacement spread decays geometrically with the
    # thermal ratio r = n_th/(1+n_th); solve r^n / (1-r) < tol for n, then
    # add the coherent offset and a few standard deviations of spread.
    if n_th > 0.05:
        r = n_th / (1.0 + n_th)
        n_tail = math.log(1.0 / (tail_tol * (1.0 - r))) / -math.log(r)
    else:
        n_tail = 25.0
    base = n_tail + n_coh + 8.0 * math.sqrt(n_coh + 1.0) + 10.0
    for d in _DIM_BUCKETS:
        if d >= base:
            return d
    return _DIM_BUCKETS[-1]


def _grow_dim(dim: int) -> int:
    for d in _DIM_BUCKETS:
        if d > dim:
            return d
    raise TruncationError(f"cannot truncate beyond {dim} Fock states")


def sideband_rabi_signal(occ: MotionalOccupation, times_us,
                         tail_tol: float = 1e-6) -> np.ndarray:
    """Expected bright-ion count (0..2) on the blue sideband versus pulse time.

    Each ion is treated as an independent two-level system sharing the mode
    distribution, flopping at Omega_n = Omega * eta * sqrt(n + 1).
    """
    times_s = np.asarray(times_us, dtype=float) * 1e-6
    pops = displaced_thermal_populations(occ.n_th, occ.n_coh,
                                         tail_tol=tail_tol)
    omega_n = occ.rabi_omega * occ.eta * np.sqrt(np.arange(len(pops)) + 1.0)
    return 2.0 * np.sin(0.5 * np.outer(times_s, omega_n)) ** 2 @ pops


def fit_heating(times_us, signals, eta: float = 0.039,
                n_starts: int = 5) -> tuple[MotionalOccupation, np.ndarray]:
    """Fit (Omega, n_th, n_coh) to a sideband Rabi curve.

    Multi-start bounded least squares; the best start by residual wins, ties
    broken by lowest start index.  Returns the occupation and the 3x3
    parameter covariance estimated from the Jacobian at the optimum.
    """
    # scipy.signal takes about half of the package's import time and only
    # this function uses it, so it is imported here rather than at the top.
    import scipy.signal

    times_us = np.asarray(times_us, dtype=float)
    signals = np.asarray(signals, dtype=float)
    if len(times_us) < 8:
        raise ValidationError("need at least 8 time points")
    if np.ptp(signals) < 1e-9:
        raise FitError("flat sideband signal; occupation unidentifiable")

    # The dominant periodogram frequency approximates the sideband rate of the
    # distribution's modal Fock state, Omega * eta * sqrt(n_mode + 1) / 2 pi.
    # Seeding Omega from it per start avoids the aliased local optima that a
    # free Rabi frequency produces in this comb-of-frequencies model.
    t_s = times_us * 1e-6
    span = float(t_s.max() - t_s.min())
    dt = float(np.median(np.diff(np.sort(t_s))))
    freqs = np.linspace(0.25 / span, 0.5 / dt, 512)
    pgram = scipy.signal.lombscargle(t_s, signals - signals.mean(),
                                     2.0 * math.pi * freqs)
    f_dom = float(freqs[int(np.argmax(pgram))])

    start_ns = [(0.3, 0.1), (2.0, 0.5), (6.0, 0.5), (3.0, 8.0),
                (25.0, 15.0), (40.0, 25.0)][:n_starts]

    def residuals(params: np.ndarray) -> np.ndarray:
        occ = MotionalOccupation(n_th=params[1], n_coh=params[2],
                                 rabi_omega=params[0], eta=eta)
        # A loosened truncation tail (1e-4) biases the model curve far less
        # than the data noise while keeping the Fock space small during search.
        return sideband_rabi_signal(occ, times_us, tail_tol=1e-4) - signals

    omega_hi = 4.0 * math.pi * f_dom / eta  # n_mode = 0 rate, 2x margin
    best = None
    for idx, (n_th0, n_coh0) in enumerate(start_ns):
        pops0 = displaced_thermal_populations(n_th0, n_coh0, tail_tol=1e-3)
        n_mode = int(np.argmax(pops0))
        omega0 = 2.0 * math.pi * f_dom / (eta * math.sqrt(n_mode + 1.0))
        try:
            sol = scipy.optimize.least_squares(
                residuals, x0=np.array([omega0, n_th0, n_coh0]),
                bounds=([0.0, 0.0, 0.0], [omega_hi, 50.0, 50.0]),
                x_scale=[0.05 * omega0, 1.0, 1.0], xtol=1e-8, ftol=1e-8,
                max_nfev=80)
        except Exception:
            continue
        cost = float(sol.cost)
        if sol.success and (best is None or cost < best[0] - 1e-15):
            best = (cost, idx, sol)
    if best is None:
        raise FitError("sideband fit failed from every start")
    sol = best[2]
    occ = MotionalOccupation(n_th=float(sol.x[1]), n_coh=float(sol.x[2]),
                             rabi_omega=float(sol.x[0]), eta=eta)
    dof = max(1, len(times_us) - 3)
    res_var = 2.0 * sol.cost / dof
    jtj = sol.jac.T @ sol.jac
    cov = res_var * np.linalg.pinv(jtj)
    return occ, cov


def thermal_gate_error(eta: float, n_th: float) -> float:
    """Phase-gate error from thermal motion: (pi^2/4) eta^4 (n_th + 2 n_th^2)."""
    if eta < 0 or n_th < 0:
        raise ValidationError("eta and n_th must be nonnegative")
    return (math.pi ** 2 / 4.0) * eta ** 4 * (n_th + 2.0 * n_th ** 2)


def lamb_dicke_eta(mass_amu: float, omega_rad_s: float, wavelength_m: float,
                   beam_angle_rad: float) -> float:
    """Lamb-Dicke parameter of the two-ion COM mode for a single global beam.

    eta = (1/sqrt 2) * sqrt(hbar / (2 m omega)) * k cos(angle), with m the
    single-ion mass and k the laser wavevector projected on the trap axis.
    """
    if min(mass_amu, omega_rad_s, wavelength_m) <= 0:
        raise ValidationError("mass, frequency and wavelength must be positive")
    m = mass_amu * const.atomic_mass
    x0 = math.sqrt(const.hbar / (2.0 * m * omega_rad_s))
    k_axial = (2.0 * math.pi / wavelength_m) * math.cos(beam_angle_rad)
    return (1.0 / math.sqrt(2.0)) * x0 * k_axial


# ---------------------------------------------------------------------------
# CSV plumbing for (x, y) series
# ---------------------------------------------------------------------------

def read_series_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            try:
                x, y = float(row[0]), float(row[1])
            except ValueError:
                continue  # header line
            xs.append(x)
            ys.append(y)
    return np.array(xs), np.array(ys)


def write_series_csv(path: str, xs, ys, header: tuple[str, str]) -> None:
    from .process import atomic_write_text

    lines = [f"{header[0]},{header[1]}"]
    lines += [f"{float(x)!r},{float(y)!r}"
              for x, y in zip(np.asarray(xs), np.asarray(ys))]
    atomic_write_text(path, "\n".join(lines) + "\n")
