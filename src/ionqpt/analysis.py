"""Companion analyses: Bell-state fidelity, over-rotation fitting, Ramsey noise
model fitting, and motional-mode (sideband Rabi) thermometry.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
import scipy.constants as const
import scipy.optimize

from .ionsim import ramsey_contrast_model
from .process import (
    ProcessMatrix,
    apply_process,
    atomic_write_text,
    process_fidelity,
    unitary_to_chi,
)
from .protocol import rotation_unitary
from .qmath import ValidationError, matrix_exponential, two_qubit_pauli_basis

__all__ = [
    "FitError",
    "TruncationError",
    "ParityScan",
    "MotionalOccupation",
    "OverRotationFit",
    "RamseyFit",
    "RAMSEY_MIN_DELAYS",
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
_RHO_SS = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)  # |SS><SS|
_MAX_DIM = 4096  # largest Fock truncation of the motional mode
_FIRST_ROUND_NFEV, _MAX_NFEV = 20, 80  # heating fit: first round, leader's total
_MAX_OCCUPATION = 50.0  # heating fit: upper bound of n_th and n_coh
_PERIODOGRAM_BLOCK = 64  # frequencies per pass of the heating fit's periodogram


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


def _state_populations(rho: np.ndarray, analysis_phase: float | None
                       ) -> tuple[float, float, float]:
    """(p2, p1, p0) of the output state ``rho`` after the common pi/2
    analysis pulse (none for ``None``), clipped into [0, 1] against the
    round-off that a validated chi allows."""
    if analysis_phase is not None:
        r = rotation_unitary(math.pi / 2, analysis_phase)
        u = np.kron(r, r)
        rho = u @ rho @ u.conj().T
    p2 = float(rho[0, 0].real)
    p0 = float(rho[3, 3].real)
    q2, q1, q0 = np.clip([p2, max(0.0, 1.0 - p2 - p0), p0], 0.0, 1.0)
    return float(q2), float(q1), float(q0)


def simulate_parity_scan(chi: ProcessMatrix, shots: int = 0,
                         seed: int = 0) -> ParityScan:
    """Parity fringe of the state chi(|SS><SS|) under a common pi/2 analysis pulse.

    The analysis phase takes 24 equally spaced values in [0, 2 pi).  With
    ``shots`` > 0 each phase point is multinomially sampled with shots/24
    repetitions; shots = 0 returns the populations themselves.  The
    amplitude is a least-squares fit of a*sin(2 phi) + b*cos(2 phi) + c.
    """
    phases = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    if shots < 0 or 0 < shots < len(phases):
        raise ValidationError(f"parity scan shots must be 0 (exact) or at "
                              f"least {len(phases)}, got {shots}")
    rho = apply_process(chi, _RHO_SS)
    pops = np.array([_state_populations(rho, float(phi)) for phi in phases])
    per_point = shots // len(phases)
    if per_point:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        pops = np.array([rng.multinomial(per_point, q) for q in pops]
                        ) / per_point
    p2, p1, p0 = pops.T
    parity = p2 + p0 - p1
    design = np.column_stack([np.sin(2 * phases), np.cos(2 * phases),
                              np.ones_like(phases)])
    coef, *_ = np.linalg.lstsq(design, parity, rcond=None)
    return ParityScan(phases=phases, p2=p2, p1=p1, p0=p0,
                      p_amp=float(np.hypot(coef[0], coef[1])))


def bell_populations(chi: ProcessMatrix, shots: int = 0,
                     seed: int = 0) -> tuple[float, float]:
    """(p0, p2) of the gate output with no analysis pulse, optionally sampled."""
    if shots < 0:
        raise ValidationError(f"shots must be >= 0, got {shots}")
    q2, q1, q0 = _state_populations(apply_process(chi, _RHO_SS), None)
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


def fit_over_rotation(chi_meas: ProcessMatrix) -> OverRotationFit:
    """Best-fit angle theta in [0, pi/2] of an exp(-i theta XX) propagator.

    The fit is closed form.  Only the II and XX elements of chi_theta are
    nonzero, so the real part of Tr(chi chi_theta) is the sinusoid
    (a + b)/2 + (a - b)/2 cos 2 theta + g sin 2 theta, with a = chi[II,II],
    b = chi[XX,XX] and g = (Im chi[XX,II] - Im chi[II,XX])/2.  Its maximum
    is at theta = atan2(g, (a - b)/2)/2; when that lies outside [0, pi/2]
    the better end point wins.  ``residual_error`` is 1 - F_p at theta.
    """
    c = chi_meas.chi
    a, b = c[0, 0].real, c[5, 5].real
    g = 0.5 * (c[5, 0].imag - c[0, 5].imag)
    theta = 0.5 * math.atan2(g, 0.5 * (a - b))
    if not 0.0 <= theta <= math.pi / 2:
        theta = 0.0 if a >= b else math.pi / 2
    chi_t = unitary_to_chi(matrix_exponential(_XX, theta))
    return OverRotationFit(
        theta=theta,
        residual_error=1.0 - process_fidelity(chi_meas, chi_t))


# ---------------------------------------------------------------------------
# Ramsey noise-model fit
# ---------------------------------------------------------------------------

RAMSEY_MIN_DELAYS = 3  # the fit has two parameters


@dataclass(frozen=True)
class RamseyFit:
    phase_diffusion_rad_per_sqrt_us: float
    fast_freq_sigma_hz: float
    residual: float


def fit_ramsey_model(delays_us, contrasts) -> RamseyFit:
    """Least-squares (diffusion, fast-jitter) fit of the contrast curve.

    The model multiplies the diffusion decay exp(-c^2 tau / 2) by the
    shot-averaged Gaussian-jitter factor exp(-(2 pi sigma_f tau)^2 / 2) --
    the same kernel the simulator realizes shot by shot.
    """
    delays_us = np.asarray(delays_us, dtype=float)
    contrasts = np.asarray(contrasts, dtype=float)
    if len(delays_us) < RAMSEY_MIN_DELAYS:
        raise ValidationError(f"need at least {RAMSEY_MIN_DELAYS} delays")
    if np.ptp(contrasts) < 1e-9:
        raise FitError("contrast curve is flat; noise parameters unidentifiable")
    try:
        popt, _ = scipy.optimize.curve_fit(
            ramsey_contrast_model, delays_us, contrasts,
            p0=(0.01, 200.0), bounds=([0.0, 0.0], [1.0, 1e5]), maxfev=10000)
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


def _populations(n_th: float, n_coh: float, tail_tol: float
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, dp/dn_th, dp/dn_coh) at the truncation that meets ``tail_tol``."""
    # p_n = (1 - r) exp(-n_coh / a) q_n with a = 1 + n_th, r = n_th / a and
    # q_n = r^n L_n(-n_coh / (n_th a)) (P. Marian & T. A. Marian, PRA 47,
    # 4474 (1993)).  With y = n_coh / a^2 the Laguerre recurrence reads
    #   (n + 1) q_{n+1} = (r (2n + 1) + y) q_n - n r^2 q_{n-1},
    # which is Poisson at n_th = 0 and extends to a larger truncation.  q
    # peaks near e^(n_coh / a): each time it passes 1e100 all of q is divided
    # by 1e100 and log_scale keeps the factor.  The Laguerre identities
    # dq_n/dr = n q_{n-1} and dq_n/dy = sum_{k<n} r^(n-1-k) q_k give the
    # derivatives on the same scale.
    if not (0 <= n_th < math.inf and 0 <= n_coh < math.inf):
        raise ValidationError("n_th and n_coh must be finite and nonnegative")
    if n_th + n_coh >= _MAX_DIM:
        raise TruncationError(f"mean occupation beyond {_MAX_DIM} Fock states")
    dim = _auto_dim(n_th, n_coh, tail_tol)
    a = 1.0 + n_th
    r, y = n_th / a, n_coh / a ** 2
    q, log_scale = [1.0, r + y], 0.0
    while True:
        for n in range(len(q) - 1, dim - 1):
            q.append(((r * (2 * n + 1) + y) * q[n] - n * r * r * q[n - 1]) / (n + 1))
            if q[-1] > 1e100:
                q = [q_k * 1e-100 for q_k in q]
                log_scale += 100.0 * math.log(10.0)
        norm = math.exp(log_scale - n_coh / a) / a
        p = norm * np.array(q[:dim])
        tail = float((1.0 - p.sum()) + p[-2:].sum())
        if tail <= tail_tol:
            break
        if dim >= _MAX_DIM:
            raise TruncationError(
                f"truncation tail {tail:.2e} at {dim} Fock states exceeds "
                f"{tail_tol:.0e}")
        dim = min(dim + max(64, 2 ** (dim.bit_length() - 3)), _MAX_DIM)  # next grid size
    q_y = [0.0]
    for q_k in q[:dim - 1]:
        q_y.append(r * q_y[-1] + q_k)
    q, q_y = np.array(q[:dim]), np.array(q_y)
    q_r = np.arange(dim) * np.concatenate([[0.0], q[:-1]])
    # dr/dn_th = 1/a^2, dy/dn_th = -2 y/a, dy/dn_coh = 1/a^2; the prefactor
    # norm = exp(-n_coh/a)/a has derivatives norm (n_coh/a - 1)/a and -norm/a.
    return (p, (p * (n_coh / a - 1.0) + norm * (q_r / a - 2.0 * y * q_y)) / a,
            (norm * q_y / a - p) / a)


def displaced_thermal_populations(n_th: float, n_coh: float,
                                  tail_tol: float = 1e-6) -> np.ndarray:
    """Fock populations p_0 .. p_{dim-1} of a displaced thermal state.

    The thermal state of mean occupation ``n_th`` displaced by |alpha|^2 =
    ``n_coh`` has the closed form p_n = (1 - r) exp(-n_coh / (1 + n_th))
    r^n L_n(-n_coh / (n_th (1 + n_th))), r = n_th / (1 + n_th), evaluated by
    a forward Laguerre recurrence in O(dim).  The truncation grows until the
    tail meets ``tail_tol``; a TruncationError reports a tail that 4096
    states cannot meet.
    """
    return _populations(n_th, n_coh, tail_tol)[0]


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
    # Round up to a quarter of the enclosing power of two, 64 at least: never
    # below the old bucket sizes, as a tighter truncation biased the cold n_coh.
    step = max(64, 2 ** (math.floor(math.log2(base)) - 2))
    return min(_MAX_DIM, step * math.ceil(base / step))


def sideband_rabi_signal(occ: MotionalOccupation, times_us,
                         tail_tol: float = 1e-6) -> np.ndarray:
    """Expected bright-ion count (0..2) on the blue sideband versus pulse time.

    Each ion is treated as an independent two-level system sharing the mode
    distribution, flopping at Omega_n = Omega * eta * sqrt(n + 1).
    """
    times_s = np.asarray(times_us, dtype=float) * 1e-6
    pops = displaced_thermal_populations(occ.n_th, occ.n_coh, tail_tol=tail_tol)
    omega_n = occ.rabi_omega * occ.eta * np.sqrt(np.arange(len(pops)) + 1.0)
    flop = np.outer(times_s, 0.5 * omega_n)
    return 2.0 * (np.square(np.sin(flop, out=flop), out=flop) @ pops)


def _sideband_model(params: np.ndarray, times_s: np.ndarray, eta: float,
                    tail_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """sideband_rabi_signal at (Omega, n_th, n_coh) and its Jacobian rows."""
    pops, d_th, d_coh = _populations(params[1], params[2], tail_tol)
    # 2 sin^2(x/2) with x = Omega rate t, rate = eta sqrt(n + 1); d/dOmega is
    # 2 sin(x/2) cos(x/2) rate t.  At most two times x dim tables are alive.
    rate = eta * np.sqrt(np.arange(len(pops)) + 1.0)
    half = np.outer(times_s, 0.5 * params[0] * rate)
    sin = np.sin(half)
    sin_cos = np.multiply(sin, np.cos(half, out=half), out=half)
    d_omega = times_s * (sin_cos @ (2.0 * rate * pops))
    flop = 2.0 * (np.square(sin, out=sin) @ np.stack([pops, d_th, d_coh], 1))
    return flop[:, 0], np.column_stack([d_omega, flop[:, 1:]])


def _lombscargle(t: np.ndarray, y: np.ndarray,
                 angular_freqs: np.ndarray) -> np.ndarray:
    # The default path of scipy.signal.lombscargle (SciPy 1.17: unit weights,
    # floating_mean=False, normalize="power"), operation for operation, so
    # its argmax is the same without importing scipy.signal.  Blocks of
    # _PERIODOGRAM_BLOCK frequencies keep each table at times x 64 floats.
    w = np.full((1, len(t)), 1.0 / len(t))
    wy = w * y
    out = np.empty(len(angular_freqs))
    for i in range(0, len(angular_freqs), _PERIODOGRAM_BLOCK):
        block = slice(i, i + _PERIODOGRAM_BLOCK)
        wt = angular_freqs[block].reshape(1, -1) * t.reshape(-1, 1)
        cos, sin = np.cos(wt), np.sin(wt)
        cc, cs = np.dot(w, cos * cos), np.dot(w, cos * sin)
        wt -= 0.5 * np.arctan2(2.0 * cs, cc - (1.0 - cc))  # tau
        cos, sin = np.cos(wt), np.sin(wt)
        yc, ys = np.dot(wy, cos), np.dot(wy, sin)
        cc = np.dot(w, cos * cos)
        cc, ss = (np.maximum(v, np.finfo(float).epsneg) for v in (cc, 1.0 - cc))
        out[block] = 2.0 * (yc / cc * yc + ys / ss * ys)[0]
    return out * (len(t) / 4.0)


def fit_heating(times_us, signals,
                eta: float = 0.039) -> tuple[MotionalOccupation, np.ndarray]:
    """Fit (Omega, n_th, n_coh) to a sideband Rabi curve.

    Multi-start bounded least squares; one model evaluation per trial point
    gives the residuals and the analytic Jacobian.  Each start gets 20
    evaluations; the lowest cost (ties: lowest start index) goes on for 60 more
    if unconverged, and failing that the best start converged at 20 wins.  A
    start that ends within 1e-6 of the n_th or n_coh bound (50) is not a fit
    and is never taken.  Returns the occupation and the 3x3 parameter
    covariance at the optimum.
    """
    if not (math.isfinite(eta) and eta > 0):
        raise ValidationError(f"eta must be finite and > 0, got {eta}")
    times_us = np.asarray(times_us, dtype=float)
    signals = np.asarray(signals, dtype=float)
    if not (np.all(np.isfinite(times_us)) and np.all(np.isfinite(signals))):
        raise ValidationError("times and signals must be finite")
    t_s = times_us * 1e-6
    distinct = np.unique(t_s)
    if len(distinct) < 8:
        raise ValidationError(
            f"need at least 8 distinct time points, got {len(distinct)}")
    if np.ptp(signals) < 1e-9:
        raise FitError("flat sideband signal; occupation unidentifiable")

    # The dominant periodogram frequency approximates the sideband rate of the
    # distribution's modal Fock state, Omega * eta * sqrt(n_mode + 1) / 2 pi.
    # Seeding Omega from it per start avoids the aliased local optima that a
    # free Rabi frequency produces in this comb-of-frequencies model.
    span = float(distinct[-1] - distinct[0])
    dt = float(np.median(np.diff(distinct)))
    freqs = np.linspace(0.25 / span, 0.5 / dt, 512)
    pgram = _lombscargle(t_s, signals - signals.mean(), 2.0 * math.pi * freqs)
    f_dom = float(freqs[int(np.argmax(pgram))])

    start_ns = [(0.3, 0.1), (2.0, 0.5), (6.0, 0.5), (3.0, 8.0), (25.0, 15.0)]
    omega_hi = 4.0 * math.pi * f_dom / eta  # n_mode = 0 rate, 2x margin
    last = [None, None]  # the latest residuals point and its Jacobian

    def residuals(params: np.ndarray) -> np.ndarray:
        # A loosened truncation tail (1e-4) biases the model curve far less
        # than the data noise while keeping the Fock space small during search.
        signal, last[1] = _sideband_model(params, t_s, eta, 1e-4)
        last[0] = params.copy()
        return signal - signals

    def jac(params: np.ndarray) -> np.ndarray:
        if not np.array_equal(params, last[0]):
            residuals(params)
        return last[1]

    def solve(x0: np.ndarray, x_scale: list, max_nfev=_FIRST_ROUND_NFEV):
        try:
            return scipy.optimize.least_squares(
                residuals, x0=x0, jac=jac,
                bounds=([0.0, 0.0, 0.0],
                        [omega_hi, _MAX_OCCUPATION, _MAX_OCCUPATION]),
                x_scale=x_scale, xtol=1e-8, ftol=1e-8, max_nfev=max_nfev)
        except (ValueError, np.linalg.LinAlgError):
            return None

    def lowest(converged: bool) -> int | None:  # ties go to the lower index
        best = None
        for i, sol in enumerate(firsts):
            if (sol is not None and (sol.success or not converged)
                    and max(sol.x[1:]) < _MAX_OCCUPATION - 1e-6 and (
                    best is None or sol.cost < firsts[best].cost - 1e-15)):
                best = i
        return best

    firsts, scales = [], []
    for n_th0, n_coh0 in start_ns:
        n_mode = int(np.argmax(displaced_thermal_populations(n_th0, n_coh0, 1e-3)))
        omega0 = 2.0 * math.pi * f_dom / (eta * math.sqrt(n_mode + 1.0))
        scales.append([0.05 * omega0, 1.0, 1.0])
        firsts.append(solve(np.array([omega0, n_th0, n_coh0]), scales[-1]))
    # A continuation that converges stays the lowest cost: it only descends.
    lead = lowest(converged=False)
    if lead is not None and not firsts[lead].success:
        firsts[lead] = solve(firsts[lead].x, scales[lead],
                             _MAX_NFEV - _FIRST_ROUND_NFEV)
    lead = lowest(converged=True)
    if lead is None:
        raise FitError("sideband fit failed from every start: none converged "
                       "off the n_th and n_coh bound")
    sol = firsts[lead]
    occ = MotionalOccupation(n_th=float(sol.x[1]), n_coh=float(sol.x[2]),
                             rabi_omega=float(sol.x[0]), eta=eta)
    res_var = 2.0 * sol.cost / max(1, len(times_us) - 3)
    return occ, res_var * np.linalg.pinv(sol.jac.T @ sol.jac)


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
    """The first two columns of a CSV.  Blank and ``#`` lines are skipped;
    only the first remaining row may be a non-numeric header."""
    xs, ys = [], []
    with open(path, newline="") as fh:
        rows = (row for row in csv.reader(fh)
                if row and not row[0].strip().startswith("#"))
        for i, row in enumerate(rows):
            try:
                x, y = float(row[0]), float(row[1])
            except ValueError:
                if i == 0:
                    continue  # header line
                raise ValidationError(
                    f"row {row!r} is not a pair of numbers") from None
            except IndexError:
                raise ValidationError(
                    f"row {row!r} has fewer than two columns") from None
            xs.append(x)
            ys.append(y)
    return np.array(xs), np.array(ys)


def write_series_csv(path: str, xs, ys, header: tuple[str, str]) -> None:
    lines = [f"{header[0]},{header[1]}"]
    lines += [f"{float(x)!r},{float(y)!r}"
              for x, y in zip(np.asarray(xs), np.asarray(ys))]
    atomic_write_text(path, "\n".join(lines) + "\n")
