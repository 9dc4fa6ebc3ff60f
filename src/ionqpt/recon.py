"""Reconstruction of chi from shot datasets.

``linear_inversion`` solves for the one Choi matrix that reproduces the
frequencies exactly (``protocol.invert_p2``); it is fast but can return
unphysical (non-PSD, non-TP) matrices when the data are noisy.
``mle_reconstruct`` maximizes the per-sequence binomial likelihood of the
both-bright counts over CPTP maps; P1/P0 counts are ignored by design.  It
runs L-BFGS (``scipy.optimize``) on -log L over a 16x16 factor T from
T = I/2: J = K T T^dag K with K = Lambda^(-1/2) (x) I and
Lambda = Tr_out(T T^dag), so every J is CPTP and J = I/4 at the start.
Each iterate's state (T, J, log L, R, K and Lambda) is computed once; from
it, and only for L-BFGS, the gradient is 2 (K R K + D(q) (x) I) T, with R
below, X = T T^dag, q = Tr_out(X K R + R K X) and D the Frechet derivative
of Lambda^(-1/2).  At every accepted iterate the solve checks the duality gap
4 lambda_max(R - Lambda_0 (x) I), Lambda_0 = herm Tr_out(R J).  log L is
concave and Tr(R J') <= Tr Lambda for every CPTP J' once Lambda (x) I >= R,
so the gap bounds log L* - log L(J) over all CPTP maps; the solve stops once
it is at most ``GAP_TOLERANCE``.  If the line search stalls in floating point
first, the fixed-point step of Jezek, Fiurasek & Hradil, PRA 68, 012305
(2003), finishes on the same factor: T <- R_hat K T, with R_hat the scaled
gradient operator, read from the state.  Since J = K T T^dag K, the factor
map turns it into J <- Lambda^(-1/2) R_hat J R_hat Lambda^(-1/2) with
Lambda = Tr_out(R_hat J R_hat), and every finisher step is an accepted
iterate with its gap checked, as above.

The solve reads the forward model of ``protocol``: sequence
k = 16*a + b prepares rho_a and has the both-bright effect
E_k = rho_a^T (x) M_b.  p_k = Tr(J E_k) is ``forward_p2``.  With
w = n2/p - n_other/(1-p) and b = n_other/(1-p), the gradient operator is
R = sum_k w_k E_k + (sum_k b_k rho_a^T) (x) I, because the effect of the
other outcomes is rho_a^T (x) I - E_k: ``adjoint_p2`` of w plus the 16
preparations weighted by the row sums of b over the measurements.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ionsim import ShotDataset
from .process import (
    CptpDiagnostics,
    ProcessMatrix,
    _partial_trace_out,
    choi_to_chi,
    process_fidelity,
    unitary_to_chi,
    validate_cptp,
)
from .protocol import adjoint_p2, design_factors, forward_p2, invert_p2
from .qmath import ValidationError

__all__ = [
    "MAX_ITERATIONS",
    "GAP_TOLERANCE",
    "MleResult",
    "LinearInversionDiagnostics",
    "BootstrapReport",
    "linear_inversion",
    "mle_reconstruct",
    "bootstrap_statistic",
    "bootstrap_fidelity",
]


MAX_ITERATIONS = 20000
GAP_TOLERANCE = 1e-3  # nats


@dataclass
class MleResult:
    log_likelihoods: np.ndarray  # of J = I/4, then every accepted iterate
    gap: float  # duality bound on log L* - log L of the returned J
    stop_reason: str  # "gap" (certified) or "budget"

    @property
    def iterations(self) -> int:
        return len(self.log_likelihoods)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "gap"

    @property
    def final_log_likelihood(self) -> float:
        return float(self.log_likelihoods[-1])


@dataclass(frozen=True)
class LinearInversionDiagnostics(CptpDiagnostics):
    """The CPTP diagnostics of the inversion chi, and the trace it had
    before normalization."""

    raw_trace: float


@dataclass
class BootstrapReport:
    replicas: int
    fidelity_samples: np.ndarray
    std: float
    # Replicas whose MLE ran out of iterations; their samples are in the
    # spread all the same.
    unconverged: int


def linear_inversion(dataset: ShotDataset
                     ) -> tuple[ProcessMatrix, LinearInversionDiagnostics]:
    """chi by exact linear inversion of the frequencies; Hermitian and
    trace-normalized but not necessarily PSD or trace preserving."""
    j = invert_p2(dataset.frequencies)
    chi = choi_to_chi(0.5 * (j + j.conj().T))
    raw_trace = float(chi.trace().real)
    # A quarter of the summed frequencies of the 16 sequences that prepare
    # and measure with I and X_pi only; round-off alone when those are all 0.
    if raw_trace <= 1e-12:
        raise ValidationError("linear inversion has zero trace: no both-"
                              "bright counts where only I and X_pi are used")
    chi = ProcessMatrix(chi / raw_trace, validate=False)
    return chi, LinearInversionDiagnostics(**vars(validate_cptp(chi)),
                                           raw_trace=raw_trace)


_EYE4 = np.eye(4)
# Predicted probabilities are clipped to [floor, 1 - floor] so that log L
# stays finite.
_PROBABILITY_FLOOR = 1e-12


def _kron_eye4(m: np.ndarray) -> np.ndarray:
    """kron(m, I_4) of a 4x4 matrix."""
    return (m[:, None, :, None] * _EYE4[None, :, None, :]).reshape(16, 16)


def _sqrt_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, v) with herm(m) = v diag(s^2) v^dag, s^2 floored to keep s > 0."""
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    return np.sqrt(np.clip(w, 1e-14 * max(w[-1], 1e-300), None)), v


def _duality_gap(r: np.ndarray, j: np.ndarray) -> float:
    """4 lambda_max(R - Lambda_0 (x) I) with Lambda_0 = herm Tr_out(R J)."""
    lam0 = _partial_trace_out(r @ j)
    lam0 = 0.5 * (lam0 + lam0.conj().T)
    return 4.0 * float(np.linalg.eigvalsh(r - _kron_eye4(lam0))[-1])


def _likelihood(j: np.ndarray, n2: np.ndarray, n_other: np.ndarray
                ) -> tuple[np.ndarray, float, np.ndarray]:
    """(p, log L, R) of the counts at J."""
    p = np.clip(forward_p2(j), _PROBABILITY_FLOOR, 1.0 - _PROBABILITY_FLOOR)
    b = n_other / (1.0 - p)
    prep_sums = b.reshape(16, 16).sum(axis=1)
    # Row a of design factor A is vec(rho_a).
    r = adjoint_p2(n2 / p - b) + _kron_eye4(
        (prep_sums @ design_factors()[0]).reshape(4, 4).T)
    return p, float(n2 @ np.log(p) + n_other @ np.log1p(-p)), r


def _budget(max_iterations: int | None) -> int:
    """The iteration budget: ``MAX_ITERATIONS`` for None, else at least 1."""
    budget = MAX_ITERATIONS if max_iterations is None else max_iterations
    if budget < 1:
        raise ValidationError("max_iterations must be >= 1")
    return budget


def _factor_state(x: np.ndarray, n2: np.ndarray, n_other: np.ndarray):
    """(T, J, log L, R, K, X, s, v) of the factor T viewed as the 512 floats
    ``x``: X = T T^dag, Lambda = Tr_out X = v diag(s^2) v^dag."""
    t = x.view(complex).reshape(16, 16)
    xx = t @ t.conj().T
    s, v = _sqrt_eigh(_partial_trace_out(xx))
    k = _kron_eye4((v / s) @ v.conj().T)
    j = k @ xx @ k
    j = 0.5 * (j + j.conj().T)
    _, log_l, r = _likelihood(j, n2, n_other)
    return t, j, log_l, r, k, xx, s, v


def _factor_gradient(t, j, log_l, r, k, xx, s, v) -> np.ndarray:
    """(K R K + D(q) (x) I) T, half the gradient of log L in T."""
    kr = k @ r
    xkr = xx @ kr
    # D in Lambda's eigenbasis: divided differences -1/(s s' (s + s'))
    q = v.conj().T @ _partial_trace_out(xkr + xkr.conj().T) @ v
    dq = v @ (q / -(s[:, None] * s * (s[:, None] + s))) @ v.conj().T
    return (kr @ k + _kron_eye4(dq)) @ t


def _mle(n2: np.ndarray, shots: int, max_iterations: int
         ) -> tuple[ProcessMatrix, MleResult]:
    """Run the solve on the counts ``n2`` of ``shots`` shots each."""
    from scipy.optimize import minimize

    n_other = shots - n2
    # Balance scales so that Tr(R_hat J) = Tr(I J) = 4 at the current J.
    scale = 4.0 / (shots * n2.size)
    # the last x and its state; x is copied, as scipy reuses its arrays
    memo = []
    log_ls: list[float] = []
    accepted = []  # the state and gap of the last accepted iterate

    def state(x: np.ndarray) -> tuple:
        if not memo or not np.array_equal(x, memo[0]):
            x = x.copy()
            memo[:] = [x, _factor_state(x, n2, n_other)]
        return memo[1]

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        st = state(x)
        return (-scale * st[2],
                -2.0 * scale * _factor_gradient(*st).view(float).ravel())

    def accept(x: np.ndarray) -> None:
        st = state(x)
        log_ls.append(st[2])
        accepted[:] = [st, _duality_gap(st[3], st[1])]
        if accepted[1] <= GAP_TOLERANCE or len(log_ls) == max_iterations:
            raise StopIteration

    x0 = (np.eye(16, dtype=complex) / 2.0).view(float).ravel()
    try:
        accept(x0)
        minimize(objective, x0, jac=True, method="L-BFGS-B", callback=accept,
                 options={"maxiter": max_iterations, "ftol": 0.0, "gtol": 0.0})
        # The fixed-point finisher, if the line search stalled first; scipy
        # returns normally when the callback stops it.
        while accepted[1] > GAP_TOLERANCE and len(log_ls) < max_iterations:
            t, _, _, r, k, *_ = accepted[0]
            accept(((scale * r) @ k @ t).view(float).ravel())
    except StopIteration:
        pass
    (_, j, *_), gap = accepted
    return (ProcessMatrix(choi_to_chi(j)),
            MleResult(np.array(log_ls), gap,
                      "gap" if gap <= GAP_TOLERANCE else "budget"))


def mle_reconstruct(dataset: ShotDataset, max_iterations: int | None = None
                    ) -> tuple[ProcessMatrix, MleResult]:
    """CPTP maximum-likelihood chi for the dataset's both-bright counts."""
    return _mle(dataset.n2, dataset.plan.shots_per_sequence,
                _budget(max_iterations))


def bootstrap_statistic(dataset: ShotDataset, max_iterations: int | None,
                        statistic: Callable[[ProcessMatrix], float],
                        replicas: int, seed: int,
                        results: list[MleResult] | None = None) -> np.ndarray:
    """Resample counts binomially, re-run MLE, evaluate a scalar statistic.

    Each replica draws n2' ~ Binomial(shots, n2/shots) from its own seeded
    stream, so results are independent of execution order.  If ``results``
    is given, each replica's ``MleResult`` is appended to it in replica order.
    """
    if replicas < 2:
        raise ValidationError("bootstrap needs at least 2 replicas")
    budget = _budget(max_iterations)
    shots = dataset.plan.shots_per_sequence
    freq = dataset.frequencies
    values = []
    for r in range(replicas):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        chi, result = _mle(rng.binomial(shots, freq).astype(float), shots,
                           budget)
        values.append(float(statistic(chi)))
        if results is not None:
            results.append(result)
    return np.array(values)


def bootstrap_fidelity(dataset: ShotDataset, max_iterations: int | None,
                       ideal_u: np.ndarray, replicas: int,
                       seed: int) -> BootstrapReport:
    """Bootstrap standard deviation of F_p versus a unitary target."""
    chi_ideal = unitary_to_chi(ideal_u)
    results: list[MleResult] = []
    samples = bootstrap_statistic(
        dataset, max_iterations,
        lambda chi: process_fidelity(chi, chi_ideal),
        replicas, seed, results)
    return BootstrapReport(replicas=replicas, fidelity_samples=samples,
                           std=float(np.std(samples, ddof=1)),
                           unconverged=sum(not r.converged for r in results))
