"""Reconstruction of chi from shot datasets.

``linear_inversion`` solves for the one Choi matrix that reproduces the
frequencies exactly (``protocol.invert_p2``); it is fast but can return
unphysical (non-PSD, non-TP) matrices when the data are noisy.
``mle_reconstruct`` maximizes the per-sequence binomial likelihood of the
both-bright counts over CPTP maps, parameterized by the Choi matrix J, with
the diluted fixed-point iteration of Jezek, Fiurasek & Hradil, PRA 68, 012305
(2003): J <- Lambda^-1 R_d J R_d Lambda^-1, where R_d = (1 - d) I + d R_hat
mixes the scaled likelihood gradient operator R with the identity and
Lambda = (Tr_out[R_d J R_d])^(1/2) (x) I enforces trace preservation each
step.  Only P2 enters the likelihood; P1/P0 counts are ignored by design.

The dilution d adapts as in Rehacek, Hradil, Knill & Lvovsky, PRA 75, 042108
(2007): it starts at 1/2 and grows x1.1, up to 1, after each step that
raises log L; a larger trial that would lower log L is dropped for the step
at the base dilution.  Every 10 iterations the solve
checks the duality gap 4 lambda_max(R - Lambda_0 (x) I), Lambda_0 =
herm Tr_out(R J).  log L is concave and Tr(R J') <= Tr Lambda for every CPTP
J' once Lambda (x) I >= R, so the gap bounds log L* - log L(J) over all CPTP
maps; the solve stops once it is at most ``GAP_TOLERANCE``.

Both halves of an iteration read the forward model of ``protocol``: sequence
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
    log_likelihoods: np.ndarray  # of every accepted iterate
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
    physical = property(CptpDiagnostics.is_physical)


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
_EYE16 = np.eye(16)
# Predicted probabilities are clipped to [floor, 1 - floor] so that log L
# stays finite.
_PROBABILITY_FLOOR = 1e-12
# Adaptive dilution: after each step that raises log L the dilution grows by
# this factor, up to the cap; a larger trial that lowers log L is replaced by
# the step at the base dilution, from where the growth starts again.  With
# d <= 1, R_d = (1 - d) I + d R_hat is a convex mix of two PSD operators.
_DILUTION_BASE = 0.5
_DILUTION_GROWTH = 1.1
_DILUTION_CAP = 1.0
_GAP_CHECK_EVERY = 10


def _kron_eye4(m: np.ndarray) -> np.ndarray:
    """kron(m, I_4) of a 4x4 matrix."""
    return (m[:, None, :, None] * _EYE4[None, :, None, :]).reshape(16, 16)


def _psd_sqrt_inv(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    w = np.clip(w, 1e-14 * max(w[-1], 1e-300), None)
    return (v / np.sqrt(w)) @ v.conj().T


def _dilute_step(j: np.ndarray, r_hat: np.ndarray, d: float) -> np.ndarray:
    """One step from J at dilution d, R_hat being the scaled gradient."""
    r_d = (1.0 - d) * _EYE16 + d * r_hat
    g = r_d @ j @ r_d
    lam_inv = _kron_eye4(_psd_sqrt_inv(_partial_trace_out(g)))
    j = lam_inv @ g @ lam_inv
    return 0.5 * (j + j.conj().T)


def _duality_gap(r: np.ndarray, j: np.ndarray) -> float:
    """4 lambda_max(R - Lambda_0 (x) I) with Lambda_0 = herm Tr_out(R J)."""
    lam0 = _partial_trace_out(r @ j)
    lam0 = 0.5 * (lam0 + lam0.conj().T)
    return 4.0 * float(np.linalg.eigvalsh(r - _kron_eye4(lam0))[-1])


def _likelihood(n2: np.ndarray, shots: int):
    """``evaluate(J) -> (p, log L)`` and ``gradient(p) -> R`` of the counts."""
    n_other = shots - n2

    def evaluate(j: np.ndarray) -> tuple[np.ndarray, float]:
        p = np.clip(forward_p2(j), _PROBABILITY_FLOOR, 1.0 - _PROBABILITY_FLOOR)
        return p, float(n2 @ np.log(p) + n_other @ np.log1p(-p))

    def gradient(p: np.ndarray) -> np.ndarray:
        b = n_other / (1.0 - p)
        prep_sums = b.reshape(16, 16).sum(axis=1)
        # Row a of design factor A is vec(rho_a).
        return (adjoint_p2(n2 / p - b) + _kron_eye4(
            (prep_sums @ design_factors()[0]).reshape(4, 4).T))

    return evaluate, gradient


def _budget(max_iterations: int | None) -> int:
    """The iteration budget: ``MAX_ITERATIONS`` for None, else at least 1."""
    budget = MAX_ITERATIONS if max_iterations is None else max_iterations
    if budget < 1:
        raise ValidationError("max_iterations must be >= 1")
    return budget


def _mle(n2: np.ndarray, shots: int, max_iterations: int
         ) -> tuple[ProcessMatrix, MleResult]:
    """Run the iteration on the counts ``n2`` of ``shots`` shots each."""
    evaluate, gradient = _likelihood(n2, shots)
    # Balance scales so that Tr(R_hat J) = Tr(I J) = 4 at the current J.
    scale = 4.0 / (shots * n2.size)
    d = _DILUTION_BASE
    j = np.eye(16, dtype=complex) / 4.0  # maximally mixed, trivially CPTP
    p, log_l = evaluate(j)
    log_ls = [log_l]
    while True:
        r = gradient(p)
        n = len(log_ls)
        if n % _GAP_CHECK_EVERY == 0 or n == max_iterations:
            gap = _duality_gap(r, j)
            converged = gap <= GAP_TOLERANCE
            if converged or n == max_iterations:
                break
        r_hat = scale * r
        trial = _dilute_step(j, r_hat, d)
        p_trial, log_trial = evaluate(trial)
        if log_trial < log_l and d > _DILUTION_BASE:
            d = _DILUTION_BASE
            trial = _dilute_step(j, r_hat, d)
            p_trial, log_trial = evaluate(trial)
        if log_trial > log_l:
            d = min(d * _DILUTION_GROWTH, _DILUTION_CAP)
        j, p, log_l = trial, p_trial, log_trial
        log_ls.append(log_l)
    return (ProcessMatrix(choi_to_chi(j)),
            MleResult(np.array(log_ls), gap, "gap" if converged else "budget"))


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
