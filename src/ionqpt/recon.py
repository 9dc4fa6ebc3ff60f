"""Reconstruction of chi from shot datasets.

``linear_inversion`` solves the 256x256 linear system from frequencies and is
fast but can return unphysical (non-PSD) matrices when the data are noisy.
``mle_reconstruct`` maximizes the per-sequence binomial likelihood of the
both-bright counts over CPTP maps, parameterized by the Choi matrix J, with
the diluted fixed-point iteration of Jezek, Fiurasek & Hradil, PRA 68, 012305
(2003): J <- Lambda^-1 R_d J R_d Lambda^-1, where R_d mixes the likelihood
gradient operator R with the identity for stability and
Lambda = (Tr_out[R_d J R_d])^(1/2) (x) I enforces trace preservation each
step.  Only P2 enters the likelihood; P1/P0 counts are ignored by design.

Both halves of an iteration read the plan's cached effect matrix E, whose
row k is vec(rho_k^T (x) M_k) (``protocol.effect_matrix``, kept as a real
matrix F).  The probabilities p_k = Tr(J E_k) are one matrix-vector product
of F with the real view of vec J.  With w = n2/p - n_other/(1-p) and
b = n_other/(1-p), the gradient operator is
R = sum_k w_k E_k + (sum_k b_k rho_k^T) (x) I, because the effect of the
other outcomes is rho_k^T (x) I - E_k: one product w @ F plus a 16-term sum.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ionsim import ShotDataset
from .process import (
    ProcessMatrix,
    choi_to_chi,
    process_fidelity,
    project_to_physical,
    unitary_to_chi,
)
from .protocol import effect_matrix, inversion_map
from .qmath import ValidationError

__all__ = [
    "IdentifiabilityError",
    "MleConfig",
    "MleResult",
    "LinearInversionDiagnostics",
    "BootstrapReport",
    "linear_inversion",
    "mle_reconstruct",
    "bootstrap_statistic",
    "bootstrap_fidelity",
    "max_threads",
]


class IdentifiabilityError(ValueError):
    """The plan's design matrix does not determine chi uniquely."""


@dataclass(frozen=True)
class MleConfig:
    """Controls of the iterative MLE scheme (the algorithm itself leaves
    stopping rules and stabilization unspecified; these are our choices)."""

    max_iterations: int = 20000
    log_likelihood_tolerance: float = 1e-10
    dilution: float = 0.5
    epsilon_probability_floor: float = 1e-12

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if self.log_likelihood_tolerance <= 0:
            raise ValidationError("log_likelihood_tolerance must be > 0")
        if not (0.0 < self.dilution <= 1.0):
            raise ValidationError("dilution must be in (0, 1]")
        if not (0.0 < self.epsilon_probability_floor < 0.5):
            raise ValidationError("epsilon_probability_floor must be in (0, 0.5)")


@dataclass
class MleResult:
    iterations: int
    log_likelihoods: np.ndarray
    converged: bool

    @property
    def final_log_likelihood(self) -> float:
        return float(self.log_likelihoods[-1])


@dataclass(frozen=True)
class LinearInversionDiagnostics:
    min_eigenvalue: float
    raw_trace: float

    @property
    def physical(self) -> bool:
        return self.min_eigenvalue >= -1e-8


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
    """Least-squares chi from frequencies; Hermitian and trace-normalized but
    not necessarily PSD."""
    rank, inverse = inversion_map(dataset.plan)
    if inverse is None:
        raise IdentifiabilityError(
            f"plan design rank {rank} < 256; chi is not identifiable")
    chi = (inverse @ dataset.frequencies).reshape(16, 16)
    raw_trace = float(chi.trace().real)
    chi = chi / raw_trace
    min_eig = float(np.linalg.eigvalsh(0.5 * (chi + chi.conj().T))[0])
    return (ProcessMatrix(chi, validate=False),
            LinearInversionDiagnostics(min_eigenvalue=min_eig,
                                       raw_trace=raw_trace))


_EYE4 = np.eye(4)


def _kron_eye4(m: np.ndarray) -> np.ndarray:
    """kron(m, I_4) of a 4x4 matrix."""
    return (m[:, None, :, None] * _EYE4[None, :, None, :]).reshape(16, 16)


def _partial_trace_out(g: np.ndarray) -> np.ndarray:
    return np.einsum("iaja->ij", g.reshape(4, 4, 4, 4))


def _psd_sqrt_inv(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    w = np.clip(w, 1e-14 * max(w[-1], 1e-300), None)
    return (v / np.sqrt(w)) @ v.conj().T


def _mle_choi(dataset: ShotDataset, config: MleConfig
              ) -> tuple[np.ndarray, list[float], bool]:
    """Run the iteration; returns the last Choi matrix J, the log-likelihood
    of every iterate before it, and whether the stop rule was met."""
    plan = dataset.plan
    shots = plan.shots_per_sequence
    n2 = dataset.n2
    n_other = shots - n2
    total = float(shots * plan.n_sequences)
    forward, rho_t = effect_matrix(plan)
    eps = config.epsilon_probability_floor
    d = config.dilution
    eye16 = np.eye(16, dtype=complex)

    j = eye16 / 4.0  # maximally mixed channel, trivially CPTP
    log_ls: list[float] = []
    converged = False
    for _ in range(config.max_iterations):
        # j is C-contiguous complex, so its float view is vec J with Re and
        # Im interleaved, the column order of ``forward``.
        p = forward @ j.view(float).ravel()
        p = np.clip(p, eps, 1.0 - eps)
        log_l = float(n2 @ np.log(p) + n_other @ np.log1p(-p))
        if log_ls and abs(log_l - log_ls[-1]) < config.log_likelihood_tolerance:
            log_ls.append(log_l)
            converged = True
            break
        log_ls.append(log_l)
        b = n_other / (1.0 - p)
        r = (((n2 / p - b) @ forward).view(complex).reshape(16, 16)
             + _kron_eye4((b @ rho_t).reshape(4, 4)))
        # Balance scales so that Tr(R_hat J) = Tr(I J) = 4 at the current J.
        r_d = (1.0 - d) * eye16 + d * (4.0 / total) * r
        g = r_d @ j @ r_d
        lam_inv = _kron_eye4(_psd_sqrt_inv(_partial_trace_out(g)))
        j = lam_inv @ g @ lam_inv
        j = 0.5 * (j + j.conj().T)
    return j, log_ls, converged


def mle_reconstruct(dataset: ShotDataset, config: MleConfig | None = None
                    ) -> tuple[ProcessMatrix, MleResult]:
    """CPTP maximum-likelihood chi for the dataset's both-bright counts."""
    j, log_ls, converged = _mle_choi(dataset, config or MleConfig())
    chi = project_to_physical(choi_to_chi(j))
    result = MleResult(iterations=len(log_ls), log_likelihoods=np.array(log_ls),
                       converged=converged)
    return ProcessMatrix(chi), result


def max_threads() -> int:
    """Internal parallelism cap from the QPT_THREADS environment variable."""
    try:
        return max(1, int(os.environ.get("QPT_THREADS", "1")))
    except ValueError:
        return 1


def bootstrap_statistic(dataset: ShotDataset, config: MleConfig | None,
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
    plan = dataset.plan
    shots = plan.shots_per_sequence
    freq = dataset.frequencies

    def one(r: int) -> tuple[float, MleResult]:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        resampled = ShotDataset(plan=plan, noise=dataset.noise,
                                process=dataset.process, seed=None,
                                n2=rng.binomial(shots, freq).astype(float))
        chi, result = mle_reconstruct(resampled, config)
        return float(statistic(chi)), result

    workers = max_threads()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outs = list(pool.map(one, range(replicas)))
    else:
        outs = [one(r) for r in range(replicas)]
    if results is not None:
        results.extend(result for _, result in outs)
    return np.array([value for value, _ in outs])


def bootstrap_fidelity(dataset: ShotDataset, config: MleConfig | None,
                       ideal_u: np.ndarray, replicas: int,
                       seed: int) -> BootstrapReport:
    """Bootstrap standard deviation of F_p versus a unitary target."""
    chi_ideal = unitary_to_chi(ideal_u)
    results: list[MleResult] = []
    samples = bootstrap_statistic(
        dataset, config,
        lambda chi: process_fidelity(chi, chi_ideal).fidelity,
        replicas, seed, results)
    return BootstrapReport(replicas=replicas, fidelity_samples=samples,
                           std=float(np.std(samples, ddof=1)),
                           unconverged=sum(not r.converged for r in results))
