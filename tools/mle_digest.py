"""Print one SHA-256 digest of a fixed set of maximum-likelihood solves.

The solves are the 500-shot paper-noise identity, delay and ms datasets at
seed 11; the 50-shot noiseless ms datasets at seeds 0, 1 and 2; and the
replicas of two bootstraps whose solves reach the fixed-point finisher: the
2000-shot paper-noise identity dataset at seed 11 (bootstrap seed 9, 12
replicas) and the 2000-shot drift-only identity dataset at seed 7 (bootstrap
seed 5, 16 replicas). Each solve feeds its iteration count, stop reason, gap,
the float64 bytes of its log L history and the complex128 bytes of its chi
into one SHA-256. A change that keeps every solve's arithmetic keeps the
digest; round-off differs between machines and BLAS builds, so compare two
commits on one machine, with one BLAS thread. It takes a few seconds:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/mle_digest.py
"""
import hashlib

import numpy as np

from ionqpt.ionsim import (NoiseModel, ProcessSpec, generate_dataset,
                           plan_for_process)
from ionqpt.recon import bootstrap_statistic, mle_reconstruct

digest = hashlib.sha256()


def add(chi, result):
    digest.update(f"{result.iterations} {result.stop_reason} ".encode())
    digest.update(np.float64(result.gap).tobytes())
    digest.update(result.log_likelihoods.tobytes())
    digest.update(chi.chi.tobytes())


def dataset(process, noise, shots, seed):
    return generate_dataset(plan_for_process(process, shots), process, noise,
                            seed)


for process in (ProcessSpec.identity(), ProcessSpec.delay(), ProcessSpec.ms()):
    add(*mle_reconstruct(dataset(process, NoiseModel.paper_study(), 500, 11)))
for seed in range(3):
    add(*mle_reconstruct(dataset(ProcessSpec.ms(), NoiseModel.none(), 50,
                                 seed)))
for noise, seed, boot_seed, replicas in (
        (NoiseModel.paper_study(), 11, 9, 12),
        (NoiseModel.drift_only(), 7, 5, 16)):
    chis, results = [], []
    bootstrap_statistic(dataset(ProcessSpec.identity(), noise, 2000, seed),
                        None, lambda chi: chis.append(chi) or 0.0, replicas,
                        boot_seed, results)
    for chi, result in zip(chis, results):
        add(chi, result)
print(digest.hexdigest())
