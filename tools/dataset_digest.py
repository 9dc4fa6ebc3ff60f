"""Print one SHA-256 digest of 108 simulated datasets.

The datasets are every process (identity, delay, ms, ms_plus) x noise (none,
NoiseModel(), paper_study) x shots (1, 7, 30) x seed (0, 11, 2**40 + 5),
each simulated on its process's canonical plan. Each dataset hashes to the
SHA-256 hex of the float64 bytes of (n2, n1, n0); the hex strings, joined in
that order, are hashed again. A change that keeps every count the same keeps
the digest. It takes a few seconds:

    PYTHONPATH=src python3 tools/dataset_digest.py
"""
import hashlib
import itertools

import numpy as np

from ionqpt.ionsim import (NoiseModel, ProcessSpec, generate_dataset,
                           plan_for_process)

PROCESSES = ("identity", "delay", "ms", "ms_plus")
NOISES = (NoiseModel.none, NoiseModel, NoiseModel.paper_study)

digests = []
for label, noise, shots, seed in itertools.product(
        PROCESSES, NOISES, (1, 7, 30), (0, 11, 2**40 + 5)):
    process = getattr(ProcessSpec, label)()
    ds = generate_dataset(plan_for_process(process, shots), process, noise(),
                          seed)
    counts = np.concatenate([ds.n2, ds.n1, ds.n0])
    digests.append(hashlib.sha256(counts.tobytes()).hexdigest())
print(hashlib.sha256("".join(digests).encode()).hexdigest())
