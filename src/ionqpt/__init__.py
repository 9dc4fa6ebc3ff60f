"""Two-qubit trapped-ion quantum process tomography toolkit.

Simulates composite-pulse QPT experiments under a parameterized laser and
addressing noise model, reconstructs 16x16 process matrices by CPTP-constrained
maximum likelihood, and provides gate-error and motional-thermometry analyses.

Import names from the submodules (``ionqpt.process``, ``ionqpt.protocol``,
``ionqpt.ionsim``, ``ionqpt.recon``, ``ionqpt.analysis``); importing one loads
only what it needs.
"""

__version__ = "0.1.0"
