"""Smoke test of the demos: each runs as a script and ends on its closing line."""
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CLOSING_LINES = {
    "01_ideal_gate_chi.py":
        "An over-rotation to theta+ = 1.04 costs 6.3% gate error.",
    "02_simulated_tomography.py":
        "delay error (6.69%) exceeds identity error (3.54%): free evolution "
        "amplifies dephasing.",
    "03_bell_state_fidelity.py":
        "a single consistent over-rotation explains both numbers.",
    "04_noise_characterization.py":
        "Negligible against the 10^-2-level laser-noise contributions above.",
}


@pytest.mark.parametrize("demo", sorted(CLOSING_LINES))
def test_demo_runs_to_its_closing_line(demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().splitlines()[-1] == CLOSING_LINES[demo]
