"""The demos that print exact values only print the bytes CI pins.

Demo 03 prints float eigenvalues from numpy and stays out until the GHZ
spectra are exact.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the same digests as the CI step that pins the demos' stdout
DIGESTS = {
    "01_kronecker_states.py": "d0317a1d9f6788c7adf1b8f9e21b84fddfb5d3bdc45dc6c5de56554fd5d304bd",
    "02_sector_probabilities.py": "e15bc7b57f6529bdeb076581011e0d302f91401edc410ea3c9a5c1ee125e3a28",
    "04_covariants.py": "7b8ac067aee2b7736616f30eea8686c3c15b04abe2bc36060d801e0ba9e732da",
}


@pytest.mark.parametrize("demo", DIGESTS)
def test_demo_stdout_matches_its_pinned_sha256(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, check=True, timeout=60)
    assert hashlib.sha256(done.stdout).hexdigest() == DIGESTS[demo]
