"""What importing the package loads, checked in a fresh interpreter.

Importing ``scipy.stats`` costs 0.5-0.8 s and 44 MB in every process, so
no module of the package may pull it in; the fit needs only numpy and
``scipy.linalg``'s LAPACK wrappers.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import splinetree

SRC = str(Path(splinetree.__file__).resolve().parents[1])


@pytest.mark.parametrize("module", ["splinetree", "splinetree.cli"])
def test_import_does_not_load_scipy_stats(module):
    env = dict(os.environ, PYTHONPATH=SRC)
    code = (
        f"import sys, {module}\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
