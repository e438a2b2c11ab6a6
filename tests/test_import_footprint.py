"""What importing the package, and the commands that fit nothing, load.

Each check runs in a fresh interpreter.  Importing ``scipy.stats`` costs
0.5-0.8 s and 44 MB in every process, so no module of the package may pull
it in.  No scipy module is loaded at import at all: the split sweep binds
scipy's LAPACK on the first fit (``splinetree._blas.lapack``), so the
commands that only read a saved tree, ``predict``, ``diagnose`` and
``export``, never load ``scipy.linalg``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import splinetree
from splinetree.cli import main

SRC = str(Path(splinetree.__file__).resolve().parents[1])


def _fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


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


@pytest.mark.parametrize("module", ["splinetree", "splinetree.cli"])
def test_import_does_not_load_scipy(module):
    code = (
        f"import sys, {module}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _fresh(code) == "[]"


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """A small CSV and a depth-2 tree fitted on it."""
    folder = tmp_path_factory.mktemp("footprint")
    data, model = folder / "data.csv", folder / "tree.json"
    assert main(["simulate", "--kind", "f1", "--n", "600", "--sigma", "0.5",
                 "--seed", "5", "--out", str(data)]) == 0
    assert main(["fit", "--data", str(data), "--response", "f", "--knots", "4",
                 "--max-depth", "2", "--num-bins", "8", "--out", str(model)]) == 0
    return folder, data, model


@pytest.mark.parametrize("command", ["predict", "diagnose", "export"])
def test_reading_commands_do_not_load_scipy_linalg(saved_model, command):
    folder, data, model = saved_model
    argv = {
        "predict": ["predict", "--model", model, "--data", data,
                    "--out", folder / "pred.csv"],
        "diagnose": ["diagnose", "--model", model, "--data", data,
                     "--out-dir", folder / "diag"],
        "export": ["export", "--model", model, "--format", "dot"],
    }[command]
    code = (
        "import contextlib, io, sys\n"
        "from splinetree.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = main({[str(a) for a in argv]!r})\n"
        "print(status, sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n"
    )
    assert _fresh(code) == "0 []"
