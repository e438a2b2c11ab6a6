"""Every demo script runs to completion and leaves no files behind."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import splinetree

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(splinetree.__file__).resolve().parents[1]),
        TMPDIR=str(tmp_path),
    )
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == []
