"""grow and refit_l1 run BLAS on one thread and predict runs none, so their bytes do
not depend on the BLAS thread setting."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import splinetree
from splinetree import _blas

# Grows a tree and prints its JSON, the digest of its predictions and the
# digest of its leaf coefficients after an L1 refit.  With 10 knots the
# sweep's and the lasso's products are large enough for OpenBLAS to thread.
SCRIPT = """
import hashlib, json
import numpy as np
import splinetree as st
from splinetree.io import tree_to_json
sim = st.simulate("f2", 3000, 0.5, seed=3)
train = st.to_dataset(sim, rows=sim.train_idx)
spec = st.build_spec(train, num_knots=10)
root = st.grow(train, spec, st.GrowConfig(max_depth=2, num_bins=16))
print(json.dumps(tree_to_json(root, spec, train.features, {}), sort_keys=True))
print(hashlib.sha256(st.predict(root, spec, st.to_dataset(sim)).tobytes()).hexdigest())
st.refit_l1(root, train, spec, 1e-2)
coef = np.concatenate([leaf.model.coefficients for leaf in root.leaves()])
print(hashlib.sha256(coef.tobytes()).hexdigest())
"""

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _run(**variables) -> bytes:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.update(variables)
    env["PYTHONPATH"] = str(Path(splinetree.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, timeout=300, check=True
    )
    return done.stdout


def test_tree_and_predictions_do_not_depend_on_the_thread_variable():
    # without a variable OpenBLAS takes a thread per core; with one core
    # both runs are single-threaded and the test shows nothing more
    assert _run() == _run(OMP_NUM_THREADS="1")


@pytest.fixture
def pools():
    found = _blas._find_pools()
    if not found:
        pytest.skip("no bundled OpenBLAS found")
    saved = [get() for get, _ in found]
    for _, put in found:
        put(2)
    yield found
    for (_, put), count in zip(found, saved):
        put(count)


def _counts(pools):
    return [get() for get, _ in pools]


def test_one_thread_inside_and_restored_after(pools):
    before = _counts(pools)
    with _blas.one_blas_thread():
        assert _counts(pools) == [1] * len(pools)
        with _blas.one_blas_thread():  # nested: the outer block restores
            pass
        assert _counts(pools) == [1] * len(pools)
    assert _counts(pools) == before


def test_restored_when_the_block_raises(pools):
    before = _counts(pools)
    with pytest.raises(RuntimeError):
        with _blas.one_blas_thread():
            raise RuntimeError("inside")
    assert _counts(pools) == before


def test_grow_and_predict_are_pinned(pools, monkeypatch):
    # grow and refit_l1 each build a design matrix: the counts seen from
    # inside it.  predict builds none and calls no BLAS, so its bytes are
    # the same with the pools at 1 and at 2 threads.
    seen = []
    inner = splinetree.basis.design_matrix

    def spy(*args):
        seen.append(_counts(pools))
        return inner(*args)

    monkeypatch.setattr(splinetree.basis, "design_matrix", spy)
    sim = splinetree.simulate("f2", 3000, 0.5, seed=1)
    data = splinetree.to_dataset(sim)
    spec = splinetree.build_spec(data, num_knots=10)
    before = _counts(pools)
    root = splinetree.grow(data, spec, splinetree.GrowConfig(max_depth=2, num_bins=16))
    on_two = splinetree.predict(root, spec, data).tobytes()
    for _, put in pools:
        put(1)
    on_one = splinetree.predict(root, spec, data).tobytes()
    for _, put in pools:
        put(2)
    splinetree.refit_l1(root, data, spec, 1e-2)
    assert on_one == on_two
    assert seen == [[1] * len(pools)] * 2
    assert _counts(pools) == before


# Grows a tree in a process that has loaded no scipy, and prints the thread
# count of every OpenBLAS pool found, as the sweep's first factorization
# sees them and after the grow.
FIRST_GROW = """
import json, sys
import splinetree as st
from splinetree import _blas, gram
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
seen = []
inner = gram.dpotrf

def spy(a, args):
    if not seen:
        seen.append([get() for get, _ in _blas._find_pools()])
    return inner(a, args)

gram.dpotrf = spy
sim = st.simulate("f2", 3000, 0.5, seed=3)
train = st.to_dataset(sim, rows=sim.train_idx)
st.grow(train, st.build_spec(train, num_knots=10), st.GrowConfig(max_depth=1, num_bins=16))
print(json.dumps({"inside": seen[0], "after": [get() for get, _ in _blas._find_pools()]}))
"""


def test_first_grow_pins_the_lazily_loaded_pool():
    # scipy's OpenBLAS is loaded by the first grow itself, when it binds
    # LAPACK: its pool must be found and pinned as well as numpy's.  In a
    # process that has already loaded scipy, as this one has, the other
    # tests cannot see the difference.
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = str(Path(splinetree.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", FIRST_GROW], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    counts = json.loads(done.stdout)
    if not counts["after"]:
        pytest.skip("no bundled OpenBLAS found")
    if max(counts["after"]) < 2:
        pytest.skip("every pool runs one thread by default (one core)")
    assert counts["inside"] == [1] * len(counts["after"])
