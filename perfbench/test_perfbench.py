"""Tests of the benchmark itself, on the toy size of each workload.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer

sys.path.insert(0, str(run.SOURCES))

import splinetree as st  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = run.WORKLOAD_NAMES


def bench(*args, cwd=run.ROOT, script=run.ROOT / "perfbench" / "run.py"):
    done = subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )
    return done


def result_of(done):
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


@pytest.fixture(scope="module", params=WORKLOADS)
def toy_runs(request):
    """One untraced and one traced toy run of a workload, same seed."""
    out = {}
    for trace in (0, 1):
        done = bench("--workload", request.param, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "toy")
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        out[trace] = result_of(done)
    return out


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_contract(toy_runs, trace, section):
    result, info = toy_runs[trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, info["errors"]
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_tree_bytes_repeat_across_runs_of_one_seed(toy_runs):
    assert toy_runs[0][1]["tree_sha256"] == toy_runs[1][1]["tree_sha256"]


def test_environment_recorded(toy_runs):
    env = toy_runs[0][1]["environment"]
    assert {"cpu", "nproc", "python", "numpy", "scipy", "blas", "lapack",
            "threads_env", "git_commit"} <= set(env)


def test_traced_fit_is_covered_by_self_times(toy_runs):
    _, info = toy_runs[1]
    traced = info["fit_s"]["traced"]
    total = sum(info["fit_self_s"].values())
    assert traced["min"] - 1e-3 <= total <= traced["max"] + 1e-3
    assert info["fit_self_s"]["bench.fit"] < 0.05 * total


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_tracer_wraps_every_binding_and_restores():
    rng_sim = st.simulate("f2", 600, 0.5, seed=0)
    train = st.to_dataset(rng_sim, rows=rng_sim.train_idx)
    spec = st.build_spec(train, num_knots=3)
    original = st.grow
    t = tracer.Tracer()
    t.install()
    try:
        assert st.grow is st.tree.grow and st.grow is not original
        assert st.tree.fit_node is st.gram.fit_node
        st.grow(train, spec, st.GrowConfig(max_depth=1, num_bins=8))
    finally:
        t.uninstall()
    assert st.grow is original and st.tree.grow is original
    assert t.calls["tree.grow"] == 1
    assert t.calls["tree.best_split"] >= 1
    assert t.counts["tree.sweep.eigh_matrices"] > 0
    assert t.calls["linalg.eigh"] == t.calls["gram.fit_node"]
    top = t.self_s["tree.grow"] + sum(
        s for (op, name), s in t.by_op.items() if op == "tree.grow" and name != "tree.grow"
    )
    assert top == pytest.approx(sum(t.self_s.values()))
