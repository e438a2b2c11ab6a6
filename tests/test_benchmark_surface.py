"""The benchmark's tracer wraps package functions by name; they must resolve,
and grow must call them through those names."""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from splinetree import GrowConfig, SplitInstrumentation, build_spec, grow

from conftest import make_dataset

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    """The tracer's TRACED list, read from its source without running it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no TRACED list")


def test_traced_functions_resolve():
    traced = _traced()
    assert traced
    for module, attr, _ in traced:
        mod = importlib.import_module(f"splinetree.{module}")
        assert callable(getattr(mod, attr, None)), f"splinetree.{module}.{attr}"


def test_bin_grams_takes_the_rows_first():
    # the tracer counts tree.bin_grams.rows as the length of the first argument
    from splinetree.tree import bin_grams

    assert next(iter(inspect.signature(bin_grams).parameters)) == "rows"


@pytest.mark.parametrize("threads", [1, 2])
def test_grow_calls_the_traced_bindings(monkeypatch, threads):
    # the tracer sees a call only if grow makes it through the module
    # attribute: one best_split per searched node (the parent of the
    # tree.sweep spans) and one bin_grams per recorded binning pass.  grow
    # splits a node's rows by the winning bins, so it routes nothing
    from splinetree import tree as tree_mod

    calls = {"best_split": [], "bin_grams": [], "split_mask": []}
    for name, calls_of in calls.items():
        inner = getattr(tree_mod, name)

        def counting(*args, _inner=inner, _calls=calls_of, **kwargs):
            _calls.append(None)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(tree_mod, name, counting)
    ds = make_dataset(np.random.default_rng(3), 3000, continuous=3, categorical=1)
    spec = build_spec(ds, num_knots=3)
    config = GrowConfig(max_depth=3, num_bins=8, min_samples_leaf=40, threads=threads)
    inst = SplitInstrumentation()
    root = grow(ds, spec, config, instrumentation=inst)
    searched = [node for node in root.nodes()
                if node.depth < config.max_depth and node.count >= 2 * config.min_samples_leaf]
    assert max(inst.kept_bytes) > 0  # some children derived their bins
    assert len(searched) > 3
    assert len(calls["best_split"]) == len(searched)
    assert len(calls["bin_grams"]) == len(inst.events)
    assert calls["split_mask"] == []
