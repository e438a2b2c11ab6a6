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


class TestCodesEachColumnOnce:
    """A dataset's categorical columns are coded once, however often they are read."""

    @staticmethod
    def coded(monkeypatch, ds):
        """What ``basis.level_codes`` codes from here on: the name of each
        whole dataset column, and "part" for any other array of the dataset's
        values (a split's categories are shorter than its levels)."""
        from splinetree import basis

        names = []
        inner = basis.level_codes

        def counting(values, levels):
            if np.size(values) > len(levels):
                names.append(next((name for name, col in ds.columns.items() if col is values),
                                  "part"))
            return inner(values, levels)

        monkeypatch.setattr(basis, "level_codes", counting)
        return names

    @staticmethod
    def data(seed):
        """Two categorical columns whose levels flip a continuous effect, so
        that the tree splits on both."""
        ds = make_dataset(np.random.default_rng(seed), 2000, continuous=2, categorical=2,
                          levels=5)
        c = ds.columns
        ds.response = (np.where(np.isin(c["c1"], ["lv0", "lv3"]), 1.0, -1.0) * np.sin(3 * c["x1"])
                       + np.where(c["c2"] == "lv2", 1.0, -1.0) * c["x2"])
        return ds

    @pytest.fixture
    def fitted(self):
        ds = self.data(0)
        spec = build_spec(ds, num_knots=3)
        root = grow(ds, spec, GrowConfig(max_depth=3, num_bins=8, min_samples_leaf=60))
        internal = [node for node in root.nodes() if not node.is_leaf]
        assert sum(node.split.categories is not None for node in internal) >= 2
        return ds, spec, root, internal

    def test_grow(self, monkeypatch):
        # the design matrix and the root binning share the codes
        ds = self.data(0)
        spec = build_spec(ds, num_knots=3)
        names = self.coded(monkeypatch, ds)
        grow(ds, spec, GrowConfig(max_depth=3, num_bins=8, min_samples_leaf=60))
        assert names == ["c1", "c2"]

    def test_diagnostics(self, monkeypatch, fitted):
        from splinetree import leaf_importance, split_contribution

        ds, spec, root, internal = fitted
        data = self.data(1)
        names = self.coded(monkeypatch, data)
        leaf_importance(root, spec, data)
        for node in internal:
            split_contribution(root, node.id, spec, data)
        assert sorted(names) == ["c1", "c2"]

    @pytest.mark.parametrize("call", ["route", "predict", "leaf_importance",
                                      "split_contribution"])
    def test_one_lookup_per_column_per_call(self, monkeypatch, fitted, call):
        # a lookup compares the column with the copy its codes were made
        # from, so a call makes one per categorical column, not one per
        # categorical node or per use
        from splinetree import diagnostics, tree

        ds, spec, root, internal = fitted
        split = [node.split.feature for node in internal if node.split.categories is not None]
        assert len(split) > len(set(split))
        deepest = max(internal, key=lambda node: node.depth)
        run = {"route": lambda: tree.route(root, spec, ds),
               "predict": lambda: tree.predict(root, spec, ds),
               "leaf_importance": lambda: diagnostics.leaf_importance(root, spec, ds),
               "split_contribution":
                   lambda: diagnostics.split_contribution(root, deepest.id, spec, ds)}[call]
        looked = []
        inner = ds.level_codes

        def counting(feature, levels):
            looked.append(feature)
            return inner(feature, levels)

        monkeypatch.setattr(ds, "level_codes", counting)
        run()
        assert sorted(looked) == sorted(set(split) if call == "route" else spec.levels)

    def test_repeated_predict(self, monkeypatch, fitted):
        from splinetree import predict

        ds, spec, root, _ = fitted
        data = self.data(1)
        first = predict(root, spec, data)
        names = self.coded(monkeypatch, data)
        assert np.array_equal(predict(root, spec, data), first)
        assert names == []
