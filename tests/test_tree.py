"""Tree growth, split search, pruning, prediction, and the L1 refit."""

import json
import sys
import tracemalloc
import warnings
from collections import defaultdict
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri

from splinetree import (
    DataError,
    Feature,
    GramStats,
    GrowConfig,
    SplitInstrumentation,
    SurrogateDataset,
    best_split,
    build_spec,
    candidate_edges,
    design_matrix,
    fit_node,
    gram_accumulate,
    gram_subtract,
    grow,
    predict,
    prune,
    refit_l1,
    simulate,
    to_dataset,
)
from splinetree import basis
from splinetree import gram as gram_mod
from splinetree import tree as tree_mod
from splinetree.basis import UnseenCategoryWarning
from splinetree.io import tree_to_json
from splinetree.gram import NULL_SPACE_RTOL, _moments, _standardized_block, gcv_loss
from splinetree.tree import (
    _batch_child_losses,
    _node_split_loss,
    bin_grams,
    route,
)

from conftest import implementation_best_split, make_dataset, naive_best_split, stack_grams

# one value longer than the sweep's Cholesky route takes: solved by eigh
LONG_GRID = tuple(np.geomspace(1e-3, 5.0, gram_mod._CHOLESKY_GRID_LIMIT + 1))


class TestCandidateEdges:
    def test_quartile_thresholds(self):
        edges = candidate_edges(np.arange(1.0, 101.0), 4)
        expected = np.quantile(
            np.arange(1.0, 101.0), [0.25, 0.5, 0.75], method="midpoint"
        )
        assert_allclose(edges, expected, rtol=1e-12)

    def test_binary_feature_single_threshold(self):
        values = np.array([0.0] * 60 + [1.0] * 40)
        edges = candidate_edges(values, 50)
        assert edges.size == 1
        assert 0.0 < edges[0] < 1.0

    def test_constant_feature_empty(self):
        assert candidate_edges(np.full(100, 2.5), 10).size == 0

    def test_no_all_left_edges(self, rng):
        values = rng.uniform(size=200)
        for edges_n in (2, 5, 50):
            edges = candidate_edges(values, edges_n)
            counts = np.searchsorted(np.sort(values), edges, side="right")
            assert np.all((counts > 0) & (counts < 200))


class TestBinGrams:
    def test_single_bin_is_node_gram(self, rng):
        X = rng.standard_normal((30, 3))
        y = rng.standard_normal(30)
        stats = bin_grams(X, y, np.zeros(30, dtype=int), 1)
        node = gram_accumulate(X, y)
        assert_allclose(stats.xtx[0], node.xtx)
        assert stats.count[0] == 30

    def test_bins_cover_node(self, rng):
        X = rng.standard_normal((100, 4))
        y = rng.standard_normal(100)
        ids = rng.integers(0, 5, size=100)
        stats = bin_grams(X, y, ids, 5)
        node = gram_accumulate(X, y)
        assert_allclose(stats.xtx.sum(axis=0), node.xtx, rtol=1e-12, atol=1e-12)
        assert stats.count.sum() == 100

    def test_each_bin_matches_filtered_rows(self, rng):
        X = rng.standard_normal((60, 3))
        y = rng.standard_normal(60)
        ids = rng.integers(0, 5, size=60)
        stats = bin_grams(X, y, ids, 5)
        for k in range(5):
            mask = ids == k
            direct = gram_accumulate(X[mask], y[mask])
            assert_allclose(stats.xtx[k], direct.xtx, rtol=1e-12, atol=1e-12)
            assert_allclose(stats.xty[k], direct.xty, rtol=1e-12, atol=1e-12)
            assert stats.count[k] == direct.count

    def test_empty_bins_are_zero(self, rng):
        X = rng.standard_normal((10, 2))
        stats = bin_grams(X, rng.standard_normal(10), np.zeros(10, dtype=int), 3)
        assert stats.count[1] == 0 and not stats.xtx[1].any() and not stats.xty[1].any()
        assert stats.yty[1] == 0.0

    @staticmethod
    def _assert_bit_equal(X, y, ids, num_bins, workspace=None):
        got = bin_grams(X, y, ids, num_bins, workspace=workspace)
        xtx, xty, yty, counts = stats = got.xtx, got.xty, got.yty, got.count
        m = X.shape[1]
        assert [a.shape for a in stats] == [(num_bins, m, m), (num_bins, m), (num_bins,), (num_bins,)]
        ids = np.asarray(ids)
        for k in range(num_bins):
            xk, yk = X[ids == k], y[ids == k]
            assert np.array_equal(xtx[k], xk.T @ xk)
            assert np.array_equal(xty[k], xk.T @ yk)
            assert yty[k] == float(yk @ yk)
            assert counts[k] == xk.shape[0]
        return stats

    @pytest.mark.parametrize(
        "num_bins,kind",
        [(b, k) for b in (1, 7, 300) for k in ("list", "int64", "uint8")
         if not (k == "uint8" and b > 256)],
    )
    def test_bit_equal_to_filtered_products(self, rng, num_bins, kind):
        n = 2000
        X = rng.standard_normal((n, 6))
        y = rng.standard_normal(n)
        # skip every third bin id so that empty bins occur at every size
        used = np.arange(num_bins)[np.arange(num_bins) % 3 != 1]
        ids = rng.choice(used, size=n)
        if kind == "list":
            ids = ids.tolist()
        elif kind == "uint8":
            ids = ids.astype(np.uint8)
        xtx, _, _, counts = self._assert_bit_equal(X, y, ids, num_bins)
        if num_bins > 1:
            assert counts[1] == 0 and not xtx[1].any()

    def test_warm_workspace_keeps_products_bit_equal(self, rng):
        # each bin is gathered into the same buffers, reshaped to the width
        # of the call; the bins grow past any before, then shrink again
        ws = tree_mod._Workspace()
        earlier = []
        for n, m, num_bins in ((300, 6, 20), (900, 3, 4), (4000, 9, 2), (500, 6, 7)):
            X = rng.standard_normal((n, m))
            y = rng.standard_normal(n)
            ids = rng.choice(np.arange(num_bins)[np.arange(num_bins) != 1], size=n)
            stats = self._assert_bit_equal(X, y, ids, num_bins, ws)
            again = self._assert_bit_equal(X, y, ids, num_bins, ws)
            # the statistics are the caller's: never a workspace buffer, and
            # a later call in the same workspace leaves them as they were
            buffers = list(ws._arrays.values())
            assert not any(np.shares_memory(a, buf) for a in stats + again for buf in buffers)
            assert not any(np.shares_memory(a, b) for a in stats for b in again)
            assert all(np.array_equal(a, b) for a, b in zip(stats, again))
            earlier.append(([a.copy() for a in stats], stats))
        for want, got in earlier:
            assert all(np.array_equal(a, b) for a, b in zip(want, got))
        # one buffer, sized by the largest bin: all 4000 rows of width 9
        assert ws._arrays["bin_rows"].size == 4000 * 9

    def test_compact_id_dtypes(self):
        assert tree_mod._compact_bin_ids([0, 3], 4).dtype == np.uint8
        assert tree_mod._compact_bin_ids([0, 299], 300).dtype == np.uint16
        ids = np.array([0, 1], dtype=np.uint8)
        assert tree_mod._compact_bin_ids(ids, 50) is ids

    @pytest.mark.parametrize("bad", [-1, 5, 300])
    def test_out_of_range_ids_rejected(self, rng, bad):
        X = rng.standard_normal((8, 2))
        ids = np.array([0, 1, 2, 3, 4, 0, 1, bad])
        with pytest.raises(ValueError, match=r"\[0, 5\)"):
            bin_grams(X, rng.standard_normal(8), ids, 5)

    @pytest.mark.parametrize("n_ids,n_responses", [(3, 6), (6, 4), (8, 6), (6, 9)])
    def test_length_mismatch_rejected(self, rng, n_ids, n_responses):
        X = rng.standard_normal((6, 2))
        ids = np.arange(n_ids) % 2
        with pytest.raises(ValueError, match="6 rows need as many"):
            bin_grams(X, rng.standard_normal(n_responses), ids, 2)

    def test_non_integer_ids_rejected(self, rng):
        X = rng.standard_normal((4, 2))
        with pytest.raises(ValueError, match="integers"):
            bin_grams(X, rng.standard_normal(4), np.array([0.0, 1.0, 1.5, 0.0]), 3)


def _by_name(features):
    """Split features keyed by name."""
    return {feature.name: feature for feature in features}


def _node_bytes(features, m):
    """Bytes of one node's per-bin X'X and X'y over every split feature."""
    return sum(feature.num_bins for feature in features) * (m * m + m) * 8


class TestPrepareBinning:
    def test_categorical_codes_match_per_row_lookup(self, rng):
        # the spec's levels come from the full data; the subset lacks two
        # of them, so the codes skip those positions
        ds = make_dataset(rng, 600, continuous=1, categorical=1, levels=6)
        spec = build_spec(ds, num_knots=3)
        col = ds.columns["c1"]
        sub = ds.subset(np.nonzero((col != "lv1") & (col != "lv4"))[0])
        features = _by_name(tree_mod._prepare_binning(sub, spec, GrowConfig(num_bins=8)))
        levels = spec.levels["c1"]
        index = {lev: k for k, lev in enumerate(levels)}
        expected = np.array([index[v] for v in sub.columns["c1"]])
        codes = features["c1"].bin_ids
        assert codes.dtype == np.uint8
        assert np.array_equal(codes, expected)
        assert not np.isin([1, 4], codes).any()

    def test_unknown_categorical_value_raises_data_error(self, rng):
        ds = make_dataset(rng, 200, continuous=1, categorical=1)
        spec = build_spec(ds, num_knots=3)
        # the first unknown value in row order is reported, as a per-row
        # lookup would, although "aa" sorts before it
        ds.columns["c1"][[3, 7]] = ["zz", "aa"]
        with pytest.raises(DataError, match="column 'c1' holds 'zz'"):
            tree_mod._prepare_binning(ds, spec, GrowConfig(num_bins=8))
        # grow meets it before any fitting
        with pytest.raises(DataError, match="column 'c1' holds 'zz'"):
            grow(ds, spec, GrowConfig(max_depth=1, num_bins=8))

    def test_continuous_ids_are_compact(self, rng):
        ds = make_dataset(rng, 300, continuous=1)
        spec = build_spec(ds, num_knots=3)
        x1 = _by_name(tree_mod._prepare_binning(ds, spec, GrowConfig(num_bins=8)))["x1"]
        ids = x1.bin_ids
        assert ids.dtype == np.uint8
        assert np.array_equal(ids, tree_mod.bin_values(ds.columns["x1"], x1.edges))


class TestSplitMask:
    """Categorical routing against the np.isin rule: in the subset, or unseen."""

    @staticmethod
    def _isin_rule(col, levels, categories):
        return np.isin(col, categories) | ~np.isin(col, levels)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_isin_rule(self, seed):
        rng = np.random.default_rng(seed)
        ds = make_dataset(rng, 400, continuous=1, categorical=1, levels=7)
        spec = build_spec(ds, num_knots=3)
        # unseen values, and levels not in sorted order
        ds.columns["c1"][rng.choice(400, 25, replace=False)] = "unseen"
        levels = tuple(rng.permutation(spec.levels["c1"]).tolist())
        spec = replace(spec, levels={"c1": levels})
        rows = np.sort(rng.choice(400, 150, replace=False))
        for size in range(1, len(levels)):
            categories = tuple(rng.choice(levels, size, replace=False).tolist())
            cand = tree_mod.SplitCandidate(feature="c1", categories=categories)
            col = ds.columns["c1"]
            want = self._isin_rule(col, levels, categories)
            assert np.array_equal(tree_mod.split_mask(ds, spec, cand), want)
            assert np.array_equal(
                tree_mod.split_mask(ds, spec, cand, rows=rows), want[rows]
            )

    @pytest.mark.parametrize(
        "values, levels, categories",
        [
            (np.array([3, 1, 7, 5, 1, 9]), (5, 1, 7), (7,)),
            (np.array(["1", "5", "7"]), (1, 5, 7), (5,)),
            (np.array(["b", "x", "a", "c"], dtype=object), ("a", "b", "c"), ("c", "a")),
        ],
        ids=["int levels", "str values, int levels", "object column"],
    )
    def test_other_dtypes(self, values, levels, categories):
        ds = SurrogateDataset(
            features=(Feature("c", "categorical"),),
            columns={"c": values},
            response=np.zeros(values.size),
        )
        spec = replace(_spec_stub(), levels={"c": levels})
        cand = tree_mod.SplitCandidate(feature="c", categories=categories)
        assert np.array_equal(
            tree_mod.split_mask(ds, spec, cand), self._isin_rule(values, levels, categories)
        )


def _assert_matches_naive(ds, spec, config, min_leaf):
    """The production sweep finds the naive oracle's split; returns it."""
    naive = naive_best_split(ds, spec, config, min_leaf)
    found, _ = implementation_best_split(ds, spec, config, min_leaf)
    if naive is None:
        assert found is None
        return None
    assert found is not None
    (feat_index, key), gain, left_beta, right_beta = naive
    assert ds.features[feat_index].name == found.candidate.feature
    if isinstance(key, float):
        assert found.candidate.threshold == pytest.approx(key, rel=1e-12)
    else:
        levels = spec.levels[found.candidate.feature]
        assert found.candidate.categories == tuple(levels[k] for k in key)
    tol = 1e-8 * max(1.0, abs(gain))
    assert found.gain == pytest.approx(gain, abs=tol)
    assert_allclose(found.left_model.coefficients, left_beta, rtol=1e-8, atol=1e-8)
    assert_allclose(found.right_model.coefficients, right_beta, rtol=1e-8, atol=1e-8)
    return naive


class TestBestSplitOracle:
    """Cumulative-gram sweep against the naive subset-refit oracle."""

    @pytest.mark.parametrize("case", range(12))
    def test_matches_naive_refit(self, case):
        rng = np.random.default_rng(1000 + case)
        n = int(rng.integers(120, 400))
        n_cont = int(rng.integers(1, 4))
        n_cat = int(rng.integers(0, 2))
        ds = make_dataset(rng, n, continuous=n_cont, categorical=n_cat)
        spec = build_spec(ds, num_knots=int(rng.integers(2, 4)))
        config = GrowConfig(
            num_bins=int(rng.integers(3, 10)),
            lam=float(rng.choice([0.0, 0.1, 1.0])),
            loss=str(rng.choice(["sse", "gcv"])),
            max_depth=1,
        )
        min_leaf = max(spec.total_columns + 2, 15)
        _assert_matches_naive(ds, spec, config, min_leaf)

    def test_product_response_splits_first_feature(self):
        # y = x1 * x2 has no additive signal; the best split lands on a
        # product factor near 0 and must match the brute-force refit
        rng = np.random.default_rng(2)
        n = 2000
        columns = {
            "x1": rng.uniform(-1, 1, n),
            "x2": rng.uniform(-1, 1, n),
        }
        ds = SurrogateDataset(
            features=(Feature("x1", "continuous"), Feature("x2", "continuous")),
            columns=columns,
            response=columns["x1"] * columns["x2"],
        )
        spec = build_spec(ds, num_knots=2, linear=("x1", "x2"))
        config = GrowConfig(num_bins=10, lam=0.0, loss="sse", max_depth=1)
        found, _ = implementation_best_split(ds, spec, config, 50)
        naive = naive_best_split(ds, spec, config, 50)
        assert found.candidate.feature == ds.features[naive[0][0]].name
        assert found.candidate.feature == "x1"
        assert abs(found.candidate.threshold) < 0.15

    def test_exact_tie_breaks_to_lower_feature_index(self, rng):
        # x2 duplicates x1 bit for bit, so every candidate gain ties
        # exactly and the comparator must prefer the lower feature index
        n = 600
        x = rng.uniform(-1, 1, n)
        ds = SurrogateDataset(
            features=(Feature("x1", "continuous"), Feature("x2", "continuous")),
            columns={"x1": x, "x2": x.copy()},
            response=np.where(x > 0, 1.0, -1.0) * x + 0.05 * rng.standard_normal(n),
        )
        spec = build_spec(ds, num_knots=2, linear=("x1", "x2"))
        config = GrowConfig(num_bins=6, lam=0.0, loss="sse", max_depth=1)
        found, _ = implementation_best_split(ds, spec, config, 40)
        assert found is not None and found.candidate.feature == "x1"

    def test_exact_in_basis_fit_returns_none(self, rng):
        n = 400
        x = rng.uniform(-1, 1, n)
        ds = SurrogateDataset(
            features=(Feature("x1", "continuous"),),
            columns={"x1": x},
            response=2.0 + 3.0 * x,
        )
        spec = build_spec(ds, num_knots=2, linear=("x1",))
        config = GrowConfig(num_bins=8, lam=0.0, loss="sse", max_depth=1, min_gain=1e-10)
        found, _ = implementation_best_split(ds, spec, config, 30)
        assert found is None or found.gain <= config.min_gain

    @pytest.mark.parametrize("loss", ["sse", "gcv"])
    @pytest.mark.parametrize("lam", [1e-3, 0.05])
    def test_depth_two_node_with_zero_spline_columns(self, lam, loss):
        # a depth-2 node: the spec (knots, levels) comes from the full data,
        # the split search runs on the rows of one grandchild, where the
        # hat functions of knots outside its x1 range are identically zero
        rng = np.random.default_rng(77)
        ds = make_dataset(rng, 1600, continuous=3, categorical=1)
        spec = build_spec(ds, num_knots=6)
        rows = np.nonzero((ds.columns["x1"] <= -0.2) & (ds.columns["x2"] > -0.5))[0]
        sub = ds.subset(rows)
        X = design_matrix(sub, spec)
        assert np.any(np.all(X[:, 1:] == 0.0, axis=0))
        config = GrowConfig(num_bins=8, lam=lam, loss=loss, max_depth=1)
        min_leaf = max(spec.total_columns + 2, 40)
        assert _assert_matches_naive(sub, spec, config, min_leaf) is not None


class TestWinnerGrams:
    """The winner's children are bit-equal to merging its bins one by one."""

    @staticmethod
    def _data():
        # x1 past 0.6 flips the slope on x2, so the continuous winner's
        # left side spans most of the 32 bins; c6 and c14 interact with x2
        rng = np.random.default_rng(33)
        n = 4000
        ds = make_dataset(rng, n, continuous=2)
        k6, k14 = rng.integers(0, 6, n), rng.integers(0, 14, n)
        columns = dict(ds.columns)
        columns["c6"] = np.array([f"a{k}" for k in range(6)])[k6]
        columns["c14"] = np.array([f"b{k:02d}" for k in range(14)])[k14]
        x1, x2 = columns["x1"], columns["x2"]
        response = (np.where(x1 > 0.6, -3.0, 1.0) * x2
                    + np.where(np.isin(k6, [1, 4]), 2.0, -1.0) * x2
                    + np.cos(3 * k14) * x2 + 0.1 * rng.standard_normal(n))
        ds = SurrogateDataset(
            features=ds.features + (Feature("c6", "categorical"),
                                    Feature("c14", "categorical")),
            columns=columns, response=response,
        )
        return ds, build_spec(ds, num_knots=3)

    @pytest.mark.parametrize("feature", ["x1", "c6", "c14"],
                             ids=["continuous", "exhaustive", "ordered-scan"])
    def test_children_match_sequential_merge(self, feature):
        ds, spec = self._data()
        config = GrowConfig(num_bins=32)
        X, y = design_matrix(ds, spec), ds.response
        features = tree_mod._prepare_binning(ds, spec, config)
        ws = tree_mod._Workspace()
        source = tree_mod._NodeRows(features, X, y, np.arange(ds.n), 0, None, ws)
        fb = source.bin(_by_name(features)[feature].index, ws)
        node_gram = gram_accumulate(X, y)
        node_model = fit_node(node_gram, config.lam)
        found = best_split(node_gram, node_model, [fb], config, spec.total_columns)
        assert found is not None and found.candidate.feature == feature
        if fb.feature.edges is not None:
            last = int(np.searchsorted(fb.feature.edges, found.candidate.threshold))
            assert fb.feature.edges[last] == found.candidate.threshold
            left_bins = list(range(last + 1))
            assert len(left_bins) >= 9  # beyond numpy's 8-way pairwise unrolling
        else:
            left_bins = [fb.feature.levels.index(v) for v in found.candidate.categories]
            assert np.any(np.diff(left_bins) > 1)  # not a run: gathered, not a view
        ids = np.asarray(fb.feature.bin_ids)
        xtx, xty, yty, count = 0.0, 0.0, 0.0, 0
        for k in left_bins:  # bin by bin, in order
            xk, yk = X[ids == k], y[ids == k]
            xtx, xty = xtx + xk.T @ xk, xty + xk.T @ yk
            yty, count = yty + float(yk @ yk), count + xk.shape[0]
        left = GramStats(xtx=xtx, xty=xty, yty=yty, count=count)
        right = gram_subtract(node_gram, left)
        for got, want in ((found.left_gram, left), (found.right_gram, right)):
            assert np.array_equal(got.xtx, want.xtx)
            assert np.array_equal(got.xty, want.xty)
            assert got.yty == want.yty
            assert got.count == want.count


def _reference_losses(grams, lam_values, loss):
    """Per-candidate scalar fits, at the lambda fit_node selects by GCV."""
    return np.array([_node_split_loss(fit_node(g, lam_values), loss) for g in grams])


@pytest.fixture
def eigh_calls(monkeypatch):
    """Records the batch shape of every call to the eigendecomposition route."""
    calls = []
    inner = gram_mod._eigh_solves

    def spy(block, b, lam_values):
        calls.append(block.shape)
        return inner(block, b, lam_values)

    monkeypatch.setattr(gram_mod, "_eigh_solves", spy)
    return calls


class TestBatchChildLosses:
    """The batched sweep scorer against per-candidate reference fits."""

    @staticmethod
    def _candidate_grams():
        # child systems of a spec built on the full data; the narrow x1
        # ranges leave whole spline columns at zero within the node
        rng = np.random.default_rng(5)
        ds = make_dataset(rng, 900, continuous=3, categorical=1)
        spec = build_spec(ds, num_knots=5)
        X = design_matrix(ds, spec)
        x1 = ds.columns["x1"]
        grams = []
        for lo, hi in [(-1.0, 1.0), (-1.0, -0.2), (-0.1, 0.7), (0.3, 1.0), (-0.6, 0.1)]:
            mask = (x1 >= lo) & (x1 <= hi)
            grams.append(gram_accumulate(X[mask], ds.response[mask]))
        assert all(np.any(np.diagonal(g.xtx)[1:] == 0.0) for g in grams[1:])
        return grams

    @pytest.mark.parametrize("loss", ["sse", "gcv"])
    @pytest.mark.parametrize(
        "lam",
        [1e-3, 0.5, (1e-3, 0.05, 2.0), (1e-3, 0.01, 0.05, 0.2, 1.0, 5.0), 0.0, (0.0, 0.1),
         LONG_GRID],
    )
    def test_matches_scalar_fits(self, lam, loss, eigh_calls):
        grams = self._candidate_grams()
        lam_values = GrowConfig(lam=lam).lam_values
        got = _batch_child_losses(stack_grams(grams), lam_values, loss)
        swept = list(eigh_calls)  # before the reference fits add their own
        assert_allclose(got, _reference_losses(grams, lam_values, loss), rtol=1e-9)
        # a grid containing zero or longer than the Cholesky limit takes eigh
        long_grid = len(lam_values) > gram_mod._CHOLESKY_GRID_LIMIT
        assert bool(swept) == (min(lam_values) == 0.0 or long_grid)

    @pytest.mark.parametrize(
        "lam", [(1e-3, 0.05, 2.0), tuple(np.geomspace(1e-3, 5.0, 6)), LONG_GRID]
    )
    def test_grid_sse_ranks_the_refit_model(self, lam, eigh_calls):
        # with a grid, an SSE sweep scores each candidate at the lambda its
        # refit keeps (chosen by GCV), not at the grid's smallest SSE
        grams = self._candidate_grams()
        got = _batch_child_losses(stack_grams(grams), lam, "sse")
        refits = [fit_node(g, lam) for g in grams]
        assert_allclose(got, [m.sse for m in refits], rtol=1e-9)
        min_sse = np.array([min(fit_node(g, v).sse for v in lam) for g in grams])
        kept_larger = np.array([m.lam > min(lam) for m in refits])
        assert kept_larger.any()
        assert np.all(got[kept_larger] > min_sse[kept_larger] * (1 + 1e-9))

    @pytest.mark.parametrize("loss", ["sse", "gcv"])
    @pytest.mark.parametrize("lam", [(0.0, 0.1), (0.1, 0.0, 1.0), (1e-3, 0.1)])
    def test_grid_with_saturating_value(self, lam, loss):
        # 4-row children with 4 columns: lambda = 0 interpolates (df = count),
        # so the sweep and fit_node both skip it and score another value
        rng = np.random.default_rng(0)
        grams = [
            gram_accumulate(
                np.column_stack([np.ones(rows), rng.standard_normal((rows, 3))]),
                rng.standard_normal(rows),
            )
            for rows in (4, 4, 12)
        ]
        got = _batch_child_losses(stack_grams(grams), lam, loss)
        assert np.all(np.isfinite(got))
        assert_allclose(got, _reference_losses(grams, lam, loss), rtol=1e-9)

    def test_grid_saturated_everywhere_is_infinite(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([np.ones(4), rng.standard_normal((4, 3))])
        grams = [gram_accumulate(X, rng.standard_normal(4))]
        got = _batch_child_losses(stack_grams(grams), (0.0, 0.0), "gcv")
        assert np.array_equal(got, [np.inf])
        with pytest.raises(ValueError, match="saturated"):
            fit_node(grams[0], (0.0, 0.0))

    @pytest.mark.parametrize("lam", [1e-3, 0.05])
    def test_near_collinear_columns(self, lam):
        # two columns 1e-5 apart leave an eigenvalue w ~ 3e-11 of the largest:
        # a null direction for the eigendecomposition route (fit_node), which
        # drops it from the df, while the Cholesky route's trace identity
        # counts its w / (w + lam).  SSE agrees; the GCV loss is fit_node's
        # SSE under fit_node's df plus exactly that.
        rng = np.random.default_rng(11)
        x, z, w = rng.standard_normal((3, 60))
        y = x + 0.3 * w + 0.1 * rng.standard_normal(60)
        g = gram_accumulate(np.column_stack([np.ones(60), x, x + 1e-5 * z, w]), y)
        stacked = stack_grams([g])
        block = _standardized_block(stacked.xtx, *_moments(stacked)[:3])
        spectrum = np.linalg.eigvalsh(block[0])
        near_null = spectrum[spectrum < NULL_SPACE_RTOL * spectrum[-1]]
        assert near_null.size == 1 and near_null[0] > 1e-14 * spectrum[-1]
        model = fit_node(g, lam)
        sse = _batch_child_losses(stack_grams([g]), (lam,), "sse")
        assert_allclose(sse, model.sse, rtol=1e-9)
        got = _batch_child_losses(stack_grams([g]), (lam,), "gcv")
        extra_df = near_null[0] / (near_null[0] + lam)
        want = 60 * gcv_loss(model.sse, 60, model.effective_df + extra_df)
        assert_allclose(got, want, rtol=1e-9)
        assert 1e-12 < abs(got[0] / _node_split_loss(model, "gcv") - 1.0) < 1e-6

    @pytest.mark.parametrize("loss", ["sse", "gcv"])
    def test_failed_cholesky_falls_back_to_eigh(self, loss, eigh_calls):
        # a duplicated +-1 column makes the standardized block exactly
        # [[16, 16], [16, 16]]; a ridge weight far below its rounding
        # leaves it singular, so only that candidate is refactored by eigh
        x = np.tile([1.0, -1.0], 8)
        y = np.repeat(np.arange(8.0), 2)  # orthogonal to x, exactly
        singular = gram_accumulate(np.column_stack([np.ones(16), x, x]), y)
        rng = np.random.default_rng(3)
        regular = [
            gram_accumulate(
                np.column_stack([np.ones(40), rng.standard_normal((40, 2))]),
                rng.standard_normal(40),
            )
            for _ in range(2)
        ]
        grams = [regular[0], singular, regular[1]]
        lam_values = (1e-20,)
        got = _batch_child_losses(stack_grams(grams), lam_values, loss)
        assert eigh_calls == [(1, 2, 2)]
        assert np.all(np.isfinite(got))
        assert_allclose(got, _reference_losses(grams, lam_values, loss), rtol=1e-9)


def _fresh_child_losses(sides, lam_values, loss):
    """Reference for the sweep's child losses, with fresh arrays throughout.

    On the Cholesky route each candidate's X'X + lambda diag(0, scale^2) is
    a new array handed to LAPACK and solved against X'y on the original
    scale, a column constant away from zero having its row, column and X'y
    entry zeroed first.  Failed factorizations, and every candidate off
    that route, are standardized as one stack and redone by the
    eigendecomposition.  The operations and their order are the sweep's.
    """
    xtx, xty, counts = sides.xtx, sides.xty, sides.count
    n = counts.astype(np.float64)[:, None]
    mean = xtx[:, 0, 1:] / n
    ex2 = np.diagonal(xtx, axis1=1, axis2=2)[:, 1:] / n
    constant, scale = gram_mod.column_scale(np.maximum(ex2 - mean**2, 0.0), ex2)
    grid = len(lam_values) > 1
    count, m = xty.shape
    coefficients = np.empty((len(lam_values), count, m))
    edfs = np.full((len(lam_values), count), np.nan)
    eigen = np.ones(count, dtype=bool)
    if min(lam_values) > 0 and len(lam_values) <= gram_mod._CHOLESKY_GRID_LIMIT:
        for k, lam in enumerate(lam_values):
            for i in range(count):
                if k > 0 and eigen[i]:
                    continue
                # a column constant away from zero is zeroed, as centering would
                offset = np.r_[False, constant[i] & (mean[i] != 0.0)]
                gram, rhs = xtx[i].copy(), np.where(offset, 0.0, xty[i])
                gram[offset], gram[:, offset] = 0.0, 0.0
                penalty = np.diag(np.r_[0.0, lam * scale[i] ** 2])
                chol, info = dpotrf((gram + penalty).T, lower=1, overwrite_a=1)
                eigen[i] = info != 0
                if eigen[i]:
                    continue
                coefficients[k, i], _ = dpotrs(chol, rhs, lower=1)
                if loss == "gcv" or grid:
                    inv, _ = dtrtri(chol, lower=1, overwrite_c=1)
                    norms = np.einsum("ij,ij->j", inv, inv)
                    edfs[k, i] = m - lam * np.einsum("j,j->", norms[1:], scale[i] ** 2)
    if eigen.any():
        xtx_e, mean_e, scale_e, n_e = xtx[eigen], mean[eigen], scale[eigen], n[eigen]
        centered = xtx_e[:, 1:, 1:] - n_e[:, :, None] * (mean_e[:, :, None] * mean_e[:, None, :])
        block = centered / (scale_e[:, :, None] * scale_e[:, None, :])
        b = (xty[eigen, 1:] - mean_e * xty[eigen, :1]) / scale_e
        gammas, edfs[:, eigen] = gram_mod._eigh_solves(block, b, lam_values)
        betas = gammas / scale_e
        coefficients[:, eigen, 1:] = betas
        coefficients[:, eigen, 0] = xty[eigen, 0] / counts[eigen] - np.matmul(
            betas[:, :, None, :], mean_e[:, :, None]
        )[:, :, 0, 0]
    sse = gram_mod._sse(sides, coefficients)
    if loss == "sse" and not grid:
        return sse[0]
    index, gcv = gram_mod.select_lambda(sse, edfs, counts)
    if loss == "gcv":
        return counts * gcv
    return np.where(np.isfinite(gcv), sse[index, np.arange(counts.size)], np.inf)


def _fresh_gains(node, left, parent_loss, config):
    xtx_r = node.xtx[None, :, :] - left.xtx
    diag = np.einsum("cii->ci", xtx_r)
    np.maximum(diag, 0.0, out=diag)
    right = GramStats(xtx_r, node.xty[None, :] - left.xty,
                      np.maximum(node.yty - left.yty, 0.0), node.count - left.count)
    lam_values, loss = config.lam_values, config.loss
    return parent_loss - (
        _fresh_child_losses(left, lam_values, loss)
        + _fresh_child_losses(right, lam_values, loss)
    )


def _fresh_sweep(fb, node, parent_loss, config, min_leaf):
    """Every scored candidate of one feature and its gain, with fresh arrays."""
    xtx, xty, yty, counts = fb.stats.xtx, fb.stats.xty, fb.stats.yty, fb.stats.count
    edges = fb.feature.edges
    if edges is not None:
        cum = [np.cumsum(a, axis=0) for a in (xtx, xty, yty, counts)]
        cnt = cum[3][: edges.size]
        distinct = np.ones(edges.size, dtype=bool)
        distinct[1:] = counts[1 : edges.size] > 0
        sel = np.nonzero((cnt >= min_leaf) & (node.count - cnt >= min_leaf) & distinct)[0]
        if sel.size == 0:
            return [], np.empty(0)
        gains = _fresh_gains(node, GramStats(*(a[sel] for a in cum)), parent_loss, config)
        return [("threshold", float(edges[j])) for j in sel], gains
    c = len(fb.feature.levels)
    if c <= tree_mod.EXHAUSTIVE_CATEGORY_LIMIT:
        subsets = tree_mod._canonical_subsets(c)
    else:  # the ordered scan: prefixes of the levels sorted by node mean
        nonempty = [k for k in range(c) if counts[k] > 0]
        order = sorted(nonempty, key=lambda k: (xty[k, 0] / counts[k], k))
        subsets = set()
        for cut in range(1, len(order)):
            prefix = set(order[:cut])
            if 0 not in prefix:
                prefix = set(range(c)) - prefix
            if 0 < len(prefix) < c:
                subsets.add(tuple(sorted(prefix)))
        subsets = sorted(subsets)
    membership = np.zeros((len(subsets), c))
    for i, subset in enumerate(subsets):
        membership[i, list(subset)] = 1.0
    cnt_l = (membership @ counts).astype(np.int64)
    sel = np.nonzero((cnt_l >= min_leaf) & (node.count - cnt_l >= min_leaf))[0]
    chunk = max(1, (1 << 22) // node.dim**2)
    gains = [
        _fresh_gains(
            node,
            GramStats(np.tensordot(membership[part], xtx, axes=1), membership[part] @ xty,
                      membership[part] @ yty, cnt_l[part]),
            parent_loss, config,
        )
        for part in (sel[lo : lo + chunk] for lo in range(0, sel.size, chunk))
    ]
    return [("categories", subsets[i]) for i in sel], np.concatenate(gains or [[]])


@pytest.fixture
def swept_gains(monkeypatch):
    """Records the gains of every call to the sweep's gain scorer."""
    calls = []
    inner = tree_mod._split_gains

    def spy(*args):
        gains = inner(*args)
        calls.append(gains.copy())
        return gains

    monkeypatch.setattr(tree_mod, "_split_gains", spy)
    return calls


def _node_rows(ds, spec, num_bins, rows=None, instrumentation=None):
    """A node's rows (the root's by default) as a binning source, and its workspace."""
    rows = np.arange(ds.n) if rows is None else rows
    features = tree_mod._prepare_binning(ds, spec, GrowConfig(num_bins=num_bins))
    ws = tree_mod._Workspace()
    source = tree_mod._NodeRows(features, design_matrix(ds, spec), ds.response, rows, 0,
                                instrumentation, ws)
    return source, ws


def _node_bins(ds, spec, num_bins):
    """Root node statistics and per-feature bins of a dataset."""
    source, ws = _node_rows(ds, spec, num_bins)
    bins = [source.bin(i, ws) for i in range(len(source.features))]
    return gram_accumulate(source.X, source.y), bins


def _singular_left_sides():
    """A node whose left sides all hold two identical +-1 columns.

    The third column departs from the second only in the last bin, so
    every left side standardizes to a block [[n, n], [n, n]] (singular
    beyond a 1e-20 ridge weight, exactly so for the 16-row side) while
    every right side is regular.
    """
    n = 64
    u = np.arange(n, dtype=np.float64)
    x = np.tile([1.0, -1.0], n // 2)
    z = np.where(u >= 56, np.random.default_rng(4).standard_normal(n), 0.0)
    X = np.column_stack([np.ones(n), x, x + z])
    y = np.random.default_rng(5).standard_normal(n)
    edges = candidate_edges(u, 8)
    ids = tree_mod.bin_values(u, edges)
    fb = tree_mod.FeatureBins(
        tree_mod._SplitFeature("u", 0, ids, edges=edges), bin_grams(X, y, ids, edges.size + 1),
    )
    return gram_accumulate(X, y), [fb]


class TestSweepWorkspace:
    """The reused sweep buffers give the gains of fresh-array arithmetic.

    The sweep scores only the candidates that can still win and gives the
    others gain -inf: every candidate it scored has the fresh gain, bit for
    bit, and every one it skipped has a fresh gain strictly below the fresh
    winner's.
    """

    GRIDS = {
        "scalar": 1e-3,
        "grid3": (1e-3, 0.05, 2.0),  # Cholesky, one factorization per value
        "grid6": tuple(np.geomspace(1e-3, 5.0, 6)),  # Cholesky
        "long": LONG_GRID,  # eigendecomposition
        "zero": 0.0,  # eigendecomposition, pseudo-inverse
    }

    @staticmethod
    def _check(node_gram, bins, config, min_leaf, calls):
        node_model = fit_node(node_gram, config.lam)
        parent_loss = _node_split_loss(node_model, config.loss)
        candidates, want = [], []
        for fb in bins:
            keys, gains = _fresh_sweep(fb, node_gram, parent_loss, config, min_leaf)
            candidates += [(fb.feature.name, key) for key in keys]
            want.append(gains)
        want = np.concatenate(want)
        ws = tree_mod._Workspace()
        for _ in range(2):  # a cold workspace, then the same one warm
            calls.clear()
            found = best_split(node_gram, node_model, bins, config, min_leaf, workspace=ws)
            got = np.concatenate(calls)
            scored = got != -np.inf
            assert np.array_equal(got[scored], want[scored])
            assert np.all(want[~scored] < want.max())
            best = int(np.argmax(want))
            assert scored[best]
            feature, (kind, value) = candidates[best]
            assert found.candidate == tree_mod.SplitCandidate(feature, **{kind: value})
        return found

    @pytest.mark.parametrize("levels", [5, 14])
    @pytest.mark.parametrize("loss", ["gcv", "sse"])
    @pytest.mark.parametrize("grid", list(GRIDS))
    def test_gains_match_fresh_arrays(self, swept_gains, grid, loss, levels):
        # 5 levels take exhaustive subsets, 14 the ordered scan
        rng = np.random.default_rng(9)
        ds = make_dataset(rng, 1400, continuous=2, categorical=1, levels=levels)
        spec = build_spec(ds, num_knots=4)
        node_gram, bins = _node_bins(ds, spec, 16)
        assert [fb.feature.edges is None for fb in bins] == [False, False, True]
        config = GrowConfig(lam=self.GRIDS[grid], loss=loss, num_bins=16)
        self._check(node_gram, bins, config, spec.total_columns, swept_gains)

    @pytest.mark.parametrize("loss", ["gcv", "sse"])
    def test_failed_factorizations_match_fresh_arrays(self, swept_gains, monkeypatch, loss):
        failures = []
        inner = gram_mod._cholesky_solves

        def spy(*args):
            failed = inner(*args)
            failures.append(len(failed))
            return failed

        monkeypatch.setattr(gram_mod, "_cholesky_solves", spy)
        node_gram, bins = _singular_left_sides()
        config = GrowConfig(lam=1e-20, loss=loss)
        self._check(node_gram, bins, config, 8, swept_gains)
        # each of the two sweeps solves the left sides, then the right sides,
        # twice (every side for its SSE, then the scored ones exactly; each
        # stack is one chunk); in every pass some left sides fall back to the
        # eigendecomposition, no right side
        assert len(failures) == 2 * 2 * 2
        assert failures[:4] == failures[4:]
        assert all(failures[0::2]) and not any(failures[1::2])

    def test_warm_workspace_allocates_no_candidate_stack(self, swept_gains):
        # 151 columns, as in the C5 fit: the solver standardizes one
        # candidate at a time, so a candidate stack is many blocks
        self._assert_no_warm_stack(swept_gains, 1e-3)

    def test_eigh_route_allocates_no_candidate_stack(self, swept_gains):
        # lambda = 0 takes the eigendecomposition, chunked alike
        self._assert_no_warm_stack(swept_gains, 0.0)

    @staticmethod
    def _assert_no_warm_stack(swept_gains, lam):
        rng = np.random.default_rng(12)
        ds = make_dataset(rng, 3000, continuous=3)
        spec = build_spec(ds, num_knots=50)
        assert spec.total_columns == 151
        node_gram, bins = _node_bins(ds, spec, 40)
        config = GrowConfig(num_bins=40, lam=lam)
        node_model = fit_node(node_gram, config.lam)
        min_leaf = spec.total_columns
        ws = tree_mod._Workspace()
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(2):
                swept_gains.clear()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                best_split(node_gram, node_model, bins, config, min_leaf, workspace=ws)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        p = spec.total_columns - 1
        stack = min(g.size for g in swept_gains) * p * p * 8  # smallest (c, p, p)
        assert stack > 20 * p * p * 8
        assert peaks[0] > stack  # the cold call allocates the buffers
        assert peaks[1] < stack


class TestBoundedScoring:
    """The sweep scores exactly only the candidates that can still win.

    Under every loss and lambda grid, every candidate side is first bounded
    (:func:`tree._child_loss_bounds`: from its SSEs alone where the
    Cholesky route skips the df, by the exact loss where the solve gives
    it), and only the candidates whose lower bound reaches the node's best
    upper bound are scored exactly.  The winner and its gain must be those
    of scoring every candidate.
    """

    LAMS = [1e-3, (1e-3, 0.05, 2.0), 0.0, tuple(np.geomspace(1e-3, 5.0, 6)), LONG_GRID]
    LAM_IDS = ["scalar", "grid3", "zero", "grid6", "long"]

    @staticmethod
    def _every_candidate_split(node_gram, bins, config, min_leaf):
        """The winner of a test-local evaluation of every candidate
        (:func:`_fresh_sweep`), its children refitted and its gain."""
        parent_loss = _node_split_loss(fit_node(node_gram, config.lam), config.loss)
        candidates, gains = [], []
        for fb in bins:
            keys, feature_gains = _fresh_sweep(fb, node_gram, parent_loss, config, min_leaf)
            candidates += [(fb, key) for key in keys]
            gains.append(feature_gains)
        fb, (kind, value) = candidates[int(np.argmax(np.concatenate(gains)))]
        if kind == "threshold":
            left_bins = range(int(np.flatnonzero(fb.feature.edges == value)[0]) + 1)
        else:
            left_bins = value
            value = tuple(fb.feature.levels[k] for k in value)
        left = gram_mod.bin_sum(fb.stats, left_bins)
        models = fit_node(left, config.lam), fit_node(gram_subtract(node_gram, left), config.lam)
        gain = parent_loss - sum(_node_split_loss(model, config.loss) for model in models)
        return tree_mod.SplitCandidate(fb.feature.name, **{kind: value}), models, gain

    @staticmethod
    def _assert_same_winner(node_gram, bins, config, min_leaf, swept_gains):
        want, models, gain = TestBoundedScoring._every_candidate_split(
            node_gram, bins, config, min_leaf
        )
        swept_gains.clear()
        found = best_split(node_gram, fit_node(node_gram, config.lam), bins, config, min_leaf)
        skipped = int(np.sum(np.concatenate(swept_gains) == -np.inf))
        assert found.candidate == want
        assert found.gain == gain
        for got, ref in zip((found.left_model, found.right_model), models):
            assert np.array_equal(got.coefficients, ref.coefficients)
        return skipped

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("levels", [5, 14])
    @pytest.mark.parametrize("loss", ["gcv", "sse"])
    @pytest.mark.parametrize("lam", LAMS, ids=LAM_IDS)
    def test_winner_matches_every_candidate(self, swept_gains, lam, loss, levels, threads):
        # 5 levels take exhaustive subsets, 14 the ordered scan
        rng = np.random.default_rng(31)
        ds = make_dataset(rng, 1400, continuous=2, categorical=1, levels=levels)
        spec = build_spec(ds, num_knots=4)
        node_gram, bins = _node_bins(ds, spec, 16)
        config = GrowConfig(lam=lam, loss=loss, num_bins=16, threads=threads)
        skipped = self._assert_same_winner(
            node_gram, bins, config, spec.total_columns, swept_gains
        )
        # every loss and grid is bounded, so some candidates are skipped
        assert skipped > 0

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("loss", ["gcv", "sse"])
    @pytest.mark.parametrize("lam", LAMS, ids=LAM_IDS)
    def test_winner_matches_on_a_node_of_twice_the_width(
        self, swept_gains, lam, loss, threads
    ):
        # n = 2m + 6 rows and leaves of at least m: every side has between m
        # and m + 6 rows, so the upper bounds are infinite or far above the
        # lower ones
        rng = np.random.default_rng(32)
        probe = make_dataset(rng, 400, continuous=2, categorical=1, levels=5)
        m = build_spec(probe, num_knots=3).total_columns
        ds = make_dataset(rng, 2 * m + 6, continuous=2, categorical=1, levels=5)
        spec = build_spec(ds, num_knots=3)
        assert spec.total_columns == m
        node_gram, bins = _node_bins(ds, spec, 16)
        config = GrowConfig(lam=lam, loss=loss, num_bins=16, threads=threads)
        self._assert_same_winner(node_gram, bins, config, m, swept_gains)

    def test_shared_bound_ends_alike_across_threads(self, monkeypatch):
        # worker threads lower one bound; it ends at the smallest of every
        # candidate's upper bound and the scored losses, which include the
        # winner's, so an update lost between threads would leave it higher
        bounds = []

        class Recorded(tree_mod._LossBound):
            def __init__(self):
                super().__init__()
                bounds.append(self)

        monkeypatch.setattr(tree_mod, "_LossBound", Recorded)
        rng = np.random.default_rng(33)
        ds = make_dataset(rng, 1400, continuous=5, categorical=1, levels=14)
        spec = build_spec(ds, num_knots=4)
        node_gram, bins = _node_bins(ds, spec, 16)
        node_model = fit_node(node_gram, 1e-3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            found = [
                best_split(node_gram, node_model, bins, GrowConfig(num_bins=16, threads=t),
                           spec.total_columns)
                for t in (1, 4, 4, 4)
            ]
        finally:
            sys.setswitchinterval(interval)
        assert len(bounds) == 4 and np.isfinite(bounds[0].value)
        assert all(b.value == bounds[0].value for b in bounds)
        assert all(f.candidate == found[0].candidate for f in found)

    @staticmethod
    def _assert_bounds_hold(grams, lam_values, loss):
        stacked = stack_grams(grams)
        lower, upper = tree_mod._child_loss_bounds(stacked, lam_values, loss)
        exact = _batch_child_losses(stacked, lam_values, loss)
        assert np.all(lower <= exact * (1 + 1e-12))
        assert np.all(exact <= upper * (1 + 1e-12))
        return lower, upper, exact

    @staticmethod
    def _random_stack():
        rng = np.random.default_rng(21)
        m = 6
        grams = []
        for rows in (4, 6, 7, 9, 13, 40, 300):
            X = np.column_stack([np.ones(rows), rng.standard_normal((rows, m - 1))])
            y = X[:, 1] - X[:, 2] ** 2 + rng.standard_normal(rows)
            grams.append(gram_accumulate(X, y))
        X[:, 3] = 0.5  # a column constant within the side adds no df
        grams.append(gram_accumulate(X, y))
        return grams

    BOUNDED = [((1e-3,), "gcv"), ((1e-3, 0.05, 2.0), "gcv"), ((1e-3, 0.05, 2.0), "sse")]

    @pytest.mark.parametrize("lam,loss", BOUNDED)
    def test_bounds_hold_on_random_stacks(self, lam, loss):
        _, upper, _ = self._assert_bounds_hold(self._random_stack(), lam, loss)
        # the df may saturate a side of at most m rows
        assert np.isinf(upper[:2]).all() and np.isfinite(upper[2:]).all()

    EXACT = [
        ((1e-3,), "sse"),  # needs no df
        ((0.0,), "gcv"), ((0.0, 0.1), "sse"),  # eigendecomposition: a zero weight
        (LONG_GRID, "gcv"),  # eigendecomposition: a long grid
        (LONG_GRID, "sse"),
    ]

    @pytest.mark.parametrize("lam,loss", EXACT)
    def test_bounds_are_the_loss_where_it_is_known(self, lam, loss):
        # where the solve gives the df anyway, or the loss needs none, loose
        # bounds would only send candidates back through the solver
        lower, upper, exact = self._assert_bounds_hold(self._random_stack(), lam, loss)
        assert np.array_equal(lower, exact) and np.array_equal(upper, exact)

    @pytest.mark.parametrize("lam,loss", [
        ((1e-20,), "gcv"), ((1e-20, 0.1), "gcv"), ((1e-20, 0.1), "sse"),
    ])
    def test_bounds_hold_where_cholesky_fails(self, lam, loss, eigh_calls):
        # the duplicated +-1 column of test_failed_cholesky_falls_back_to_eigh:
        # at lambda 1e-20 its factorization fails and eigh solves it
        x = np.tile([1.0, -1.0], 8)
        y = np.repeat(np.arange(8.0), 2)
        singular = gram_accumulate(np.column_stack([np.ones(16), x, x]), y)
        rng = np.random.default_rng(3)
        regular = [
            gram_accumulate(
                np.column_stack([np.ones(40), rng.standard_normal((40, 2))]),
                rng.standard_normal(40),
            )
            for _ in range(2)
        ]
        grams = [regular[0], singular, regular[1]]
        lower, upper, exact = self._assert_bounds_hold(grams, lam, loss)
        assert eigh_calls[0] == (1, 2, 2)  # the bounds' own solve fell back
        # and took the df with it, so the fallen-back side is bounded exactly
        assert lower[1] == upper[1] == exact[1]

    def test_c5_shaped_root_sweep_takes_few_dfs(self, monkeypatch, swept_gains):
        # f2's ten features on 15-knot splines (151 columns) and 50 bins, as
        # in the C5 fit, on fewer rows; the df comes from dtrtri alone
        sim = simulate("f2", 12_000, 0.5, seed=20240811)
        ds = to_dataset(sim, rows=sim.train_idx)
        spec = build_spec(ds, num_knots=15)
        assert spec.total_columns == 151
        node_gram, bins = _node_bins(ds, spec, 50)
        calls = []
        inner = gram_mod.dtrtri

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return inner(*args, **kwargs)

        monkeypatch.setattr(gram_mod, "dtrtri", counting)
        config = GrowConfig(num_bins=50)
        found = best_split(node_gram, fit_node(node_gram, config.lam), bins, config,
                           2 * spec.total_columns)
        sides = 2 * sum(gains.size for gains in swept_gains)
        assert found is not None and sides > 800
        assert 0 < len(calls) < 0.1 * sides

    def test_categorical_sweep_over_several_chunks(self, swept_gains):
        # 46 columns: a chunk of left sides holds (1 << 22) // 46**2 = 1982 of
        # the 2047 subsets of 12 levels, so the sweep scores them in two
        # batches.  The levels in ``alike`` act alike, so the best subset is
        # theirs: (0, 6, ..., 11) comes late in canonical order, in the
        # second batch, and (0, 1, ..., 5) early, in the first, where only
        # the carried best keeps the first batch's winner.  Either way the
        # node's bound leaves some candidates of the second batch unscored
        cases = (((0, 6, 7, 8, 9, 10, 11), 1, "gcv"), ((0, 1, 2, 3, 4, 5), 0, "sse"))
        for alike, batch, loss in cases:
            rng = np.random.default_rng(51)
            n = 900
            base = make_dataset(rng, n, continuous=2)
            k = rng.integers(0, 12, n)
            columns = dict(base.columns, g=np.array([f"g{j:02d}" for j in range(12)])[k])
            response = base.response + np.where(np.isin(k, alike), 1.5, -1.5) * columns["x1"]
            ds = SurrogateDataset(features=base.features + (Feature("g", "categorical"),),
                                  columns=columns, response=response)
            spec = build_spec(ds, num_knots=17)
            m = spec.total_columns
            assert m == 46
            node_gram, bins = _node_bins(ds, spec, 8)
            fb = bins[-1]
            config = GrowConfig(num_bins=8, loss=loss)
            parent_loss = _node_split_loss(fit_node(node_gram, config.lam), config.loss)
            keys, want = _fresh_sweep(fb, node_gram, parent_loss, config, m)
            chunk = (1 << 22) // m**2
            best = int(np.argmax(want))
            assert len(keys) == 2047 > chunk and best // chunk == batch
            swept_gains.clear()
            found = tree_mod._sweep_feature(fb, node_gram, parent_loss, config, m,
                                            tree_mod._Workspace(), tree_mod._LossBound())
            assert [gains.size for gains in swept_gains] == [chunk, 2047 - chunk]
            assert not np.isfinite(swept_gains[1]).all()
            assert found.gain == want[best]
            assert found.left_bin_indices == keys[best][1] == alike
            assert fb.feature.candidate(found.left_bin_indices).categories == tuple(
                f"g{j:02d}" for j in alike
            )
            if batch:  # the subset-refit oracle refits 4,094 sides: run it once
                (feature, key), gain, *_ = naive_best_split(ds, spec, config, m)
                assert (feature, key) == (fb.feature.index, alike)
                assert gain == pytest.approx(found.gain, rel=1e-9)


def _streamed(ds, spec, num_bins, rows=None):
    """A node's features as callables that bin them from its rows when swept."""
    source, _ = _node_rows(ds, spec, num_bins, rows)
    return [partial(source.bin, i) for i in range(len(source.features))]


def _assert_same_children(a, b):
    """Two BestSplits with the same winner and bit-equal children."""
    assert a.candidate == b.candidate and a.gain == b.gain
    for got, want in ((a.left_gram, b.left_gram), (a.right_gram, b.right_gram)):
        assert np.array_equal(got.xtx, want.xtx) and np.array_equal(got.xty, want.xty)
        assert got.yty == want.yty and got.count == want.count
    for got, want in ((a.left_model, b.left_model), (a.right_model, b.right_model)):
        assert np.array_equal(got.coefficients, want.coefficients)
        assert (got.sse, got.effective_df, got.lam) == (want.sse, want.effective_df, want.lam)


class TestStreamedSearch:
    """Features handed to best_split as callables are binned and swept one at a time.

    Their search is that of the same features binned up front: every
    candidate that both score has the same gain, bit for bit, and the
    winner and its children are the same.
    """

    @staticmethod
    def _gains_by_sides(monkeypatch):
        """The gains of every scoring call, keyed by its left sides' y'y and
        counts, so that calls made in any thread order can be matched."""
        calls = {}
        inner = tree_mod._split_gains

        def spy(node, left, *rest):
            gains = inner(node, left, *rest)
            calls[left.yty.tobytes() + left.count.tobytes()] = gains.copy()
            return gains

        monkeypatch.setattr(tree_mod, "_split_gains", spy)
        return calls

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("levels", [5, 14])
    @pytest.mark.parametrize("loss", ["gcv", "sse"])
    @pytest.mark.parametrize("lam", [1e-3, (1e-3, 0.05, 2.0)], ids=["scalar", "grid3"])
    def test_matches_bins_made_up_front(self, monkeypatch, lam, loss, levels, threads):
        # 5 levels take exhaustive subsets, 14 the ordered scan
        rng = np.random.default_rng(41)
        ds = make_dataset(rng, 1400, continuous=2, categorical=1, levels=levels)
        spec = build_spec(ds, num_knots=4)
        node_gram, bins = _node_bins(ds, spec, 16)
        config = GrowConfig(lam=lam, loss=loss, num_bins=16, threads=threads)
        node_model = fit_node(node_gram, config.lam)
        found, gains = [], []
        for items in (bins, _streamed(ds, spec, 16)):
            with monkeypatch.context() as patch:
                gains.append(self._gains_by_sides(patch))
                found.append(best_split(node_gram, node_model, items, config,
                                        spec.total_columns))
        assert gains[0].keys() == gains[1].keys()
        scored = 0
        for key, want in gains[0].items():
            got = gains[1][key]
            both = (got != -np.inf) & (want != -np.inf)
            assert np.array_equal(got[both], want[both])
            scored += int(both.sum())
        assert scored > 0
        _assert_same_children(*found)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("lam", [1e-3, (1e-3, 0.05, 2.0)], ids=["scalar", "grid3"])
    def test_matches_a_node_of_derived_bins(self, lam, threads):
        # the larger child of the root: its bins derived by subtraction rank
        # the candidates, and the winner is re-binned for the children, so
        # they are those of streaming the child's rows
        ds, spec = TestHistogramSubtraction._data()
        config = GrowConfig(lam=lam, num_bins=8, threads=threads)
        X, y, m = design_matrix(ds, spec), ds.response, spec.total_columns
        features = tree_mod._prepare_binning(ds, spec, config)
        root_gram, root_bins = gram_accumulate(X, y), _node_bins(ds, spec, 8)[1]
        split = best_split(root_gram, fit_node(root_gram, lam), root_bins, config, m)
        mask = tree_mod.split_mask(ds, spec, split.candidate)
        rows = [np.flatnonzero(mask), np.flatnonzero(~mask)]
        grams = [split.left_gram, split.right_gram]
        small, large = sorted((0, 1), key=lambda side: rows[side].size)
        ws = tree_mod._Workspace()
        smaller = tree_mod._NodeRows(features, X, y, rows[small], 1, None, ws)
        larger = tree_mod._NodeRows(features, X, y, rows[large], 2, None, tree_mod._Workspace())
        derived = [
            tree_mod._derive(whole, smaller.bin(i, ws), partial(larger.bin, i))
            for i, whole in enumerate(root_bins)
        ]
        node_gram = grams[large]
        node_model = fit_node(node_gram, lam)
        found = [
            best_split(node_gram, node_model, items, config, m)
            for items in (derived, _streamed(ds, spec, 8, rows=rows[large]))
        ]
        _assert_same_children(*found)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_wide_node_holds_two_features_bins_per_worker(self, threads):
        # 151 columns, as in the C5 fit: one feature's bins are 40 (m, m)
        # blocks, and six features binned up front would outweigh the bound
        rng = np.random.default_rng(12)
        ds = make_dataset(rng, 3000, continuous=6)
        spec = build_spec(ds, num_knots=25)
        m = spec.total_columns
        assert m == 151
        source, ws = _node_rows(ds, spec, 40)
        node_gram = gram_accumulate(source.X, source.y)
        streamed = [partial(source.bin, i) for i in range(len(source.features))]
        one = max(feature.num_bins for feature in source.features) * (m * m + m + 1) * 8
        config = GrowConfig(num_bins=40, threads=threads)
        node_model = fit_node(node_gram, config.lam)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            found = best_split(node_gram, node_model, streamed, config, m, workspace=ws)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert found is not None
        # the workspaces hold scratch only; each feature's bins are fresh
        # arrays, dropped once swept
        scratch = sum(buf.nbytes for w in [ws] + ws._workers for buf in w._arrays.values())
        assert len(streamed) > 2 * threads
        assert peak <= scratch + threads * 2 * one

    def test_pool_is_capped_at_the_feature_count(self, monkeypatch):
        # a thread count far above the feature count makes no more workers
        # or workspaces than there are features to search
        asked, pools = [], []
        workers = tree_mod._Workspace.workers

        def spy(self, count):
            asked.append(count)
            return workers(self, count)

        class Pool(tree_mod.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(tree_mod._Workspace, "workers", spy)
        monkeypatch.setattr(tree_mod, "ThreadPoolExecutor", Pool)
        rng = np.random.default_rng(13)
        ds = make_dataset(rng, 600, continuous=3)
        spec = build_spec(ds, num_knots=3)
        node_gram, bins = _node_bins(ds, spec, 8)
        assert len(bins) == 3
        found = [
            best_split(node_gram, fit_node(node_gram, 1e-3), bins,
                       GrowConfig(num_bins=8, threads=threads), spec.total_columns)
            for threads in (64, 1)
        ]
        assert asked == [3] and pools == [3]
        _assert_same_children(*found)


class TestGrow:
    def test_depth_zero_single_node(self, rng):
        ds = make_dataset(rng, 200, continuous=2)
        spec = build_spec(ds, num_knots=3)
        root = grow(ds, spec, GrowConfig(max_depth=0))
        assert root.is_leaf and root.id == 0
        # equals the global additive model
        X = design_matrix(ds, spec)
        global_model = fit_node(gram_accumulate(X, ds.response), GrowConfig().lam)
        assert_allclose(root.model.coefficients, global_model.coefficients)

    def test_construction_postconditions(self, rng):
        ds = make_dataset(rng, 1200, continuous=3, categorical=1)
        spec = build_spec(ds, num_knots=3)
        config = GrowConfig(max_depth=3, num_bins=12, min_samples_leaf=60)
        root = grow(ds, spec, config)
        ids = [node.id for node in root.nodes()]
        assert ids == sorted(ids) and ids[0] == 0
        for node in root.nodes():
            if node.is_leaf:
                assert node.left is None and node.right is None
            else:
                assert node.dsse > config.min_gain
                assert node.left.count + node.right.count == node.count
                assert min(node.left.count, node.right.count) >= 60
                assert node.left.depth == node.depth + 1

    def test_monotone_training_sse(self, rng):
        ds = make_dataset(rng, 1500, continuous=3)
        spec = build_spec(ds, num_knots=3)
        config = GrowConfig(max_depth=3, num_bins=10, lam=0.0, loss="sse",
                            min_samples_leaf=80)
        root = grow(ds, spec, config)
        # each retained split reduces the summed leaf SSE by exactly dsse
        for node in root.nodes():
            if not node.is_leaf:
                drop = node.model.sse - (node.left.model.sse + node.right.model.sse)
                assert drop == pytest.approx(node.dsse, rel=1e-9, abs=1e-9)
                assert drop >= 0

    def test_gcv_loss_non_increasing_sse(self, rng):
        ds = make_dataset(rng, 1500, continuous=3)
        spec = build_spec(ds, num_knots=3)
        root = grow(ds, spec, GrowConfig(max_depth=3, num_bins=10, loss="gcv",
                                         min_samples_leaf=80))
        for node in root.nodes():
            if not node.is_leaf:
                assert node.left.model.sse + node.right.model.sse <= node.model.sse * (1 + 1e-12)

    def test_empty_dataset_rejected(self):
        ds = SurrogateDataset(
            features=(Feature("x1", "continuous"),),
            columns={"x1": np.array([])},
            response=np.array([]),
        )
        from splinetree import DataError

        with pytest.raises(DataError, match="empty"):
            grow(ds, _spec_stub(), GrowConfig())

    def test_width_exceeding_rows_rejected(self, rng):
        ds = make_dataset(rng, 20, continuous=3)
        spec = build_spec(ds, num_knots=10)
        from splinetree import DataError

        with pytest.raises(DataError, match="width"):
            grow(ds, spec, GrowConfig())

    def test_min_samples_leaf_below_width_rejected(self, rng):
        ds = make_dataset(rng, 200, continuous=3)
        spec = build_spec(ds, num_knots=4)
        with pytest.raises(ValueError, match="design width"):
            grow(ds, spec, GrowConfig(min_samples_leaf=spec.total_columns - 1))

    @pytest.mark.parametrize(
        "field, value, message",
        [("lam", np.nan, "finite"), ("lam", np.inf, "finite"), ("lam", -1e-3, "finite"),
         ("lam", (1e-3, np.nan), "finite"), ("lam", (0.1, np.inf), "finite"),
         ("lam", (), "empty"), ("min_gain", np.nan, "min_gain"),
         ("min_gain", -1.0, "min_gain"),
         ("max_depth", np.nan, "integer"), ("max_depth", 2.5, "integer"),
         ("num_bins", 7.5, "integer"), ("num_bins", np.nan, "integer"),
         ("threads", 1.5, "integer"), ("min_samples_leaf", np.nan, "integer"),
         ("min_samples_leaf", 40.5, "integer")],
    )
    def test_config_outside_the_domain_rejected(self, field, value, message):
        # a NaN ridge weight would grow NaN models and an infinite one an
        # intercept-only root, with no error; a NaN depth would grow a
        # root-only tree and a depth of 2.5 one of depth 3
        with pytest.raises(ValueError, match=message):
            GrowConfig(**{field: value})

    def test_numpy_integer_fields_accepted(self, rng):
        ds = make_dataset(rng, 600, continuous=2)
        spec = build_spec(ds, num_knots=3)
        plain = GrowConfig(max_depth=2, num_bins=8, threads=2, min_samples_leaf=60)
        numpy = GrowConfig(max_depth=np.int64(2), num_bins=np.int32(8), threads=np.uint8(2),
                           min_samples_leaf=np.int64(60))
        trees = [list(grow(ds, spec, config).nodes()) for config in (plain, numpy)]
        assert len(trees[0]) == len(trees[1]) > 1
        for a, b in zip(*trees):
            assert a.split == b.split
            assert np.array_equal(a.model.coefficients, b.model.coefficients)

    def test_one_gram_pass_per_node_feature(self, rng):
        ds = make_dataset(rng, 800, continuous=3)
        spec = build_spec(ds, num_knots=3)
        for bins in (5, 20):
            inst = SplitInstrumentation()
            root = grow(ds, spec, GrowConfig(max_depth=2, num_bins=bins,
                                             min_samples_leaf=60),
                        instrumentation=inst)
            counts = {n.id: n.count for n in root.nodes()}
            seen = set()
            for ev in inst.events:
                assert ev.rows_accumulated == counts[ev.node_id]
                key = (ev.node_id, ev.feature)
                assert key not in seen, "feature re-binned within one node"
                seen.add(key)

    @staticmethod
    def _grown_alike_across_threads(ds, spec, config):
        # a short switch interval interleaves the workers' binning and
        # sweeps finely, so a scratch buffer shared between them would be
        # overwritten mid-feature; the passes are recorded alike too
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        trees, records = [], []
        try:
            for t in (1, 2, 4):
                inst = SplitInstrumentation()
                trees.append(grow(ds, spec, replace(config, threads=t), instrumentation=inst))
                records.append((inst.events, inst.kept_bytes))
        finally:
            sys.setswitchinterval(interval)
        base = list(trees[0].nodes())
        for other in trees[1:]:
            nodes = list(other.nodes())
            assert len(nodes) == len(base)
            for a, b in zip(base, nodes):
                assert a.id == b.id and a.split == b.split
                assert (a.model.coefficients == b.model.coefficients).all()
        assert records[0][0] and all(record == records[0] for record in records)
        return trees[0], records[0][1]

    def test_determinism_across_threads(self, rng):
        ds = make_dataset(rng, 900, continuous=3, categorical=1)
        spec = build_spec(ds, num_knots=3)
        config = GrowConfig(max_depth=3, num_bins=8, min_samples_leaf=60)
        self._grown_alike_across_threads(ds, spec, config)

    @pytest.mark.parametrize(
        "lam", [(1e-3, 0.05, 2.0), tuple(np.geomspace(1e-3, 5.0, 6)), LONG_GRID]
    )
    def test_determinism_across_threads_with_grid_and_categorical_split(self, rng, lam):
        # each worker sweeps in its own workspace; the c1-by-x1 interaction
        # makes the root split on the categorical feature
        ds = make_dataset(rng, 900, continuous=3, categorical=1, levels=5)
        x, c = ds.columns, ds.columns["c1"]
        sign = np.where(np.isin(c, ["lv1", "lv3"]), 1.0, -1.0)
        ds.response[:] = (x["x2"] + np.sin(2 * x["x3"]) + 2.0 * sign * x["x1"]
                          + 0.1 * rng.standard_normal(900))
        spec = build_spec(ds, num_knots=3)
        config = GrowConfig(max_depth=3, num_bins=8, min_samples_leaf=60, lam=lam)
        root, _ = self._grown_alike_across_threads(ds, spec, config)
        assert root.split.categories is not None

    def test_determinism_across_threads_on_a_wide_design(self):
        # 151 columns: no node can keep its bins, so every node streams
        rng = np.random.default_rng(14)
        ds = make_dataset(rng, 2000, continuous=3)
        spec = build_spec(ds, num_knots=50)
        m = spec.total_columns
        config = GrowConfig(max_depth=2, num_bins=20, min_samples_leaf=m)
        features = tree_mod._prepare_binning(ds, spec, config)
        assert _node_bytes(features, m) > design_matrix(ds, spec).nbytes
        root, kept_bytes = self._grown_alike_across_threads(ds, spec, config)
        assert not root.is_leaf and not root.left.is_leaf and kept_bytes == []

    def test_determinism_across_threads_with_subtraction(self):
        ds, spec = TestHistogramSubtraction._data()
        _, kept_bytes = self._grown_alike_across_threads(
            ds, spec, TestHistogramSubtraction.CONFIG
        )
        assert max(kept_bytes) > 0


def _spec_stub():
    from splinetree.basis import DesignSpec

    return DesignSpec(blocks=(), knots={}, levels={}, total_columns=1)


class TestHistogramSubtraction:
    """The larger child of a kept split sweeps derived bins; trees do not change."""

    CONFIG = GrowConfig(max_depth=4, num_bins=8, min_samples_leaf=40)

    @staticmethod
    def _data():
        # 3 spline features plus 6- and 14-level categoricals (exhaustive
        # subsets and the ordered scan); c6 interacts with x1, so some
        # nodes split on it and leave a child with empty level bins
        rng = np.random.default_rng(81)
        n = 7000
        ds = make_dataset(rng, n, continuous=3)
        k6, k14 = rng.integers(0, 6, n), rng.integers(0, 14, n)
        columns = dict(ds.columns)
        columns["c6"] = np.array([f"a{k}" for k in range(6)])[k6]
        columns["c14"] = np.array([f"b{k:02d}" for k in range(14)])[k14]
        response = (ds.response + 2 * np.cos(2 * k6) + np.cos(3 * k14)
                    + np.where(np.isin(k6, [1, 4]), 1.5, -1.0) * columns["x1"])
        ds = SurrogateDataset(
            features=ds.features + (Feature("c6", "categorical"),
                                    Feature("c14", "categorical")),
            columns=columns, response=response,
        )
        return ds, build_spec(ds, num_knots=3)

    @staticmethod
    def _searched(node, config):
        return (node.depth < config.max_depth
                and node.count >= 2 * config.min_samples_leaf)

    def _pairs(self, root, config):
        """(smaller, larger) child of every split whose children were both searched."""
        for node in root.nodes():
            if node.is_leaf:
                continue
            left, right = node.left, node.right
            if self._searched(left, config) and self._searched(right, config):
                yield (left, right) if left.count <= right.count else (right, left)

    @staticmethod
    def _passes(inst, root):
        counts = {n.id: n.count for n in root.nodes()}
        by_node = defaultdict(list)
        for ev in inst.events:
            assert ev.rows_accumulated == counts[ev.node_id]
            by_node[ev.node_id].append(ev.feature)
        return by_node

    def test_derived_bins_match_direct_binning(self, monkeypatch):
        ds, spec = self._data()
        config = self.CONFIG
        derived = []

        def capture(whole, sub, rebin, _derive=tree_mod._derive):
            derived.append(_derive(whole, sub, rebin))
            return derived[-1]

        monkeypatch.setattr(tree_mod, "_derive", capture)
        root = grow(ds, spec, config)
        pairs = list(self._pairs(root, config))
        X, y = design_matrix(ds, spec), ds.response
        names = [feature.name for feature in tree_mod._prepare_binning(ds, spec, config)]
        features = len(names)
        # one feature at a time, in schema order, pair after pair
        assert len(pairs) * features == len(derived) >= 3 * features  # every pair fits the budget
        derived = [derived[k : k + features] for k in range(0, len(derived), features)]
        members = route(root, spec, ds)
        empty = 0
        for (_, larger), bins in zip(pairs, derived):
            rows = members[larger.id]
            assert [fb.feature.name for fb in bins] == names
            for fb in bins:
                direct = bin_grams(X[rows], y[rows], fb.feature.bin_ids[rows],
                                   fb.feature.num_bins)
                derived_stats = (fb.stats.xtx, fb.stats.xty, fb.stats.yty)
                direct_stats = (direct.xtx, direct.xty, direct.yty)
                assert [d.shape for d in derived_stats] == [g.shape for g in direct_stats]
                assert np.array_equal(fb.stats.count, direct.count)
                for d, g in zip(derived_stats, direct_stats):
                    assert_allclose(d, g, rtol=0, atol=1e-12 * np.abs(g).max())
                gone = direct.count == 0  # exactly zero, as direct binning leaves them
                empty += int(gone.sum())
                assert not any(d[gone].any() for d in derived_stats)
        assert empty > 0

    @pytest.mark.parametrize("loss", ["gcv", "sse"])
    @pytest.mark.parametrize(
        "lam", [1e-3, (1e-3, 0.05, 2.0), tuple(np.geomspace(1e-3, 5.0, 6)), LONG_GRID],
        ids=["scalar", "grid3", "grid6", "long"],
    )
    def test_tree_bytes_match_direct_binning(self, monkeypatch, lam, loss):
        ds, spec = self._data()
        config = replace(self.CONFIG, lam=lam, loss=loss)

        def grown(cfg):
            inst = SplitInstrumentation()
            root = grow(ds, spec, cfg, instrumentation=inst)
            doc = json.dumps(tree_to_json(root, spec, ds.features, {}), sort_keys=True)
            return doc, len(inst.events)

        with monkeypatch.context() as patch:  # no bins kept: every node binned
            patch.setattr(tree_mod, "_kept_bins_budget", lambda X: 0)
            direct, direct_passes = grown(config)
        for threads in (1, 2):
            subtracted, passes = grown(replace(config, threads=threads))
            assert subtracted == direct
            assert passes < direct_passes

    def test_wide_design_keeps_nothing(self, rng):
        # 12 knots: one node's per-bin statistics outweigh the design matrix
        ds = make_dataset(rng, 900, continuous=3)
        spec = build_spec(ds, num_knots=12)
        m = spec.total_columns
        config = GrowConfig(max_depth=3, num_bins=20, min_samples_leaf=m)
        features = tree_mod._prepare_binning(ds, spec, config)
        assert _node_bytes(features, m) > design_matrix(ds, spec).nbytes
        inst = SplitInstrumentation()
        root = grow(ds, spec, config, instrumentation=inst)
        assert list(self._pairs(root, config)), "no split had both children searched"
        assert inst.kept_bytes == []
        passes = self._passes(inst, root)
        searched = [node for node in root.nodes() if self._searched(node, config)]
        assert sorted(passes) == [node.id for node in searched]
        for node in searched:  # one pass per (node, feature), as without subtraction
            assert passes[node.id] == [feature.name for feature in features]

    @pytest.mark.parametrize("room", [None, 2], ids=["design-size", "two-nodes"])
    def test_kept_bytes_within_budget(self, monkeypatch, room):
        ds, spec = self._data()
        config = self.CONFIG
        X, m = design_matrix(ds, spec), spec.total_columns
        features = tree_mod._prepare_binning(ds, spec, config)
        names = [feature.name for feature in features]
        node_bytes = _node_bytes(features, m)
        ws = tree_mod._Workspace()
        source = tree_mod._NodeRows(features, X, ds.response, np.arange(ds.n), 0, None, ws)
        one = [source.bin(i, ws) for i in range(len(features))]
        assert node_bytes == sum(fb.stats.xtx.nbytes + fb.stats.xty.nbytes for fb in one)
        budget = X.nbytes
        if room is not None:  # room for one parent and its derived child's bins
            budget = room * node_bytes
            monkeypatch.setattr(tree_mod, "_kept_bins_budget", lambda X: budget)
        assert budget >= 2 * node_bytes
        inst = SplitInstrumentation()
        root = grow(ds, spec, config, instrumentation=inst)
        assert 0 < max(inst.kept_bytes) <= budget
        assert inst.kept_bytes[-1] == 0
        passes = self._passes(inst, root)
        pairs = list(self._pairs(root, config))
        derived = 0
        for smaller, larger in pairs:
            assert passes[smaller.id] == names
            if passes[larger.id] == names:
                continue  # binned directly: no room when its parent split
            derived += 1
            # at most one pass: the winning feature, re-binned for the children
            assert len(passes[larger.id]) <= 1
            if not larger.is_leaf:
                assert passes[larger.id] == [larger.split.feature]
        if room is None:
            assert derived == len(pairs)
        else:
            assert 0 < derived < len(pairs)


class TestPrune:
    @pytest.fixture
    def grown(self, rng):
        ds = make_dataset(rng, 1500, continuous=3)
        spec = build_spec(ds, num_knots=3)
        root = grow(ds, spec, GrowConfig(max_depth=3, num_bins=10, min_samples_leaf=80))
        return root

    def test_zero_thresholds_collapse_to_root(self, grown):
        pruned = prune(grown, 0.0, 0.0)
        assert pruned.is_leaf and pruned.id == 0

    def test_vacuous_thresholds_keep_tree(self, grown):
        if grown.is_leaf:
            pytest.skip("no splits were found")
        pruned = prune(grown, 1.0, 0.0)
        assert sum(1 for _ in pruned.nodes()) == sum(1 for _ in grown.nodes())
        for a, b in zip(grown.nodes(), pruned.nodes()):
            assert a.id == b.id and a.split == b.split

    def test_input_tree_unchanged(self, grown):
        before = sum(1 for _ in grown.nodes())
        prune(grown, 0.0, 0.0)
        assert sum(1 for _ in grown.nodes()) == before

    def test_ids_preserved(self, grown):
        pruned = prune(grown, 0.95, 0.01)
        grown_ids = {n.id for n in grown.nodes()}
        for node in pruned.nodes():
            assert node.id in grown_ids

    def test_thresholds_validated(self, grown):
        with pytest.raises(ValueError):
            prune(grown, -0.5, 0.0)
        with pytest.raises(ValueError):
            prune(grown, 0.5, 2.0)


def _reference_leaf(root, spec, record):
    """The leaf a record reaches under the split rule, in plain Python.

    Continuous: left iff ``x <= threshold``.  Categorical: left iff the
    value is in the split's categories or is not a training level at all.
    """
    node = root
    while not node.is_leaf:
        cand = node.split
        value = record[cand.feature]
        if cand.threshold is not None:
            go_left = value <= cand.threshold
        else:
            go_left = value in cand.categories or value not in spec.levels[cand.feature]
        node = node.left if go_left else node.right
    return node


def _reference_value(leaf, spec, record):
    """The leaf model at one record, from a dense row built block by block."""
    row = np.empty(spec.total_columns)
    row[0] = 1.0
    for block in spec.blocks:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnseenCategoryWarning)
            row[block.columns] = basis.block_rows(
                np.asarray([record[block.feature]]), spec, block
            )[0]
    return float(row @ leaf.model.coefficients)


def _reference_predict(root, spec, dataset):
    out = np.empty(dataset.n)
    for i in range(dataset.n):
        record = {name: col[i] for name, col in dataset.columns.items()}
        out[i] = _reference_value(_reference_leaf(root, spec, record), spec, record)
    return out


def _single_record(dataset, record):
    columns = {f.name: np.asarray([record[f.name]]) for f in dataset.features}
    return SurrogateDataset(features=dataset.features, columns=columns, response=np.zeros(1))


class TestPredict:
    def test_root_only_equals_additive_model(self, rng):
        ds = make_dataset(rng, 300, continuous=2)
        spec = build_spec(ds, num_knots=3)
        root = grow(ds, spec, GrowConfig(max_depth=0))
        X = design_matrix(ds, spec)
        assert_allclose(predict(root, spec, ds), X @ root.model.coefficients)

    def test_threshold_boundary_routes_left(self, rng):
        ds = make_dataset(rng, 1200, continuous=2)
        spec = build_spec(ds, num_knots=3)
        root = grow(ds, spec, GrowConfig(max_depth=1, num_bins=8, min_samples_leaf=60))
        assert not root.is_leaf and root.left.is_leaf
        record = {f.name: 0.0 for f in ds.features}
        record[root.split.feature] = root.split.threshold  # exactly at it
        value = predict(root, spec, _single_record(ds, record))[0]
        assert value == pytest.approx(_reference_value(root.left, spec, record), abs=1e-12)

    def test_predict_matches_dense_oracle(self, rng):
        # a categorical split at the root, continuous splits below it
        ds = make_dataset(rng, 1500, continuous=2, categorical=1)
        lifted = np.isin(ds.columns["c1"], ["lv0", "lv2"])
        ds.response[:] += np.where(lifted, 4.0, -4.0) * ds.columns["x1"] ** 2
        spec = build_spec(ds, num_knots=3)
        root = grow(ds, spec, GrowConfig(max_depth=2, num_bins=8, min_samples_leaf=80))
        internal = [node for node in root.nodes() if not node.is_leaf]
        assert root.split.categories is not None
        assert sum(node.split.threshold is not None for node in internal) >= 2

        # fresh records; at every split, rows that reach it get a value
        # exactly at its threshold, or a category never seen in training
        fresh = make_dataset(rng, 1000, continuous=2, categorical=1)
        fresh.columns["c1"] = fresh.columns["c1"].astype("U12")

        def probe(cand):
            return cand.threshold if cand.threshold is not None else "unseen-lv"

        for node in internal:
            reaching = route(root, spec, fresh)[node.id]
            hit = rng.choice(reaching, size=min(25, reaching.size), replace=False)
            fresh.columns[node.split.feature][hit] = probe(node.split)
        members = route(root, spec, fresh)
        for node in internal:
            reached = fresh.columns[node.split.feature][members[node.id]]
            assert np.any(reached == probe(node.split)), node.id

        with pytest.warns(UnseenCategoryWarning):
            pred = predict(root, spec, fresh)
        assert_allclose(pred, _reference_predict(root, spec, fresh), rtol=0, atol=1e-12)

    def test_unseen_category_routes_left(self, rng):
        ds = make_dataset(rng, 1500, continuous=1, categorical=1)
        # force a categorical split by making the response depend on it only
        ds.response[:] = np.where(ds.columns["c1"] == "lv0", 3.0, -1.0)
        ds.response += 0.01 * rng.standard_normal(1500)
        spec = build_spec(ds, num_knots=2)
        root = grow(ds, spec, GrowConfig(max_depth=1, num_bins=5, min_samples_leaf=30))
        assert not root.is_leaf and root.split.categories is not None
        record = {"x1": 0.0, "c1": "never-seen"}
        with pytest.warns(UnseenCategoryWarning):
            value = predict(root, spec, _single_record(ds, record))[0]
        left_record = {"x1": 0.0, "c1": root.split.categories[0]}
        left_value = predict(root, spec, _single_record(ds, left_record))[0]
        assert value == pytest.approx(left_value, abs=1e-9)
        assert value == pytest.approx(_reference_value(root.left, spec, record), abs=1e-12)


class TestRefitL1:
    def setup_tree(self, rng, n=600):
        ds = make_dataset(rng, n, continuous=2)
        spec = build_spec(ds, num_knots=3)
        root = grow(ds, spec, GrowConfig(max_depth=1, num_bins=6,
                                         min_samples_leaf=60, lam=0.5))
        return ds, spec, root

    def test_zero_penalty_recovers_least_squares(self, rng):
        ds, spec, root = self.setup_tree(rng)
        refit_l1(root, ds, spec, 0.0)
        members = route(root, spec, ds)
        X = design_matrix(ds, spec)
        for leaf in root.leaves():
            idx = members[leaf.id]
            ols = fit_node(gram_accumulate(X[idx], ds.response[idx]), 0.0)
            assert_allclose(
                leaf.model.coefficients, ols.coefficients, atol=1e-6, rtol=1e-6
            )

    def test_large_penalty_zeroes_coefficients(self, rng):
        ds, spec, root = self.setup_tree(rng)
        members = route(root, spec, ds)
        X = design_matrix(ds, spec)
        lam_max = 0.0
        for leaf in root.leaves():
            idx = members[leaf.id]
            Xl, yl = X[idx], ds.response[idx]
            mu, sd = Xl[:, 1:].mean(0), Xl[:, 1:].std(0)
            sd[sd == 0] = 1.0
            Z = (Xl[:, 1:] - mu) / sd
            lam_max = max(lam_max, np.max(np.abs(Z.T @ (yl - yl.mean()))) / idx.size)
        refit_l1(root, ds, spec, lam_max * 1.001)
        for leaf in root.leaves():
            assert_allclose(leaf.model.coefficients[1:], 0.0, atol=1e-12)
            assert leaf.model.coefficients[0] == pytest.approx(
                ds.response[members[leaf.id]].mean(), abs=1e-9
            )

    def test_objective_matches_proximal_gradient(self, rng):
        # independent lasso oracle: plain ISTA on the standardized design
        ds, spec, root = self.setup_tree(rng, n=400)
        lam1 = 0.05
        refit_l1(root, ds, spec, lam1)
        members = route(root, spec, ds)
        X = design_matrix(ds, spec)
        for leaf in root.leaves():
            idx = members[leaf.id]
            Xl, yl = X[idx], ds.response[idx]
            mu, sd = Xl[:, 1:].mean(0), Xl[:, 1:].std(0)
            keep = sd > 0
            Z = (Xl[:, 1:][:, keep] - mu[keep]) / sd[keep]
            yc = yl - yl.mean()
            n = idx.size

            def objective(g):
                r = yc - Z @ g
                return float(r @ r) / (2 * n) + lam1 * np.abs(g).sum()

            g = np.zeros(Z.shape[1])
            step = 1.0 / (np.linalg.norm(Z, 2) ** 2 / n)
            for _ in range(20000):
                grad = -(Z.T @ (yc - Z @ g)) / n
                g_new = np.sign(g - step * grad) * np.maximum(
                    np.abs(g - step * grad) - step * lam1, 0.0
                )
                if np.max(np.abs(g_new - g)) < 1e-10:
                    g = g_new
                    break
                g = g_new
            ours = leaf.model.coefficients[1:][keep] * sd[keep]
            assert objective(ours) == pytest.approx(objective(g), rel=1e-9)

    @pytest.mark.parametrize("lambda1", [np.nan, np.inf, -0.1])
    def test_penalty_outside_the_domain_rejected(self, rng, lambda1):
        # a NaN penalty would zero every non-intercept coefficient unflagged
        ds, spec, root = self.setup_tree(rng)
        before = [leaf.model.coefficients.copy() for leaf in root.leaves()]
        with pytest.raises(ValueError, match="finite and nonnegative"):
            refit_l1(root, ds, spec, lambda1)
        for leaf, coefficients in zip(root.leaves(), before):
            assert np.array_equal(leaf.model.coefficients, coefficients)

    def test_structure_unchanged(self, rng):
        ds, spec, root = self.setup_tree(rng)
        splits_before = [(n.id, n.split) for n in root.nodes()]
        refit_l1(root, ds, spec, 0.01)
        assert [(n.id, n.split) for n in root.nodes()] == splits_before

    @pytest.mark.parametrize("lambda1", [1e-3, 0.05])
    def test_converged_leaves_meet_kkt(self, rng, lambda1):
        # The lasso optimality (KKT) conditions on the standardized design,
        # standardized here from each leaf's rows.  With g the residual
        # correlation (c - A gamma) / n: g_j = lambda1 sign(gamma_j) where
        # gamma_j != 0, and |g_j| <= lambda1 where gamma_j = 0.  Descent
        # stops after a pass in which no coordinate moved by 1e-7; each
        # coordinate meets its condition exactly after its own update, and
        # the later updates of the pass shift g_j by |A_jk| / n * 1e-7 each,
        # with |A_jk| / n <= 1 for standardized columns.  So tol is
        # (p - 1) * 1e-7, plus 1e-9 for rounding.
        ds, spec, root = self.setup_tree(rng)
        refit_l1(root, ds, spec, lambda1)
        members = route(root, spec, ds)
        X = design_matrix(ds, spec)
        zeros = nonzeros = 0
        for leaf in root.leaves():
            assert "l1_nonconverged" not in leaf.flags
            idx = members[leaf.id]
            Xl, yl = X[idx], ds.response[idx]
            mu, sd = Xl[:, 1:].mean(0), Xl[:, 1:].std(0)
            keep = sd > 0
            Z = (Xl[:, 1:][:, keep] - mu[keep]) / sd[keep]
            n, p = Z.shape
            gamma = leaf.model.coefficients[1:][keep] * sd[keep]
            g = (Z.T @ (yl - yl.mean()) - (Z.T @ Z) @ gamma) / n
            tol = (p - 1) * 1e-7 + 1e-9
            active = gamma != 0
            assert np.all(np.abs(g[~active]) <= lambda1 + tol)
            assert_allclose(g[active], lambda1 * np.sign(gamma[active]), rtol=0, atol=tol)
            zeros += int(np.sum(~active))
            nonzeros += int(np.sum(active))
        assert zeros > 0 and nonzeros > 0

    def test_nonconverged_leaves_keep_their_model(self, rng, monkeypatch):
        # a step rule of 0 is never met, so every leaf runs out of passes
        ds, spec, root = self.setup_tree(rng)
        monkeypatch.setattr(tree_mod, "fit_lasso", partial(tree_mod.fit_lasso, tol=0.0))
        before = {leaf.id: (leaf.flags, leaf.model, leaf.effect_means.copy())
                  for leaf in root.leaves()}
        refit_l1(root, ds, spec, 0.05)
        for leaf in root.leaves():
            flags, model, means = before[leaf.id]
            assert leaf.flags == flags + ("l1_nonconverged",)
            assert np.array_equal(leaf.model.coefficients, model.coefficients)
            assert (leaf.model.sse, leaf.model.r2) == (model.sse, model.r2)
            assert np.array_equal(leaf.effect_means, means)
