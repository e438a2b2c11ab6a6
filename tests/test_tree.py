"""Tree growth, split search, pruning, prediction, and the L1 refit."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splinetree import (
    DataError,
    Feature,
    GrowConfig,
    SplitInstrumentation,
    SurrogateDataset,
    build_spec,
    candidate_edges,
    design_matrix,
    fit_node,
    gram_accumulate,
    grow,
    predict,
    prune,
    refit_l1,
)
from splinetree import basis
from splinetree import gram as gram_mod
from splinetree import tree as tree_mod
from splinetree.basis import UnseenCategoryWarning
from splinetree.gram import NULL_SPACE_RTOL, _standardize, gcv_loss
from splinetree.tree import (
    _batch_child_losses,
    _node_split_loss,
    _stack,
    bin_grams,
    route,
)

from conftest import implementation_best_split, make_dataset, naive_best_split


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
        grams = bin_grams(X, y, np.zeros(30, dtype=int), 1)
        node = gram_accumulate(X, y)
        assert_allclose(grams[0].xtx, node.xtx)
        assert grams[0].count == 30

    def test_bins_cover_node(self, rng):
        X = rng.standard_normal((100, 4))
        y = rng.standard_normal(100)
        ids = rng.integers(0, 5, size=100)
        grams = bin_grams(X, y, ids, 5)
        total_xtx = sum(g.xtx for g in grams)
        node = gram_accumulate(X, y)
        assert_allclose(total_xtx, node.xtx, rtol=1e-12, atol=1e-12)
        assert sum(g.count for g in grams) == 100

    def test_each_bin_matches_filtered_rows(self, rng):
        X = rng.standard_normal((60, 3))
        y = rng.standard_normal(60)
        ids = rng.integers(0, 5, size=60)
        grams = bin_grams(X, y, ids, 5)
        for k in range(5):
            mask = ids == k
            direct = gram_accumulate(X[mask], y[mask])
            assert_allclose(grams[k].xtx, direct.xtx, rtol=1e-12, atol=1e-12)
            assert_allclose(grams[k].xty, direct.xty, rtol=1e-12, atol=1e-12)
            assert grams[k].count == direct.count

    def test_empty_bins_are_zero(self, rng):
        X = rng.standard_normal((10, 2))
        grams = bin_grams(X, rng.standard_normal(10), np.zeros(10, dtype=int), 3)
        assert grams[1].count == 0 and not grams[1].xtx.any()

    @staticmethod
    def _assert_bit_equal(X, y, ids, num_bins):
        grams = bin_grams(X, y, ids, num_bins)
        assert len(grams) == num_bins
        ids = np.asarray(ids)
        for k, gram in enumerate(grams):
            xk, yk = X[ids == k], y[ids == k]
            assert np.array_equal(gram.xtx, xk.T @ xk)
            assert np.array_equal(gram.xty, xk.T @ yk)
            assert gram.yty == float(yk @ yk)
            assert gram.count == xk.shape[0]
        return grams

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
        grams = self._assert_bit_equal(X, y, ids, num_bins)
        if num_bins > 1:
            assert grams[1].count == 0 and not grams[1].xtx.any()

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


class TestPrepareBinning:
    def test_categorical_codes_match_per_row_lookup(self, rng):
        # the spec's levels come from the full data; the subset lacks two
        # of them, so the codes skip those positions
        ds = make_dataset(rng, 600, continuous=1, categorical=1, levels=6)
        spec = build_spec(ds, num_knots=3)
        col = ds.columns["c1"]
        sub = ds.subset(np.nonzero((col != "lv1") & (col != "lv4"))[0])
        binning = tree_mod._prepare_binning(sub, spec, GrowConfig(num_bins=8))
        levels = spec.levels["c1"]
        index = {lev: k for k, lev in enumerate(levels)}
        expected = np.array([index[v] for v in sub.columns["c1"]])
        codes = binning.bin_ids["c1"]
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
        binning = tree_mod._prepare_binning(ds, spec, GrowConfig(num_bins=8))
        ids = binning.bin_ids["x1"]
        assert ids.dtype == np.uint8
        assert np.array_equal(ids, tree_mod.bin_values(ds.columns["x1"], binning.edges["x1"]))


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
        [1e-3, 0.5, (1e-3, 0.05, 2.0), (1e-3, 0.01, 0.05, 0.2, 1.0, 5.0), 0.0, (0.0, 0.1)],
    )
    def test_matches_scalar_fits(self, lam, loss, eigh_calls):
        grams = self._candidate_grams()
        lam_values = GrowConfig(lam=lam).lam_values
        got = _batch_child_losses(*_stack(grams), lam_values, loss)
        swept = list(eigh_calls)  # before the reference fits add their own
        assert_allclose(got, _reference_losses(grams, lam_values, loss), rtol=1e-9)
        # a grid containing zero or longer than the Cholesky limit takes eigh
        long_grid = len(lam_values) > gram_mod._CHOLESKY_GRID_LIMIT
        assert bool(swept) == (min(lam_values) == 0.0 or long_grid)

    @pytest.mark.parametrize("lam", [(1e-3, 0.05, 2.0), tuple(np.geomspace(1e-3, 5.0, 6))])
    def test_grid_sse_ranks_the_refit_model(self, lam, eigh_calls):
        # with a grid, an SSE sweep scores each candidate at the lambda its
        # refit keeps (chosen by GCV), not at the grid's smallest SSE
        grams = self._candidate_grams()
        got = _batch_child_losses(*_stack(grams), lam, "sse")
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
        got = _batch_child_losses(*_stack(grams), lam, loss)
        assert np.all(np.isfinite(got))
        assert_allclose(got, _reference_losses(grams, lam, loss), rtol=1e-9)

    def test_grid_saturated_everywhere_is_infinite(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([np.ones(4), rng.standard_normal((4, 3))])
        grams = [gram_accumulate(X, rng.standard_normal(4))]
        got = _batch_child_losses(*_stack(grams), (0.0, 0.0), "gcv")
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
        xtx, xty, _, counts = _stack([g])
        spectrum = np.linalg.eigvalsh(_standardize(xtx, xty, counts)[0][0])
        near_null = spectrum[spectrum < NULL_SPACE_RTOL * spectrum[-1]]
        assert near_null.size == 1 and near_null[0] > 1e-14 * spectrum[-1]
        model = fit_node(g, lam)
        sse = _batch_child_losses(*_stack([g]), (lam,), "sse")
        assert_allclose(sse, model.sse, rtol=1e-9)
        got = _batch_child_losses(*_stack([g]), (lam,), "gcv")
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
        got = _batch_child_losses(*_stack(grams), lam_values, loss)
        assert eigh_calls == [(1, 2, 2)]
        assert np.all(np.isfinite(got))
        assert_allclose(got, _reference_losses(grams, lam_values, loss), rtol=1e-9)


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

    def test_one_gram_pass_per_node_feature(self, rng):
        ds = make_dataset(rng, 800, continuous=3)
        spec = build_spec(ds, num_knots=3)
        for bins in (5, 20):
            inst = SplitInstrumentation()
            grow(ds, spec, GrowConfig(max_depth=2, num_bins=bins,
                                      min_samples_leaf=60),
                 instrumentation=inst)
            seen = set()
            for ev in inst.events:
                assert ev.rows_accumulated == ev.node_count
                key = (ev.node_id, ev.feature)
                assert key not in seen, "feature re-binned within one node"
                seen.add(key)

    def test_determinism_across_threads(self, rng):
        ds = make_dataset(rng, 900, continuous=3, categorical=1)
        spec = build_spec(ds, num_knots=3)
        trees = [
            grow(ds, spec, GrowConfig(max_depth=3, num_bins=8,
                                      min_samples_leaf=60, threads=t))
            for t in (1, 2, 4)
        ]
        base = list(trees[0].nodes())
        for other in trees[1:]:
            nodes = list(other.nodes())
            assert len(nodes) == len(base)
            for a, b in zip(base, nodes):
                assert a.id == b.id and a.split == b.split
                assert (a.model.coefficients == b.model.coefficients).all()


def _spec_stub():
    from splinetree.basis import DesignSpec

    return DesignSpec(blocks=(), knots={}, levels={}, total_columns=1)


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
            assert objective(ours) == pytest.approx(objective(g), abs=1e-6)

    def test_structure_unchanged(self, rng):
        ds, spec, root = self.setup_tree(rng)
        splits_before = [(n.id, n.split) for n in root.nodes()]
        refit_l1(root, ds, spec, 0.01)
        assert [(n.id, n.split) for n in root.nodes()] == splits_before
