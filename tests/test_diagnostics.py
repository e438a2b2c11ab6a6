"""Effect curves, importance, split contributions, and fit metrics."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splinetree import (
    GrowConfig,
    SurrogateDataset,
    accuracy,
    auc_score,
    build_spec,
    effect_curve,
    effect_eval,
    fidelity,
    grow,
    leaf_importance,
    log_loss,
    predict,
    split_contribution,
)
from splinetree import tree as tree_mod
from splinetree.basis import UnseenCategoryWarning
from splinetree.diagnostics import _ZERO_CONTRIBUTION_TOL, _block_effect
from splinetree.tree import route, split_mask

from conftest import make_dataset


@pytest.fixture
def fitted(rng):
    ds = make_dataset(rng, 1500, continuous=3, categorical=1)
    spec = build_spec(ds, num_knots=4)
    root = grow(ds, spec, GrowConfig(max_depth=2, num_bins=8, min_samples_leaf=80))
    return ds, spec, root


class TestEffectEval:
    def test_zero_block_gives_zero(self, fitted):
        ds, spec, root = fitted
        leaf = next(root.leaves())
        block = spec.block_for("x1")
        leaf.model.coefficients[block.columns] = 0.0
        leaf.effect_means[spec.blocks.index(block)] = 0.0
        grid = np.linspace(-1, 1, 7)
        assert_allclose(effect_eval(leaf, spec, "x1", grid), 0.0, atol=1e-15)

    def test_reassembly_equals_predict(self, fitted):
        ds, spec, root = fitted
        pred = predict(root, spec, ds)
        members = route(root, spec, ds)
        for leaf in root.leaves():
            idx = members[leaf.id][:50]
            if idx.size == 0:
                continue
            total = np.full(idx.size, leaf.model.coefficients[0])
            for block in spec.blocks:
                total += effect_eval(
                    leaf, spec, block.feature,
                    ds.columns[block.feature][idx], center=False,
                )
            # one evaluator, summed in block order as predict sums it
            assert np.array_equal(total, pred[idx])

    def test_unknown_feature_rejected(self, fitted):
        _, spec, root = fitted
        with pytest.raises(KeyError):
            effect_eval(root, spec, "nope", 0.0)

    def test_centering_against_training_mean(self, fitted):
        ds, spec, root = fitted
        members = route(root, spec, ds)
        for leaf in root.leaves():
            idx = members[leaf.id]
            centered = effect_eval(leaf, spec, "x2", ds.columns["x2"][idx])
            assert abs(centered.mean()) < 1e-9


class TestEffectCurve:
    def test_grid_spans_training_range(self, fitted):
        ds, spec, root = fitted
        curve = effect_curve(root, spec, "x1", num_points=50)
        kv = spec.knots["x1"]
        assert curve.grid[0] == kv.knots[0] and curve.grid[-1] == kv.knots[-1]
        assert curve.values.shape == (50,)
        assert np.all(np.isfinite(curve.values))

    def test_categorical_curve_per_level(self, fitted):
        ds, spec, root = fitted
        curve = effect_curve(root, spec, "c1")
        assert tuple(curve.grid) == spec.levels["c1"]


class TestEffectRecovery:
    def test_root_fit_recovers_additive_truth(self):
        # noiseless additive surrogate: the fitted x1 curve should track
        # its true linear effect up to a constant; curvier terms are
        # limited by the piecewise-linear basis between knots
        from splinetree import simulate, to_dataset

        sim = simulate("f1", 8000, 0.5, seed=5)
        train = to_dataset(sim, rows=sim.train_idx)
        spec = build_spec(train, num_knots=10)
        root = grow(train, spec, GrowConfig(max_depth=0))

        curve = effect_curve(root, spec, "x1", num_points=100)
        truth = 3.0 * curve.grid
        dev = (curve.values - curve.values.mean()) - (truth - truth.mean())
        assert np.max(np.abs(dev)) < 0.05

        curve8 = effect_curve(root, spec, "x8", num_points=100)
        truth8 = curve8.grid**4 + 2.0 * np.cos(np.pi * curve8.grid)
        dev8 = (curve8.values - curve8.values.mean()) - (truth8 - truth8.mean())
        assert np.max(np.abs(dev8)) < 0.2


class TestLeafImportance:
    def test_constant_feature_zero(self, rng):
        ds = make_dataset(rng, 400, continuous=2)
        ds.columns["x2"][:] = 0.5  # constant within the (single) leaf
        features = ds.features
        ds2 = SurrogateDataset(
            features=features,
            columns={"x1": ds.columns["x1"], "x2": rng.uniform(-1, 1, 400)},
            response=ds.response,
        )
        spec = build_spec(ds2, num_knots=3)
        root = grow(ds2, spec, GrowConfig(max_depth=0))
        table = leaf_importance(root, spec, ds)  # evaluate with constant x2
        assert table.values[(0, "x2")] == pytest.approx(0.0, abs=1e-20)

    def test_matches_direct_variance(self, fitted):
        ds, spec, root = fitted
        table = leaf_importance(root, spec, ds)
        members = route(root, spec, ds)
        for leaf in root.leaves():
            idx = members[leaf.id]
            for block in spec.blocks:
                h = effect_eval(
                    leaf, spec, block.feature,
                    ds.columns[block.feature][idx], center=False,
                )
                direct = float(np.mean((h - h.mean()) ** 2))
                assert table.values[(leaf.id, block.feature)] == pytest.approx(
                    direct, rel=1e-10, abs=1e-12
                )

    def test_tiny_leaf_flagged(self, fitted):
        ds, spec, root = fitted
        probe = ds.subset(np.arange(1))  # one record routes to one leaf
        table = leaf_importance(root, spec, probe)
        assert table.flagged
        for leaf_id in table.flagged:
            for block in spec.blocks:
                assert table.values[(leaf_id, block.feature)] == 0.0

    def test_shift_invariance(self, fitted):
        # adding a constant to a block and removing it from the intercept
        # changes neither predictions nor importances
        ds, spec, root = fitted
        table_before = leaf_importance(root, spec, ds)
        leaf = next(root.leaves())
        block = spec.block_for("x1")
        leaf.model.coefficients[block.columns] += 2.5
        leaf.model.coefficients[0] -= 2.5
        table_after = leaf_importance(root, spec, ds)
        for key, value in table_before.values.items():
            assert table_after.values[key] == pytest.approx(value, rel=1e-9, abs=1e-12)


class TestSplitContribution:
    def test_identical_models_flagged(self, fitted):
        ds, spec, root = fitted
        if root.is_leaf:
            pytest.skip("no split")
        # force both children to the parent's coefficients
        for child in (root.left, root.right):
            child.model.coefficients[:] = root.model.coefficients
        sc = split_contribution(root, 0, spec, ds)
        assert sc.no_interaction
        assert all(v == 0.0 for v in sc.p.values())

    def test_matches_direct_recomputation(self, fitted):
        ds, spec, root = fitted
        if root.is_leaf:
            pytest.skip("no split")
        sc = split_contribution(root, 0, spec, ds)
        members = route(root, spec, ds)
        idx = members[0]
        col = ds.columns[root.split.feature]
        if root.split.threshold is not None:
            mask = col[idx] <= root.split.threshold
        else:
            mask = np.isin(col[idx], root.split.categories)
        for block in spec.blocks:
            if block.feature == root.split.feature:
                assert sc.c[block.feature] == 0.0
                continue
            d = []
            for child, child_idx in ((root.left, idx[mask]), (root.right, idx[~mask])):
                raw = ds.columns[block.feature][child_idx]
                d.append(
                    effect_eval(root, spec, block.feature, raw, center=False)
                    - effect_eval(child, spec, block.feature, raw, center=False)
                )
            d = np.concatenate(d)
            assert sc.c[block.feature] == pytest.approx(
                float(np.var(d)), rel=1e-9, abs=1e-12
            )

    def test_simplex_property(self, fitted):
        ds, spec, root = fitted
        if root.is_leaf:
            pytest.skip("no split")
        sc = split_contribution(root, 0, spec, ds)
        assert all(v >= 0 for v in sc.p.values())
        if not sc.no_interaction:
            assert sum(sc.p.values()) == pytest.approx(1.0, abs=1e-9)

    def test_leaf_node_rejected(self, fitted):
        ds, spec, root = fitted
        leaf_id = next(root.leaves()).id
        with pytest.raises(ValueError, match="leaf"):
            split_contribution(root, leaf_id, spec, ds)

    def test_block_shift_invariance(self, fitted):
        # moving a constant between a spline block and the intercept does
        # not change predictions, so it must not change c either
        ds, spec, root = fitted
        if root.is_leaf:
            pytest.skip("no split")
        before = split_contribution(root, 0, spec, ds)
        block = spec.block_for("x1")
        root.model.coefficients[block.columns] += 1.7
        root.model.coefficients[0] -= 1.7
        after = split_contribution(root, 0, spec, ds)
        for name in before.c:
            assert after.c[name] == pytest.approx(before.c[name], rel=1e-9, abs=1e-12)


def _reference_contribution(root, node, spec, ds):
    """c and p from a whole-tree route and one effect per model and side."""
    idx = route(root, spec, ds)[node.id]
    mask = split_mask(ds, spec, node.split, rows=idx)
    sides = ((node.left, idx[mask]), (node.right, idx[~mask]))
    c = {}
    for block in spec.blocks:
        if block.feature == node.split.feature:
            c[block.feature] = 0.0
            continue
        d = np.concatenate([
            _block_effect(node.model, spec, block, ds.columns[block.feature][rows])
            - _block_effect(child.model, spec, block, ds.columns[block.feature][rows])
            for child, rows in sides
        ])
        c[block.feature] = float(np.var(d)) if d.size else 0.0
    total = sum(c.values())
    if total < _ZERO_CONTRIBUTION_TOL:
        return c, {name: 0.0 for name in c}
    return c, {name: value / total for name, value in c.items()}


class TestSplitContributionOracle:
    """Path routing and one basis expansion per side, against route()."""

    @pytest.fixture
    def deep(self, rng):
        ds = make_dataset(rng, 3000, continuous=3, categorical=2, levels=5)
        lv = ds.columns["c2"]
        ds.response[:] += np.where(np.isin(lv, ["lv1", "lv3"]), 2.0, -1.0) * (
            1.0 + ds.columns["x2"]
        )
        spec = build_spec(ds, num_knots=4)
        root = grow(ds, spec, GrowConfig(max_depth=3, num_bins=8, min_samples_leaf=80))
        return ds, spec, root

    def test_every_internal_node_exact(self, deep, monkeypatch):
        ds, spec, root = deep
        internal = [node for node in root.nodes() if not node.is_leaf]
        assert max(node.depth for node in internal) == 2
        assert any(node.split.categories is not None for node in internal)
        expected = {n.id: _reference_contribution(root, n, spec, ds) for n in internal}

        def no_route(*args, **kwargs):
            raise AssertionError("split_contribution routed the whole tree")

        monkeypatch.setattr(tree_mod, "route", no_route)
        for node in internal:
            sc = split_contribution(root, node.id, spec, ds)
            assert (sc.c, sc.p) == expected[node.id]

    def test_unseen_categories_follow_route(self, deep):
        # unseen values route left at every categorical split
        ds, spec, root = deep
        fresh = make_dataset(np.random.default_rng(1), 500, continuous=3,
                             categorical=2, levels=5)
        fresh.columns["c2"][::7] = "unseen"
        fresh.columns["c1"][::5] = "other"
        with pytest.warns(UnseenCategoryWarning):
            for node in root.nodes():
                if node.is_leaf:
                    continue
                sc = split_contribution(root, node.id, spec, fresh)
                assert (sc.c, sc.p) == _reference_contribution(root, node, spec, fresh)

    def test_unknown_node_id(self, deep):
        ds, spec, root = deep
        with pytest.raises(KeyError, match="no node"):
            split_contribution(root, 999, spec, ds)


class TestFidelity:
    def test_perfect_predictions(self, rng):
        y = rng.standard_normal(50)
        fid = fidelity(y, y)
        assert fid.mse == 0.0 and fid.r2 == pytest.approx(1.0)

    def test_matches_textbook_formula(self, rng):
        pred = rng.standard_normal(200)
        resp = 0.5 * pred + rng.standard_normal(200)
        fid = fidelity(pred, resp)
        assert fid.mse == pytest.approx(float(np.mean((pred - resp) ** 2)), rel=1e-12)
        corr = np.corrcoef(pred, resp)[0, 1]
        assert fid.r2 == pytest.approx(corr**2, rel=1e-12)

    def test_affine_invariance(self, rng):
        pred = rng.standard_normal(100)
        resp = rng.standard_normal(100)
        base = fidelity(pred, resp).r2
        scaled = fidelity(3.0 * pred + 7.0, resp).r2
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_zero_variance_flagged(self):
        fid = fidelity(np.ones(10), np.arange(10.0))
        assert math.isnan(fid.r2) and not fid.r2_defined

    def test_length_validation(self):
        with pytest.raises(ValueError):
            fidelity([1.0], [1.0])


class TestAccuracy:
    def test_perfect_continuous(self, rng):
        y = rng.standard_normal(30)
        out = accuracy(y, y, task="continuous")
        assert out["mse"] == 0.0 and out["r2"] == pytest.approx(1.0)

    def test_separated_pair_auc_one(self):
        # logit-scale scores: 2.0 -> p ~ 0.88, -2.0 -> p ~ 0.12
        out = accuracy(np.array([2.0, -2.0]), np.array([1, 0]), task="binary")
        assert out["auc"] == 1.0

    def test_auc_matches_pairwise_oracle(self, rng):
        scores = rng.standard_normal(200)
        labels = rng.integers(0, 2, size=200)
        got = auc_score(scores, labels)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        assert got == pytest.approx(wins / (len(pos) * len(neg)), abs=1e-12)

    def test_auc_monotone_transform_invariant(self, rng):
        scores = rng.standard_normal(150)
        labels = rng.integers(0, 2, size=150)
        a = auc_score(scores, labels)
        b = auc_score(np.exp(scores) * 2 + 5, labels)
        assert a == pytest.approx(b, abs=1e-12)

    @staticmethod
    def _rankdata_auc(scores, labels):
        """The former scipy formula, kept as a differential oracle."""
        from scipy.stats import rankdata

        s = np.asarray(scores, dtype=np.float64)
        pos = np.asarray(labels) == 1
        n1 = int(np.count_nonzero(pos))
        n0 = s.size - n1
        return float((rankdata(s, method="average")[pos].sum() - n1 * (n1 + 1) / 2.0)
                     / (n1 * n0))

    @pytest.mark.parametrize("case", [
        "rounded ties", "no ties", "all equal", "n = 2", "signed zeros", "bool labels",
    ])
    def test_auc_equals_rankdata_formula(self, rng, case):
        n = 2 if case == "n = 2" else 300
        scores = rng.standard_normal(n)
        labels = rng.integers(0, 2, size=n)
        labels[:2] = (0, 1)
        if case == "rounded ties":
            scores = np.round(scores, 1)
        elif case == "all equal":
            scores[:] = 0.25
        elif case == "signed zeros":
            scores = np.round(scores)
            scores[rng.random(n) < 0.3] = -0.0
            scores[rng.random(n) < 0.3] = 0.0
        elif case == "bool labels":
            scores = np.round(scores, 1)
            labels = labels.astype(bool)
        assert auc_score(scores, labels) == self._rankdata_auc(scores, labels)

    def test_auc_nan_score_gives_nan(self):
        scores = np.array([0.1, np.nan, 0.3, 0.2])
        labels = np.array([1, 0, 1, 0])
        assert math.isnan(self._rankdata_auc(scores, labels))
        assert math.isnan(auc_score(scores, labels))
        assert math.isnan(auc_score(scores[::-1], labels[::-1]))
        assert math.isnan(auc_score([np.nan, np.nan, 1.0], [0, 1, 1]))

    def test_single_class_flagged(self):
        out = accuracy(np.array([0.2, 0.4, -0.1]), np.array([1, 1, 1]), task="binary")
        assert math.isnan(out["auc"])
        assert np.isfinite(out["log_loss"])

    def test_log_loss_clamping(self):
        value = log_loss(np.array([0.0, 1.0]), np.array([1, 0]))
        assert np.isfinite(value)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError, match="0/1"):
            accuracy(np.zeros(3), np.array([0, 1, 2]), task="binary")
