"""Shared fixtures and oracle implementations.

The naive split oracle here deliberately avoids the cumulative-sum
machinery: every candidate partition is materialized as two row subsets,
each re-aggregated from scratch and re-fitted.  It is the independent
route that the gram-based sweep is checked against.
"""

import itertools

import numpy as np
import pytest

from splinetree import (
    Feature,
    GramStats,
    SurrogateDataset,
    candidate_edges,
    design_matrix,
    fit_node,
    gcv_loss,
    gram_accumulate,
)
from splinetree.tree import FeatureBins, _SplitFeature, bin_grams, bin_values


def make_dataset(rng, n, continuous=2, categorical=0, levels=4, response=None):
    """Random mixed-type dataset with a mildly interacting response."""
    features = []
    columns = {}
    for j in range(continuous):
        name = f"x{j + 1}"
        features.append(Feature(name, "continuous"))
        columns[name] = rng.uniform(-1, 1, size=n)
    for j in range(categorical):
        name = f"c{j + 1}"
        features.append(Feature(name, "categorical"))
        columns[name] = rng.choice([f"lv{k}" for k in range(levels)], size=n)
    if response is None:
        response = np.zeros(n)
        for j in range(continuous):
            response = response + (j + 1) * np.sin(columns[f"x{j + 1}"] * (j + 2))
        if continuous >= 2:
            response = response + columns["x1"] * columns["x2"]
        for j in range(categorical):
            lv = columns[f"c{j + 1}"]
            response = response + np.where(lv == "lv0", 1.0, -0.5) * (
                columns["x1"] if continuous else 1.0
            )
        response = response + 0.1 * rng.standard_normal(n)
    return SurrogateDataset(
        features=tuple(features), columns=columns, response=response
    )


def stack_grams(grams):
    """A list of one-row-set GramStats as one stacked GramStats."""
    return GramStats(
        xtx=np.stack([g.xtx for g in grams]),
        xty=np.stack([g.xty for g in grams]),
        yty=np.array([g.yty for g in grams]),
        count=np.array([g.count for g in grams]),
    )


def node_loss(model, loss):
    """Split-comparison loss, independent re-statement (SSE units)."""
    if loss == "sse":
        return model.sse
    return model.count * gcv_loss(model.sse, model.count, model.effective_df)


def naive_best_split(dataset, spec, config, min_leaf):
    """Subset-refit split search: no cumulative sums, no gram subtraction.

    Returns (candidate_key, gain, left_coefficients, right_coefficients)
    or None, where candidate_key is (feature_index, threshold) or
    (feature_index, left_level_subset).
    """
    X = design_matrix(dataset, spec)
    y = np.asarray(dataset.response, dtype=np.float64)
    parent = fit_node(gram_accumulate(X, y), config.lam)
    parent_loss = node_loss(parent, config.loss)

    best = None
    for index, feat in enumerate(dataset.features):
        col = dataset.columns[feat.name]
        if feat.kind == "continuous":
            candidates = [
                (float(t), col <= t)
                for t in candidate_edges(col, config.num_bins)
            ]
        else:
            levs = spec.levels.get(feat.name)
            if levs is None:
                continue
            candidates = []
            for r in range(len(levs) - 1):
                for rest in itertools.combinations(range(1, len(levs)), r):
                    subset = (0,) + rest
                    candidates.append((subset, np.isin(col, [levs[k] for k in subset])))
            candidates.sort(key=lambda t: t[0])
        for key, mask in candidates:
            n_left = int(mask.sum())
            if n_left < min_leaf or dataset.n - n_left < min_leaf:
                continue
            try:
                left = fit_node(gram_accumulate(X[mask], y[mask]), config.lam)
                right = fit_node(gram_accumulate(X[~mask], y[~mask]), config.lam)
                gain = parent_loss - (
                    node_loss(left, config.loss) + node_loss(right, config.loss)
                )
            except ValueError:  # saturated child under GCV
                continue
            if best is None or gain > best[1]:
                best = ((index, key), gain, left.coefficients, right.coefficients)
    return best


def implementation_best_split(dataset, spec, config, min_leaf):
    """Drive the production sweep through its public pieces."""
    from splinetree import best_split

    X = design_matrix(dataset, spec)
    y = np.asarray(dataset.response, dtype=np.float64)
    node_gram = gram_accumulate(X, y)
    node_model = fit_node(node_gram, config.lam)
    bins = []
    for index, feat in enumerate(dataset.features):
        col = dataset.columns[feat.name]
        if feat.kind == "continuous":
            edges = candidate_edges(col, config.num_bins)
            if edges.size == 0:
                continue
            ids = bin_values(col, edges)
            bins.append(
                FeatureBins(
                    _SplitFeature(feat.name, index, ids, edges=edges),
                    bin_grams(X, y, ids, edges.size + 1),
                )
            )
        else:
            levs = spec.levels.get(feat.name)
            if levs is None:
                continue
            lookup = {lv: k for k, lv in enumerate(levs)}
            ids = np.array([lookup[v] for v in col])
            bins.append(
                FeatureBins(
                    _SplitFeature(feat.name, index, ids, levels=levs),
                    bin_grams(X, y, ids, len(levs)),
                )
            )
    return best_split(node_gram, node_model, bins, config, min_leaf), node_model


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
