"""Interpretability diagnostics for fitted trees.

Every node model is additive, so the input-output relationship of one
feature at one node is fully described by that feature's block evaluated
against the node's coefficients.  The diagnostics here are built on that:
per-node effect curves, variance-based leaf importance, and the
split-contribution attribution that explains which features' effects
changed across a split (and hence which interaction drove it).

All sample variances use the population denominator n; only ratios and
comparisons of these quantities are consumed downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from . import basis, tree as tree_mod

_ZERO_CONTRIBUTION_TOL = 1e-12


@dataclass(frozen=True)
class EffectCurve:
    """Centered effect values of one feature at one node, on a grid."""

    node_id: int
    feature: str
    grid: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class ImportanceTable:
    """Per-(leaf, feature) effect variances; flagged leaves had < 2 rows."""

    values: dict[tuple[int, str], float]
    flagged: frozenset[int]


@dataclass(frozen=True)
class SplitContribution:
    """Variance attribution of one split across features.

    ``p`` sums to 1 unless the parent and child models are effectively
    identical, in which case every entry is 0 and ``no_interaction`` is set.
    """

    node_id: int
    c: dict[str, float]
    p: dict[str, float]
    no_interaction: bool


@dataclass(frozen=True)
class Fidelity:
    mse: float
    r2: float

    @property
    def r2_defined(self) -> bool:
        return not math.isnan(self.r2)


def _block_effect(model, spec, block, values) -> np.ndarray:
    """Uncentered effect of one feature's block at the given raw values."""
    return basis.block_effect(values, spec, block, model.coefficients[block.columns])


def effect_eval(node, spec, feature: str, x, *, center: bool = True):
    """Fitted effect of one feature at a node, centered to the node sample.

    With ``center=False`` the raw block contribution is returned, so that
    intercept + sum of uncentered effects over features reassembles the
    node's prediction.
    """
    block = spec.block_for(feature)
    scalar = np.ndim(x) == 0
    values = _block_effect(node.model, spec, block, np.atleast_1d(x))
    if center:
        values = values - node.effect_means[spec.blocks.index(block)]
    return float(values[0]) if scalar else values


def effect_curve(node, spec, feature: str, grid=None, num_points: int = 100) -> EffectCurve:
    """Sampled effect curve for one feature at one node.

    The default grid spans the feature's root training range (its knot
    span) with ``num_points`` even steps; categorical features get one
    value per training level.  Raw linear blocks carry no training range,
    so a grid must be supplied for them.
    """
    block = spec.block_for(feature)
    if grid is None:
        if block.kind == "spline":
            knots = spec.knots[feature].knots
            grid = np.linspace(knots[0], knots[-1], num_points)
        elif block.kind == "onehot":
            grid = np.asarray(spec.levels[feature], dtype=object)
        else:
            raise ValueError(
                f"feature {feature!r} has a raw linear block; pass an explicit grid"
            )
    else:
        grid = np.asarray(grid)
    return EffectCurve(
        node_id=node.id,
        feature=feature,
        grid=grid,
        values=effect_eval(node, spec, feature, grid),
    )


def leaf_importance(root, spec, dataset) -> ImportanceTable:
    """Population variance of each feature's effect within each leaf.

    Leaves reached by fewer than two records get importance 0 for every
    feature and are flagged.
    """
    leaves = list(root.leaves())
    codes = basis.dataset_codes(dataset, spec)
    members = tree_mod.route(root, spec, dataset, codes=codes)
    leaf = tree_mod.leaf_numbers(leaves, members, dataset.n)
    coefficients = np.stack([node.model.coefficients for node in leaves])
    flagged = frozenset(node.id for node in leaves if members[node.id].size < 2)
    values = {(node.id, block.feature): 0.0 for node in leaves for block in spec.blocks}
    for block in spec.blocks:
        # every record's effect under its own leaf's coefficients
        h = basis.block_effect(
            dataset.columns[block.feature], spec, block, coefficients[:, block.columns], leaf,
            codes=codes.get(block.feature),
        )
        for node in leaves:
            if node.id not in flagged:
                values[(node.id, block.feature)] = float(np.var(h[members[node.id]]))
    return ImportanceTable(values=values, flagged=flagged)


def _path_to(root, node_id: int):
    """Nodes from the root down to the node with ``node_id``, or None."""
    if root.id == node_id:
        return [root]
    if root.is_leaf:
        return None
    for child in (root.left, root.right):
        path = _path_to(child, node_id)
        if path is not None:
            return [root, *path]
    return None


def split_contribution(root, node_id: int, spec, dataset) -> SplitContribution:
    """Attribute one split to the features whose effects changed across it.

    For each member record of the parent, the difference between the
    parent's effect and the routed child's effect is computed per feature
    (uncentered; variances are shift invariant), then pooled over all
    parent members into a variance ``c`` and normalized into proportions
    ``p``.

    The split variable itself is excluded (c fixed at 0): a child's fit of
    its own split variable always re-levels by a constant relative to the
    parent (the child sees only one side of the cut), and that constant
    would otherwise swamp the pooled variance of the genuinely interacting
    features.
    """
    path = _path_to(root, node_id)
    if path is None:
        raise KeyError(f"no node with id {node_id}")
    node = path[-1]
    if node.is_leaf:
        raise ValueError(f"node {node_id} is a leaf; contributions need a split")
    # the node's rows, masked along its path exactly as route() walks it
    idx = np.arange(dataset.n)
    codes = basis.dataset_codes(dataset, spec)
    for parent, child in zip(path, path[1:]):
        mask = tree_mod.split_mask(
            dataset, spec, parent.split, rows=idx, codes=codes.get(parent.split.feature)
        )
        idx = idx[np.flatnonzero(mask if child is parent.left else ~mask)]
    mask = tree_mod.split_mask(
        dataset, spec, node.split, rows=idx, codes=codes.get(node.split.feature)
    )
    # the left child's rows, then the right child's
    n_left = int(np.count_nonzero(mask))
    idx = np.concatenate([idx[np.flatnonzero(mask)], idx[np.flatnonzero(~mask)]])
    coefficients = np.stack([m.model.coefficients for m in (node, node.left, node.right)])

    c: dict[str, float] = {}
    for block in spec.blocks:
        if block.feature == node.split.feature:
            c[block.feature] = 0.0
            continue
        # each record under the node's, the left and the right coefficients;
        # a categorical column's values are gathered only to name unseen ones
        col, rows_codes = dataset.columns[block.feature], codes.get(block.feature)
        if rows_codes is not None:
            rows_codes = rows_codes[idx]
        values = col[idx] if rows_codes is None or (rows_codes < 0).any() else None
        e = basis.block_effect(
            values, spec, block, coefficients[:, block.columns], codes=rows_codes
        )
        d = e[0] - np.concatenate([e[1, :n_left], e[2, n_left:]])
        c[block.feature] = float(np.var(d)) if d.size else 0.0

    total = sum(c.values())
    if total < _ZERO_CONTRIBUTION_TOL:
        p = {name: 0.0 for name in c}
        return SplitContribution(node_id=node_id, c=c, p=p, no_interaction=True)
    p = {name: value / total for name, value in c.items()}
    return SplitContribution(node_id=node_id, c=c, p=p, no_interaction=False)


def fidelity(predictions, responses) -> Fidelity:
    """Mean squared difference and squared Pearson correlation.

    R^2 is reported as NaN (``r2_defined`` False) when either side has zero
    variance.
    """
    pred = np.asarray(predictions, dtype=np.float64)
    resp = np.asarray(responses, dtype=np.float64)
    if pred.shape != resp.shape or pred.size < 2:
        raise ValueError("need two aligned sequences of length >= 2")
    mse = float(np.mean((pred - resp) ** 2))
    vp = pred - pred.mean()
    vr = resp - resp.mean()
    denom = float(vp @ vp) * float(vr @ vr)
    if denom <= 0.0:
        return Fidelity(mse=mse, r2=float("nan"))
    return Fidelity(mse=mse, r2=float(vp @ vr) ** 2 / denom)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def auc_score(scores, labels) -> float:
    """Rank-statistic AUC with midrank tie handling.

    The midranks are computed in numpy: a stable sort, tie groups where
    adjacent sorted scores differ (so -0.0 ties with 0.0), and each group's
    1-based ranks averaged to (start + end + 1) / 2.  NaN if the labels are
    single-class or any score is NaN.
    """
    s = np.asarray(scores, dtype=np.float64)
    lab = np.asarray(labels)
    pos = lab == 1
    n1 = int(np.count_nonzero(pos))
    n0 = s.size - n1
    if n1 == 0 or n0 == 0 or np.isnan(s).any():
        return float("nan")
    order = np.argsort(s, kind="stable")
    ordered = s[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], s.size)
    ranks = np.empty(s.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return float((ranks[pos].sum() - n1 * (n1 + 1) / 2.0) / (n1 * n0))


def log_loss(probabilities, labels) -> float:
    """Mean negative log likelihood with probabilities clamped away from 0/1."""
    p = np.clip(np.asarray(probabilities, dtype=np.float64), 1e-12, 1.0 - 1e-12)
    lab = np.asarray(labels, dtype=np.float64)
    return float(-np.mean(lab * np.log(p) + (1.0 - lab) * np.log1p(-p)))


def accuracy(predictions, responses, task: str = "continuous") -> dict[str, float]:
    """Agreement with the original responses.

    Continuous: mse and squared-correlation r2.  Binary: predictions are
    taken on the logit scale, passed through the logistic function, and
    scored by AUC (midrank ties) and log-loss; AUC is NaN when the labels
    are single-class.
    """
    pred = np.asarray(predictions, dtype=np.float64)
    resp = np.asarray(responses)
    if task == "continuous":
        fid = fidelity(pred, np.asarray(resp, dtype=np.float64))
        return {"mse": fid.mse, "r2": fid.r2}
    if task == "binary":
        values = set(np.unique(resp).tolist())
        if not values <= {0, 1, 0.0, 1.0}:
            raise ValueError("binary task requires 0/1 labels")
        probs = _sigmoid(pred)
        return {"auc": auc_score(probs, resp), "log_loss": log_loss(probs, resp)}
    raise ValueError("task must be 'continuous' or 'binary'")
