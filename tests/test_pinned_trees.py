"""Grown tree structure pinned to recorded values.

Small trees on a narrow design with 6- and 14-level categoricals (the
exhaustive subset search and the ordered scan), grown with GCV scoring at
lambda 1e-3, a three- and a six-value lambda grid, plain SSE and two
threads, all of which the sweep solves by Cholesky, and at lambda 0 and a
13-value grid, one value longer than the Cholesky route takes, which it
solves by eigendecomposition.  Their
split features, thresholds, category subsets and node counts must match
the values below exactly; the node coefficients, which BLAS rounding may
move, match at rtol 1e-8 through each node's coefficient norm.  The design
is narrow enough that parents keep their bins, so the larger child of
every kept split is searched on bins derived by histogram subtraction.
"""

import numpy as np
import pytest

from splinetree import (
    Feature, GrowConfig, SplitInstrumentation, SurrogateDataset, build_spec, grow,
)
from splinetree.tree import route

from conftest import make_dataset


def _data():
    rng = np.random.default_rng(17)
    n = 3000
    base = make_dataset(rng, n, continuous=3)
    k6, k14 = rng.integers(0, 6, n), rng.integers(0, 14, n)
    columns = dict(base.columns)
    columns["c6"] = np.array([f"a{k}" for k in range(6)])[k6]
    columns["c14"] = np.array([f"b{k:02d}" for k in range(14)])[k14]
    x1, x2, x3 = columns["x1"], columns["x2"], columns["x3"]
    # interactions the node models' one-hot main effects cannot absorb
    response = (base.response + 4.0 * np.where(k14 % 3 == 0, 1.0, -1.0) * (x3 + 1.5)
                + np.where(np.isin(k6, [1, 4]), 1.5, -1.0) * x1 + np.cos(2 * k6) * (x2 > 0.3))
    ds = SurrogateDataset(
        features=base.features + (Feature("c6", "categorical"), Feature("c14", "categorical")),
        columns=columns, response=response,
    )
    return ds, build_spec(ds, num_knots=3)


SETTINGS = {
    "gcv": dict(lam=1e-3),
    "grid": dict(lam=(1e-3, 0.05, 2.0)),
    "sse": dict(lam=1e-3, loss="sse"),
    "threads": dict(lam=1e-3, threads=2),
    "zero": dict(lam=0.0),
    "grid6": dict(lam=tuple(np.geomspace(1e-3, 5.0, 6))),
    "grid13": dict(lam=tuple(np.geomspace(1e-3, 5.0, 13))),
}

# per setting: node count, (node id, feature, threshold or left categories)
# of every split, and every node's coefficient norm, in node id order
PINNED = {
    "gcv": (
        15,
        [
            (0, "x3", -0.2698287512460592),
            (1, "x3", -0.5182481395308077),
            (2, "x3", 0.4678995088921384),
            (3, "x2", 0.23194691474224682),
            (4, "x2", 0.23194691474224682),
            (5, "c14", ("b00", "b03", "b06", "b09", "b12")),
            (6, "c6", ("a0", "a2", "a3", "a5")),
        ],
        [
            37.687117590172186, 21.854835669556653, 50.128570985821256, 19.565951171233536,
            27.009855808927615, 42.42391392071914, 56.29904882443696, 22.826248294931442,
            19.918412985051393, 29.89460416505419, 28.181787065092983, 23.931431413234304,
            11.392648107842357, 55.48510246959421, 56.775852527384856,
        ],
    ),
    "grid": (
        15,
        [
            (0, "x3", -0.2698287512460592),
            (1, "c14", ("b00", "b03", "b06", "b09", "b12")),
            (2, "x3", 0.4678995088921384),
            (3, "x2", 0.23194691474224682),
            (4, "x2", 0.4858590377316857),
            (5, "c14", ("b00", "b03", "b06", "b09", "b12")),
            (6, "c6", ("a0", "a2", "a3", "a5")),
        ],
        [
            37.68116909297601, 21.84494812720404, 50.1188721646359, 4.571190786852995,
            10.997610153200801, 42.410733177551734, 56.2654659741608, 12.03070097205503,
            6.112327129593296, 12.927549910838763, 10.401878251681923, 23.857746105640373,
            11.368101705419688, 55.48510246959421, 56.775852527384856,
        ],
    ),
    "sse": (
        15,
        [
            (0, "x3", -0.2698287512460592),
            (1, "x3", -0.5182481395308077),
            (2, "x3", 0.4678995088921384),
            (3, "x2", 0.23194691474224682),
            (4, "x2", 0.23194691474224682),
            (5, "c14", ("b00", "b03", "b06", "b09", "b12")),
            (6, "x1", -0.027238466652982574),
        ],
        [
            37.687117590172186, 21.854835669556653, 50.128570985821256, 19.565951171233536,
            27.009855808927615, 42.42391392071914, 56.29904882443696, 22.826248294931442,
            19.918412985051393, 29.89460416505419, 28.181787065092983, 23.931431413234304,
            11.392648107842357, 56.08544640454317, 55.62724345908867,
        ],
    ),
    "threads": (
        15,
        [
            (0, "x3", -0.2698287512460592),
            (1, "x3", -0.5182481395308077),
            (2, "x3", 0.4678995088921384),
            (3, "x2", 0.23194691474224682),
            (4, "x2", 0.23194691474224682),
            (5, "c14", ("b00", "b03", "b06", "b09", "b12")),
            (6, "c6", ("a0", "a2", "a3", "a5")),
        ],
        [
            37.687117590172186, 21.854835669556653, 50.128570985821256, 19.565951171233536,
            27.009855808927615, 42.42391392071914, 56.29904882443696, 22.826248294931442,
            19.918412985051393, 29.89460416505419, 28.181787065092983, 23.931431413234304,
            11.392648107842357, 55.48510246959421, 56.775852527384856,
        ],
    ),
    "zero": (
        15,
        [
            (0, "x3", -0.2698287512460592),
            (1, "x3", -0.5182481395308077),
            (2, "x3", 0.4678995088921384),
            (3, "x2", 0.23194691474224682),
            (4, "x2", 0.23194691474224682),
            (5, "c14", ("b00", "b03", "b06", "b09", "b12")),
            (6, "c6", ("a0", "a2", "a3", "a5")),
        ],
        [
            37.687239034690336, 21.855037625548043, 50.128769065205475, 19.56618865779493,
            27.01063736335602, 42.424183057984386, 56.29973488197354, 22.826619221035845,
            19.91907033491574, 29.895594538911798, 28.185510477834196, 23.93146852179831,
            11.392660445394512, 55.48609813030212, 56.777963657918214,
        ],
    ),
    "grid6": (
        15,
        [
            (0, "x3", -0.2698287512460592),
            (1, "c14", ("b00", "b03", "b06", "b09", "b12")),
            (2, "x3", 0.4678995088921384),
            (3, "x2", 0.23194691474224682),
            (4, "x2", 0.4858590377316857),
            (5, "c14", ("b00", "b03", "b06", "b09", "b12")),
            (6, "c6", ("a0", "a2", "a3", "a5")),
        ],
        [
            37.66713149282616, 21.821660627444384, 50.09599195760209, 4.5521977688710535,
            10.979504276263592, 42.416065438251245, 56.27904877616074, 11.84197787503065,
            6.001038045875925, 12.886662212548641, 10.442980202079822, 23.748786534232924,
            11.331631284367528, 55.45608348381176, 56.7663707163381,
        ],
    ),
    "grid13": (
        15,
        [
            (0, "x3", -0.2698287512460592),
            (1, "c14", ("b00", "b03", "b06", "b09", "b12")),
            (2, "x3", 0.4678995088921384),
            (3, "x2", 0.23194691474224682),
            (4, "x2", 0.4858590377316857),
            (5, "c14", ("b00", "b03", "b06", "b09", "b12")),
            (6, "c6", ("a0", "a2", "a3", "a5")),
        ],
        [
            37.6517824326358, 21.796270620920037, 50.10032539442622, 4.5521977688710535,
            10.979504276263592, 42.40516627481153, 56.27589571966477, 11.84197787503065,
            6.001038045875925, 12.886662212548641, 10.385022997517005, 23.748786534232924,
            11.331631284367528, 55.469080540199386, 56.741896335313875,
        ],
    ),
}


@pytest.mark.parametrize("setting", list(SETTINGS))
def test_grown_structure_matches_pinned_values(setting):
    ds, spec = _data()
    inst = SplitInstrumentation()
    config = GrowConfig(max_depth=3, num_bins=8, min_samples_leaf=40, **SETTINGS[setting])
    root = grow(ds, spec, config, instrumentation=inst)
    assert max(inst.kept_bytes) > 0  # histogram subtraction ran
    nodes = list(root.nodes())
    splits = [
        (node.id, node.split.feature,
         node.split.threshold if node.split.threshold is not None else node.split.categories)
        for node in nodes if node.split is not None
    ]
    count, want_splits, want_norms = PINNED[setting]
    assert len(nodes) == count
    assert splits == want_splits
    norms = [float(np.linalg.norm(node.model.coefficients)) for node in nodes]
    np.testing.assert_allclose(norms, want_norms, rtol=1e-8)


def _tied_to_thresholds(config, rounds=8):
    """The pinned data with training values set exactly to the thresholds of
    the tree grown on it, with its design and that tree.

    Tying values moves the quantile edges and so the thresholds, so each
    round ties the regrown tree's untied thresholds until every continuous
    split cuts at a value that some rows hold.
    """
    ds = _data()[0]
    rng = np.random.default_rng(5)
    for _ in range(rounds):
        spec = build_spec(ds, num_knots=3)
        root = grow(ds, spec, config)
        untied = [node.split for node in root.nodes()
                  if node.split is not None and node.split.threshold is not None
                  and not (ds.columns[node.split.feature] == node.split.threshold).any()]
        if not untied:
            return ds, spec, root
        columns = dict(ds.columns)
        for split in untied:
            column = columns[split.feature] = columns[split.feature].copy()
            column[rng.choice(column.size, 30, replace=False)] = split.threshold
        ds = SurrogateDataset(features=ds.features, columns=columns, response=ds.response)
    raise AssertionError(f"thresholds still untied after {rounds} rounds")


@pytest.mark.parametrize("setting", list(SETTINGS))
def test_grown_rows_follow_the_routing_rule(setting):
    # grow splits each node's rows by the winning feature's root bins; the
    # routing rule must send the same rows, those equal to a threshold and
    # those of every level of a categorical split included
    config = GrowConfig(max_depth=3, num_bins=8, min_samples_leaf=40, **SETTINGS[setting])
    ds, spec, root = _tied_to_thresholds(config)
    splits = [node.split for node in root.nodes() if node.split is not None]
    assert any(split.categories is not None for split in splits)
    assert any(split.threshold is not None for split in splits)
    members = route(root, spec, ds)
    for node in root.nodes():
        assert members[node.id].size == node.count
        if node.split is not None:
            both = np.concatenate([members[node.left.id], members[node.right.id]])
            assert np.array_equal(np.sort(both), members[node.id])
