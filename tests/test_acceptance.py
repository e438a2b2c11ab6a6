"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines as
they complete.  The two simulation cases fit at the benchmark scales from
the module docstrings (30k and 50k rows), so the whole module takes a few
minutes.
"""

import sys
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

import splinetree as st
from splinetree import tree as tree_mod
from splinetree.gram import _sse, bin_sum, fit_node, gram_accumulate

from conftest import implementation_best_split, make_dataset, naive_best_split, stack_grams

SEED = 20240811


def _report(criterion, detail=""):
    # bypass capture so the line shows in plain pytest runs too
    print(f"\n[acceptance] {criterion}: PASS {detail}".rstrip(), file=sys.__stdout__)


# ---------------------------------------------------------------------------
# Shared fitted models (module scope: grown once, checked by several criteria)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def case1():
    t0 = time.monotonic()
    sim = st.simulate("f1", 30_000, 0.5, seed=SEED)
    train = st.to_dataset(sim, rows=sim.train_idx)
    test = st.to_dataset(sim, rows=sim.test_idx)
    spec = st.build_spec(train, num_knots=15)
    root = st.grow(train, spec, st.GrowConfig(max_depth=2, num_bins=50))
    pruned = st.prune(root, 0.99, 0.02)
    return {
        "train": train, "test": test, "spec": spec,
        "root": root, "pruned": pruned, "elapsed": time.monotonic() - t0,
    }


@pytest.fixture(scope="module")
def case2():
    t0 = time.monotonic()
    sim = st.simulate("f2", 50_000, 0.5, seed=SEED)
    train = st.to_dataset(sim, rows=sim.train_idx)
    test = st.to_dataset(sim, rows=sim.test_idx)
    spec = st.build_spec(train, num_knots=15)
    root = st.grow(train, spec, st.GrowConfig(max_depth=5, num_bins=50))
    return {
        "train": train, "test": test, "spec": spec,
        "root": root, "elapsed": time.monotonic() - t0,
    }


# ---------------------------------------------------------------------------
# Criterion 1: gram-based split search equals the naive subset-refit oracle
# ---------------------------------------------------------------------------


def test_c1_oracle_equivalence():
    t0 = time.monotonic()
    checked = 0
    for case in range(50):
        rng = np.random.default_rng(5000 + case)
        n = int(rng.integers(100, 501))
        n_cont = int(rng.integers(1, 4))
        n_cat = int(rng.integers(0, 2))
        ds = make_dataset(rng, n, continuous=n_cont, categorical=n_cat, levels=3)
        spec = st.build_spec(ds, num_knots=int(rng.integers(2, 4)))
        assert spec.total_columns <= 12
        config = st.GrowConfig(
            num_bins=int(rng.integers(3, 11)),
            lam=float(rng.choice([0.0, 0.05, 0.5])),
            loss=str(rng.choice(["sse", "gcv"])),
            max_depth=1,
        )
        min_leaf = max(spec.total_columns + 2, 12)
        naive = naive_best_split(ds, spec, config, min_leaf)
        found, _ = implementation_best_split(ds, spec, config, min_leaf)
        if naive is None:
            assert found is None
            continue
        assert found is not None
        (feat_index, key), gain, left_beta, right_beta = naive
        assert ds.features[feat_index].name == found.candidate.feature
        if isinstance(key, float):
            assert found.candidate.threshold == key
        else:
            levels = spec.levels[found.candidate.feature]
            assert found.candidate.categories == tuple(levels[k] for k in key)
        tol = 1e-8 * max(1.0, abs(gain))
        assert abs(found.gain - gain) <= tol
        assert_allclose(found.left_model.coefficients, left_beta, rtol=1e-8, atol=1e-8)
        assert_allclose(found.right_model.coefficients, right_beta, rtol=1e-8, atol=1e-8)
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report("C1 oracle-equivalence",
            f"({checked}/50 instances with a split, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Criterion 2: one gram pass per (node, feature); split search scales sub-
# linearly in the bin count
# ---------------------------------------------------------------------------


def test_c2_complexity_witness():
    sim = st.simulate("f2", 50_000, 0.5, seed=SEED)
    ds = st.to_dataset(sim)
    linear = tuple(f"x{k}" for k in range(1, 11))
    spec = st.build_spec(ds, num_knots=3, linear=linear)
    X = st.design_matrix(ds, spec)
    y = ds.response
    node_gram = gram_accumulate(X, y)
    node_model = fit_node(node_gram, 1e-3)
    rows = np.arange(ds.n)
    min_leaf = max(2 * spec.total_columns, 30)

    # (a) exactly one full-data pass per (node, feature), for both bin counts
    for bins in (10, 50):
        inst = st.SplitInstrumentation()
        root = st.grow(ds, spec, st.GrowConfig(max_depth=2, num_bins=bins),
                       instrumentation=inst)
        counts = {n.id: n.count for n in root.nodes()}
        seen = set()
        for ev in inst.events:
            assert ev.rows_accumulated == counts[ev.node_id]
            assert (ev.node_id, ev.feature) not in seen
            seen.add((ev.node_id, ev.feature))

    # (b) wall time of one split-search pass grows < 2x as K goes 10 -> 50
    def search(num_bins):
        config = st.GrowConfig(num_bins=num_bins, lam=1e-3, max_depth=1)
        features = tree_mod._prepare_binning(ds, spec, config)
        ws = tree_mod._Workspace()
        t0 = time.perf_counter()
        source = tree_mod._NodeRows(features, X[rows], y[rows], rows, 0, None, ws)
        bins = [source.bin(i, ws) for i in range(len(features))]
        tree_mod.best_split(node_gram, node_model, bins, config, min_leaf)
        return time.perf_counter() - t0

    search(10)  # warm up caches and BLAS
    t10 = min(search(10) for _ in range(3))
    t50 = min(search(50) for _ in range(3))
    ratio = t50 / t10
    assert ratio < 2.0, f"split search scaled by {ratio:.2f} from K=10 to K=50"
    _report("C2 complexity-witness",
            f"(one pass per node-feature; K=10 {t10*1e3:.0f}ms, "
            f"K=50 {t50*1e3:.0f}ms, ratio {ratio:.2f})")


# ---------------------------------------------------------------------------
# Criteria 3 and 4: additive benchmark at desk scale
# ---------------------------------------------------------------------------


def test_c3_case1_additive(case1):
    assert case1["elapsed"] < 120.0
    assert case1["pruned"].is_leaf, "pruning should collapse to the root"
    pred = st.predict(case1["pruned"], case1["spec"], case1["test"])
    fid = st.fidelity(pred, case1["test"].response)
    assert fid.r2 >= 0.995
    acc = st.accuracy(pred, case1["test"].original)
    assert 0.24 <= acc["mse"] <= 0.27
    _report("C3 case1-additive",
            f"(root-only, fidelity R2 {fid.r2:.4f}, accuracy MSE {acc['mse']:.4f}, "
            f"{case1['elapsed']:.0f}s)")


def test_c4_case1_importance(case1):
    table = st.leaf_importance(case1["pruned"], case1["spec"], case1["train"])
    values = {f: table.values[(0, f)] for f in (b.feature for b in case1["spec"].blocks)}
    top = max(values.values())
    assert values["x9"] < 0.01 * top
    assert values["x10"] < 0.01 * top
    _report("C4 case1-importance",
            f"(noise-feature share {max(values['x9'], values['x10']) / top:.2e})")


# ---------------------------------------------------------------------------
# Criteria 5 and 6: interaction benchmark at desk scale
# ---------------------------------------------------------------------------


def test_c5_case2_interactions(case2):
    assert case2["elapsed"] < 600.0
    root = case2["root"]
    assert root.split is not None
    assert root.split.feature == "x1"
    assert abs(root.split.threshold) <= 0.1

    contributions = st.split_contribution(root, 0, case2["spec"], case2["train"])
    p = contributions.p
    assert p["x4"] >= 0.60
    assert p["x3"] >= 0.10
    others = {k: v for k, v in p.items() if k not in ("x3", "x4")}
    assert all(v <= 0.05 for v in others.values())

    pred = st.predict(root, case2["spec"], case2["test"])
    fid = st.fidelity(pred, case2["test"].response)
    assert fid.r2 >= 0.98

    pruned = st.prune(root, 0.99, 0.02)
    n_full = sum(1 for _ in root.nodes())
    n_pruned = sum(1 for _ in pruned.nodes())
    assert n_pruned < n_full
    _report("C5 case2-interactions",
            f"(split x1@{root.split.threshold:+.3f}, p4 {p['x4']:.2f}, p3 {p['x3']:.2f}, "
            f"fidelity R2 {fid.r2:.4f}, nodes {n_full}->{n_pruned}, "
            f"{case2['elapsed']:.0f}s)")


def test_c6_case2_structure(case2):
    root = case2["root"]
    n1 = root.left  # the x1 <= threshold side
    assert n1 is not None and not n1.is_leaf
    contributions = st.split_contribution(root, n1.id, case2["spec"], case2["train"])
    top_feature, top_p = max(contributions.p.items(), key=lambda t: t[1])
    assert top_p >= 0.5
    if n1.split.feature == "x8":
        assert top_feature == "x7"
        _report("C6 case2-structure", f"(N1 split x8, driver x7 p {top_p:.3f})")
    else:
        # the |x7 + x8| interaction is symmetric; record the mirror outcome
        _report("C6 case2-structure",
                f"(N1 split {n1.split.feature} rather than x8; "
                f"driver {top_feature} p {top_p:.3f})")


# ---------------------------------------------------------------------------
# Criterion 7: property suites
# ---------------------------------------------------------------------------


def test_c7_property_suites(case2, tmp_path):
    rng = np.random.default_rng(SEED)

    # gram merge/subtract algebra at 1e-9
    parts = [
        (rng.standard_normal((int(rng.integers(2, 20)), 5)),) for _ in range(6)
    ]
    grams = []
    for (X,) in parts:
        grams.append(gram_accumulate(X, rng.standard_normal(X.shape[0])))
    stacked = stack_grams(grams)
    total = bin_sum(stacked, range(6))
    reverse = bin_sum(stacked, range(5, -1, -1))
    assert_allclose(total.xtx, reverse.xtx, rtol=1e-9)
    back = total
    for g in grams[1:]:
        back = st.gram_subtract(back, g)
    assert_allclose(back.xtx, grams[0].xtx, rtol=1e-9, atol=1e-9)

    # partition of unity at 1e-12
    kv = st.quantile_knots(rng.uniform(-3, 3, 400), 10)
    probes = rng.uniform(kv.knots[0], kv.knots[-1], 200)
    sums = st.basis.spline_rows(probes, kv).sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-12

    # ridge path vs direct penalized solve at 1e-8
    Xr = np.column_stack([np.ones(60), rng.standard_normal((60, 4))])
    yr = Xr @ rng.standard_normal(5) + 0.2 * rng.standard_normal(60)
    lam = 0.7
    model = fit_node(gram_accumulate(Xr, yr), lam)
    S = np.zeros((5, 5))
    S[1:, 1:] = np.diag(np.var(Xr[:, 1:], axis=0))
    direct = np.linalg.solve(Xr.T @ Xr + lam * S, Xr.T @ yr)
    assert_allclose(model.coefficients, direct, rtol=1e-8, atol=1e-10)

    # SSE from statistics vs residual oracle at 1e-9
    beta = rng.standard_normal(5)
    g = gram_accumulate(Xr, yr)
    sse = float(_sse(stack_grams([g]), beta[None])[0])
    assert sse == pytest.approx(float(np.sum((yr - Xr @ beta) ** 2)), rel=1e-9)

    # effect reassembly: intercept + sum of effects = predict, 1e-10
    spec, root, train = case2["spec"], case2["root"], case2["train"]
    sample = train.subset(np.arange(0, train.n, 997))
    pred = st.predict(root, spec, sample)
    members = tree_mod.route(root, spec, sample)
    for leaf in root.leaves():
        idx = members[leaf.id]
        if idx.size == 0:
            continue
        total = np.full(idx.size, leaf.model.coefficients[0])
        for block in spec.blocks:
            total += st.effect_eval(
                leaf, spec, block.feature,
                sample.columns[block.feature][idx], center=False,
            )
        assert_allclose(total, pred[idx], atol=1e-10)

    # split-contribution simplex property
    contributions = st.split_contribution(root, 0, spec, sample)
    assert all(v >= 0.0 for v in contributions.p.values())
    assert sum(contributions.p.values()) == pytest.approx(1.0, abs=1e-9)

    # AUC vs the O(n^2) pairwise oracle at 1e-12
    scores = rng.standard_normal(200)
    labels = rng.integers(0, 2, 200)
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = sum((a > b) + 0.5 * (a == b) for a in pos for b in neg)
    assert st.auc_score(scores, labels) == pytest.approx(
        wins / (len(pos) * len(neg)), abs=1e-12
    )

    # save/load prediction equality, exact
    path = tmp_path / "model.json"
    st.save_tree(path, root, spec, train.features, {"seed": SEED})
    art = st.load_tree(path)
    probe = case2["test"].subset(np.arange(0, case2["test"].n, 17))
    assert (st.predict(art.root, art.spec, probe) == st.predict(root, spec, probe)).all()

    # determinism across thread counts, exact
    small = make_dataset(np.random.default_rng(3), 1000, continuous=3, categorical=1)
    small_spec = st.build_spec(small, num_knots=3)
    trees = [
        st.grow(small, small_spec,
                st.GrowConfig(max_depth=3, num_bins=8, min_samples_leaf=60, threads=t))
        for t in (1, 3)
    ]
    for a, b in zip(trees[0].nodes(), trees[1].nodes()):
        assert a.id == b.id and a.split == b.split
        assert (a.model.coefficients == b.model.coefficients).all()

    _report("C7 property-suites", "(9 suites)")


# ---------------------------------------------------------------------------
# Criterion 8: pruning sanity
# ---------------------------------------------------------------------------


def test_c8_pruning_sanity(case2):
    root = case2["root"]
    unchanged = st.prune(root, 1.0, 0.0)
    assert sum(1 for _ in unchanged.nodes()) == sum(1 for _ in root.nodes())
    for a, b in zip(root.nodes(), unchanged.nodes()):
        assert a.id == b.id and a.split == b.split
    collapsed = st.prune(root, 0.0, 0.0)
    assert collapsed.is_leaf and collapsed.id == 0
    _report("C8 pruning-sanity")
