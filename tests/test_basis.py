"""Design construction: knots, hat functions, one-hot, the design matrix."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from splinetree import (
    ConstantFeatureError,
    Feature,
    KnotVector,
    SurrogateDataset,
    build_spec,
    design_matrix,
    gram_accumulate,
    quantile_knots,
)
from splinetree.basis import (
    BasisBlock,
    DesignSpec,
    UnseenCategoryWarning,
    block_effect,
    block_rows,
    hat_interval,
    level_codes,
    onehot_rows,
    spline_rows,
)


class TestQuantileKnots:
    def test_two_knots_are_min_max(self):
        kv = quantile_knots(np.arange(1.0, 101.0), 2)
        assert_allclose(kv.knots, [1.0, 100.0])

    def test_constant_feature_rejected(self):
        with pytest.raises(ConstantFeatureError):
            quantile_knots(np.full(50, 3.25), 5, feature="flat")

    def test_matches_reference_quantiles(self):
        values = np.arange(1.0, 101.0)
        kv = quantile_knots(values, 5)
        expected = np.quantile(values, [0, 0.25, 0.5, 0.75, 1.0], method="midpoint")
        assert_allclose(kv.knots, expected, rtol=1e-12)

    def test_duplicates_collapse(self):
        values = np.array([0.0] * 90 + [1.0] * 10)
        kv = quantile_knots(values, 10)
        assert kv.knots.size < 10
        assert kv.knots[0] == 0.0 and kv.knots[-1] == 1.0

    def test_endpoints_are_observed_extremes(self, rng):
        values = rng.normal(size=500)
        kv = quantile_knots(values, 15)
        assert kv.knots[0] == values.min() and kv.knots[-1] == values.max()


@pytest.mark.parametrize(
    "knots",
    [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0], [0.0, 0.0, 1.0],
     [1.0, 0.0]],
)
def test_knot_vector_rejects_non_finite_or_unordered_knots(knots):
    with pytest.raises(ValueError, match="knots of 'x' must be finite and strictly increasing"):
        KnotVector("x", knots)


class TestSplineRow:
    """Hat-function rows from ``spline_rows``, one probe point per row."""

    def setup_method(self):
        self.kv = KnotVector("x", np.array([-1.0, -0.25, 0.5, 2.0]))

    def test_unit_vector_at_knots(self):
        rows = spline_rows(self.kv.knots, self.kv)
        assert_allclose(rows, np.eye(4), atol=1e-15)

    def test_midpoint_splits_evenly(self):
        mid = 0.5 * (self.kv.knots[1] + self.kv.knots[2])
        rows = spline_rows([mid], self.kv)
        assert_allclose(rows, [[0.0, 0.5, 0.5, 0.0]])

    def test_clamped_extrapolation(self):
        rows = spline_rows([-7.0, -1.0, 9.0, 2.0], self.kv)
        assert_allclose(rows[0], rows[1])
        assert_allclose(rows[2], rows[3])

    def test_piecewise_linear_slope(self):
        # finite differences between knot midpoints recover the hat slope
        t = self.kv.knots
        for k in range(len(t) - 1):
            a, b = t[k], t[k + 1]
            x1, x2 = a + 0.25 * (b - a), a + 0.75 * (b - a)
            r1, r2 = spline_rows([x1, x2], self.kv)
            fd = (r2 - r1) / (x2 - x1)
            assert fd[k + 1] == pytest.approx(1.0 / (b - a), rel=1e-6)
            assert fd[k] == pytest.approx(-1.0 / (b - a), rel=1e-6)

    def test_continuity_across_knots(self):
        for t in self.kv.knots[1:-1]:
            below, above = spline_rows([t - 1e-9, t + 1e-9], self.kv)
            assert np.max(np.abs(below - above)) < 1e-7


@pytest.mark.parametrize("inner", [0, 1, 13, 150])
def test_hat_interval_matches_binary_search(rng, inner):
    # counting the knots at or below a point gives the clamped binary
    # search's interval, and the same weight
    t = np.sort(rng.uniform(-1.0, 1.0, inner + 2))
    kv = KnotVector("x", t)
    x = np.concatenate([rng.uniform(-1.5, 1.5, 500), t, [-np.inf, np.inf]])
    xc = np.clip(x, t[0], t[-1])
    j = np.clip(np.searchsorted(t, xc, side="right") - 1, 0, t.size - 2)
    got_j, got_w = hat_interval(x, kv)
    assert np.array_equal(got_j, j)
    assert np.array_equal(got_w, (xc - t[j]) / (t[j + 1] - t[j]))


@settings(max_examples=80, deadline=None)
@given(
    hst.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    hst.integers(min_value=0, max_value=2**32 - 1),
)
def test_partition_of_unity(x, seed):
    rng = np.random.default_rng(seed)
    knots = np.unique(rng.uniform(-2, 2, size=rng.integers(2, 12)))
    if knots.size < 2:
        knots = np.array([-2.0, 2.0])
    kv = KnotVector("x", knots)
    assert spline_rows([x], kv).sum() == pytest.approx(1.0, abs=1e-12)


class TestOnehot:
    LEVELS = ("a", "b", "c", "d")

    def test_reference_level_all_zero(self):
        assert_allclose(onehot_rows(np.array(["a"]), self.LEVELS), np.zeros((1, 3)))

    def test_second_level_indicator(self):
        assert_allclose(onehot_rows(np.array(["b"]), self.LEVELS), [[1, 0, 0]])

    def test_unseen_warning_names_plain_values(self):
        with pytest.warns(UnseenCategoryWarning) as caught:
            onehot_rows(np.array(["b", "zz", "aa", "zz"]), self.LEVELS)
        assert str(caught[0].message) == (
            "categories ['aa', 'zz'] were not seen in training; encoded as reference"
        )

    def test_unseen_level_warns_and_zeroes(self):
        with pytest.warns(UnseenCategoryWarning) as caught:
            rows = onehot_rows(np.array(["b", "zzz"]), self.LEVELS)
        assert str(caught[0].message) == (
            "categories ['zzz'] were not seen in training; encoded as reference"
        )
        assert_allclose(rows, [[1, 0, 0], [0, 0, 0]])

    def test_vectorized_matches_scalar(self):
        # each row is the encoding of its value alone
        values = np.array(["c", "a", "d", "b"])
        rows = onehot_rows(values, self.LEVELS)
        for i, v in enumerate(values):
            assert_allclose(rows[i], onehot_rows(np.array([v]), self.LEVELS)[0])


class TestBlockEffect:
    """``block_effect`` against its oracle, the basis rows times the coefficients.

    Linear and one-hot effects equal the product exactly; a spline effect
    adds the same two terms as the product, perhaps in another order, so it
    agrees to ``1e-12 * max|c|``.
    """

    KNOTS = np.array([-1.0, -0.25, 0.5, 2.0, 3.5])
    # levels in the order a tree document may hold them, not sorted
    LEVELS = ("d", "a", "c", "b", "e")

    def spec(self):
        blocks = (
            BasisBlock("x", "spline", 1, 6),
            BasisBlock("z", "linear", 6, 7),
            BasisBlock("c", "onehot", 7, 11),
        )
        return DesignSpec(blocks=blocks, knots={"x": KnotVector("x", self.KNOTS)},
                          levels={"c": self.LEVELS}, total_columns=11)

    def values(self, rng, feature, n=400):
        if feature == "x":  # below, inside and above the knot span, and on every knot
            return np.concatenate([rng.uniform(-4.0, 6.0, n), self.KNOTS, [-1e9, 1e9]])
        if feature == "z":
            return np.concatenate([rng.normal(scale=1e3, size=n), [0.0, -0.0, 1e300]])
        return rng.choice(np.array(self.LEVELS), size=n)

    @staticmethod
    def oracle(values, spec, block, table, which):
        rows = block_rows(values, spec, block)
        return np.array([rows[i] @ table[k] for i, k in enumerate(which)])

    @pytest.mark.parametrize("feature", ["z", "c"])
    def test_linear_and_onehot_equal_the_product(self, rng, feature):
        spec = self.spec()
        block = spec.block_for(feature)
        values = self.values(rng, feature)
        c = rng.normal(size=block.width)
        assert np.array_equal(block_effect(values, spec, block, c),
                              block_rows(values, spec, block) @ c)
        table = rng.normal(size=(3, block.width))
        which = rng.integers(0, 3, values.size)
        assert np.array_equal(block_effect(values, spec, block, table, which),
                              self.oracle(values, spec, block, table, which))

    def test_onehot_reference_and_unseen_values_are_zero(self, rng):
        spec = self.spec()
        block = spec.block_for("c")
        values = np.array(["d", "zz", "b", "", "zz", "a", "d"])
        c = rng.normal(size=block.width) + 5.0  # no coefficient is 0
        got, got_warnings = _with_warnings(block_effect, values, spec, block, c)
        rows, want_warnings = _with_warnings(block_rows, values, spec, block)
        assert np.array_equal(got, rows @ c)
        assert np.array_equal(got == 0.0, [True, True, False, True, True, False, True])
        assert got_warnings == want_warnings == [(
            UnseenCategoryWarning,
            "categories ['', 'zz'] were not seen in training; encoded as reference",
        )]

    def test_spline_agrees_with_the_product(self, rng):
        spec = self.spec()
        block = spec.block_for("x")
        values = self.values(rng, "x")
        c = rng.normal(scale=50.0, size=block.width)
        atol = 1e-12 * np.max(np.abs(c))
        assert_allclose(block_effect(values, spec, block, c),
                        block_rows(values, spec, block) @ c, rtol=0, atol=atol)
        table = rng.normal(scale=50.0, size=(4, block.width))
        which = rng.integers(0, 4, values.size)
        assert_allclose(block_effect(values, spec, block, table, which),
                        self.oracle(values, spec, block, table, which),
                        rtol=0, atol=1e-12 * np.max(np.abs(table)))

    def test_spline_at_knots_is_the_knot_coefficient(self, rng):
        spec = self.spec()
        block = spec.block_for("x")
        c = rng.normal(size=block.width)
        assert np.array_equal(block_effect(self.KNOTS, spec, block, c), c)
        j, w = hat_interval(self.KNOTS, spec.knots["x"])
        assert np.array_equal(j, [0, 1, 2, 3, 3]) and np.array_equal(w, [0, 0, 0, 0, 1])

    @pytest.mark.parametrize("feature", ["x", "z", "c"])
    def test_each_value_alike_under_any_table_shape(self, rng, feature):
        # a value's effect does not depend on the other values or table rows
        spec = self.spec()
        block = spec.block_for(feature)
        values = self.values(rng, feature)
        table = rng.normal(size=(3, block.width))
        which = rng.integers(0, 3, values.size)
        every = block_effect(values, spec, block, table)
        assert every.shape == (3, values.size)
        for k in range(3):
            assert np.array_equal(every[k], block_effect(values, spec, block, table[k]))
        assert np.array_equal(block_effect(values, spec, block, table, which),
                              every[which, np.arange(values.size)])


def _reference_codes(values, levels):
    """Index of the level each value equals by ``==``, -1 for none."""
    values = np.asarray(values)
    codes = np.full(values.shape, -1)
    for k in reversed(range(len(levels))):
        codes[values == levels[k]] = k
    return codes


def _reference_onehot(values, levels):
    """One ``==`` pass per level: the encoding the binary search must reproduce."""
    values = np.asarray(values)
    out = np.zeros((values.size, len(levels) - 1))
    seen = np.zeros(values.size, dtype=bool)
    for j, level in enumerate(levels):
        match = values == level
        seen |= match
        if j > 0:
            out[match, j - 1] = 1.0
    if not np.all(seen):
        bad = np.unique(values[~seen])
        warnings.warn(
            f"categories {bad.tolist()!r} were not seen in training; encoded as reference",
            UnseenCategoryWarning,
            stacklevel=2,
        )
    return out


def _with_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [(w.category, str(w.message)) for w in caught]


class TestLevelLookup:
    """Binary-search level codes and one-hot rows against per-level ``==``."""

    CASES = {
        "str": (np.array(["c", "a", "d", "b", "a"]), ("a", "b", "c", "d")),
        "unseen": (np.array(["b", "zz", "a", "", "aa", "zz"]), ("a", "b", "c")),
        "int levels": (np.array([9, 1, 5, 3, 9, -2]), (1, 5, 9)),
        "float values, int levels": (np.array([1.0, 5.0, 5.5, np.nan]), (1, 5, 9)),
        "unsorted levels": (np.array(["a", "d", "c", "b", "e"]), ("d", "a", "c", "b")),
        "str values, int levels": (np.array(["1", "5", "a"]), (1, 5, 9)),
        "int values, str levels": (np.array([1, 5]), ("1", "5")),
        "object column": (np.array(["b", "q", "a", "c"], dtype=object), ("a", "b", "c")),
        # a missing value among strings, as a data frame's object column holds it
        "object column with nan": (np.array(["b", np.nan, "a"], dtype=object), ("a", "b")),
        "mixed object column": (np.array(["b", 2, 3.5, "a"], dtype=object), ("a", "b")),
        "mixed levels": (np.array(["1", "a", "b"]), ("a", 1, "b")),
        "empty": (np.array([], dtype=str), ("a", "b")),
    }

    @staticmethod
    def _assert_matches(values, levels):
        assert np.array_equal(level_codes(values, levels), _reference_codes(values, levels))
        got, got_warnings = _with_warnings(onehot_rows, values, levels)
        want, want_warnings = _with_warnings(_reference_onehot, values, levels)
        assert np.array_equal(got, want)
        assert got_warnings == want_warnings

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_per_level_equality(self, case):
        self._assert_matches(*self.CASES[case])

    @settings(max_examples=60, deadline=None)
    @given(hst.integers(min_value=0, max_value=2**32 - 1))
    def test_random_data(self, seed):
        rng = np.random.default_rng(seed)
        pool = np.array([f"lv{k}" for k in range(12)])
        levels = tuple(rng.permutation(pool)[: rng.integers(2, 10)].tolist())
        values = rng.choice(pool, size=int(rng.integers(0, 300)))
        self._assert_matches(values, levels)

    def test_duplicate_levels_rejected(self):
        with pytest.raises(ValueError, match="not distinct"):
            DesignSpec(
                blocks=(BasisBlock("c", "onehot", 1, 3),),
                knots={},
                levels={"c": ("a", "b", "a")},
                total_columns=3,
            )


class TestBuildDesign:
    def make(self, rng, n=50):
        ds = SurrogateDataset(
            features=(Feature("x1", "continuous"), Feature("c1", "categorical")),
            columns={
                "x1": rng.uniform(0, 1, n),
                "c1": rng.choice(["u", "v", "w"], size=n),
            },
            response=rng.standard_normal(n),
        )
        return ds

    def test_width_arithmetic(self, rng):
        ds = self.make(rng)
        spec = build_spec(ds, num_knots=3)
        # intercept + 3 spline columns + 2 one-hot columns
        assert spec.total_columns == 6
        X = design_matrix(ds, spec)
        assert X.shape == (50, 6)
        assert_allclose(X[:, 0], 1.0)

    def test_rows_at_knot_points_are_unit(self, rng):
        ds = self.make(rng)
        spec = build_spec(ds, num_knots=3)
        kv = spec.knots["x1"]
        block = spec.block_for("x1")
        probe = SurrogateDataset(
            features=ds.features,
            columns={"x1": kv.knots.copy(), "c1": np.array(["u"] * len(kv))},
            response=np.zeros(len(kv)),
        )
        X = design_matrix(probe, spec)
        assert_allclose(X[:, block.columns], np.eye(len(kv)), atol=1e-15)

    def test_deterministic_bit_identical(self, rng):
        ds = self.make(rng)
        spec = build_spec(ds, num_knots=4)
        a = design_matrix(ds, spec)
        b = design_matrix(ds, spec)
        assert (a == b).all()

    def test_constant_feature_excluded(self, rng):
        ds = SurrogateDataset(
            features=(Feature("x1", "continuous"), Feature("flat", "continuous")),
            columns={"x1": rng.uniform(0, 1, 30), "flat": np.full(30, 7.0)},
            response=rng.standard_normal(30),
        )
        spec = build_spec(ds, num_knots=3)
        assert spec.excluded == ("flat",)
        assert all(b.feature != "flat" for b in spec.blocks)

    def test_spline_block_collinearity_is_handled(self, rng):
        # partition of unity makes the block collinear with the intercept;
        # the lambda = 0 fit must still be defined
        from splinetree import fit_node

        ds = self.make(rng, n=100)
        spec = build_spec(ds, num_knots=5)
        X = design_matrix(ds, spec)
        model = fit_node(gram_accumulate(X, ds.response), 0.0)
        assert np.all(np.isfinite(model.coefficients))

    def test_linear_block(self, rng):
        ds = self.make(rng)
        spec = build_spec(ds, num_knots=3, linear=("x1",))
        block = spec.block_for("x1")
        assert block.kind == "linear" and block.width == 1
        X = design_matrix(ds, spec)
        assert_allclose(X[:, block.start], ds.columns["x1"])
