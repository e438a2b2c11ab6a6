"""Gram statistics and the penalized solver against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose
from scipy.linalg import lapack

from splinetree import (
    GramStats,
    NumericalError,
    fit_node,
    gcv_loss,
    gram_accumulate,
    gram_subtract,
)
from splinetree import basis
from splinetree import gram as gram_mod
from splinetree.gram import (
    _eigh_solves, _sse, bin_sum, complement, ridge_batch, zero_gram,
)

from conftest import stack_grams


def random_problem(rng, n, m):
    X = np.column_stack([np.ones(n), rng.standard_normal((n, m - 1))])
    beta = rng.standard_normal(m)
    y = X @ beta + 0.3 * rng.standard_normal(n)
    return X, y


class TestAccumulate:
    def test_single_row_outer_product(self):
        g = gram_accumulate([[1.0, 2.0]], [3.0])
        assert_allclose(g.xtx, [[1, 2], [2, 4]])
        assert_allclose(g.xty, [3, 6])
        assert g.yty == 9.0
        assert g.count == 1

    def test_empty_input_is_zero(self):
        g = gram_accumulate(np.empty((0, 3)), np.empty(0))
        assert g.count == 0
        assert not g.xtx.any() and not g.xty.any() and g.yty == 0.0

    def test_matches_dense_products(self, rng):
        X = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        g = gram_accumulate(X, y)
        assert_allclose(g.xtx, X.T @ X, rtol=1e-12, atol=1e-12)
        assert_allclose(g.xty, X.T @ y, rtol=1e-12, atol=1e-12)
        assert_allclose(g.yty, y @ y, rtol=1e-12)
        assert g.count == 10

    def test_row_response_mismatch(self):
        with pytest.raises(ValueError, match="responses"):
            gram_accumulate(np.ones((3, 2)), np.ones(2))


def merged(grams, order=None):
    """The bin sum of the stacked grams, in ``order`` (default: as given)."""
    return bin_sum(stack_grams(grams), range(len(grams)) if order is None else order)


class TestMergeSubtract:
    def test_merge_zero_identity(self, rng):
        g = gram_accumulate(rng.standard_normal((5, 3)), rng.standard_normal(5))
        total = merged([g, zero_gram(3)])
        assert_allclose(total.xtx, g.xtx)
        assert_allclose(total.xty, g.xty)
        assert total.yty == g.yty and total.count == g.count

    def test_merge_two_single_rows(self, rng):
        X = rng.standard_normal((2, 4))
        y = rng.standard_normal(2)
        a = gram_accumulate(X[:1], y[:1])
        b = gram_accumulate(X[1:], y[1:])
        both = merged([a, b])
        direct = gram_accumulate(X, y)
        assert_allclose(both.xtx, direct.xtx, rtol=1e-12, atol=1e-12)
        assert both.count == 2

    def test_merge_bins_equals_concatenation(self, rng):
        sizes = rng.integers(1, 9, size=7)
        parts = [
            (rng.standard_normal((k, 3)), rng.standard_normal(k)) for k in sizes
        ]
        total = merged([gram_accumulate(X, y) for X, y in parts])
        direct = gram_accumulate(
            np.vstack([X for X, _ in parts]), np.concatenate([y for _, y in parts])
        )
        assert_allclose(total.xtx, direct.xtx, rtol=1e-12, atol=1e-12)
        assert_allclose(total.xty, direct.xty, rtol=1e-12, atol=1e-12)
        assert_allclose(total.yty, direct.yty, rtol=1e-12)
        assert total.count == direct.count

    def test_merge_order_independent(self, rng):
        grams = [
            gram_accumulate(rng.standard_normal((4, 3)), rng.standard_normal(4))
            for _ in range(6)
        ]
        forward = merged(grams)
        backward = merged(grams, order=range(5, -1, -1))
        assert_allclose(forward.xtx, backward.xtx, rtol=1e-9)
        assert_allclose(forward.xty, backward.xty, rtol=1e-9)

    def test_merge_picks_named_bins(self, rng):
        grams = [
            gram_accumulate(rng.standard_normal((4, 3)), rng.standard_normal(4))
            for _ in range(5)
        ]
        # a run (summed as a view), gathers, and bins out of order
        for order in ([1, 2, 3], [0, 2, 4], [0, 3, 2], [3, 1]):
            got, want = merged(grams, order), merged([grams[k] for k in order])
            assert np.array_equal(got.xtx, want.xtx)
            assert np.array_equal(got.xty, want.xty)
            assert got.yty == want.yty and got.count == want.count

    def test_subtract_self_is_zero(self, rng):
        g = gram_accumulate(rng.standard_normal((6, 3)), rng.standard_normal(6))
        diff = gram_subtract(g, g)
        assert diff.count == 0
        assert_allclose(diff.xtx, 0, atol=1e-12)

    def test_subtract_recovers_complement(self, rng):
        X = rng.standard_normal((40, 4))
        y = rng.standard_normal(40)
        parent = gram_accumulate(X, y)
        left = gram_accumulate(X[:15], y[:15])
        right = gram_subtract(parent, left)
        direct = gram_accumulate(X[15:], y[15:])
        assert_allclose(right.xtx, direct.xtx, rtol=1e-9, atol=1e-12)
        assert_allclose(right.xty, direct.xty, rtol=1e-9, atol=1e-12)
        assert right.count == 25

    def test_subtract_zero_identity(self, rng):
        g = gram_accumulate(rng.standard_normal((5, 2)), rng.standard_normal(5))
        same = gram_subtract(g, zero_gram(2))
        assert_allclose(same.xtx, g.xtx)
        assert same.count == g.count

    def test_subtract_count_underflow(self, rng):
        small = gram_accumulate(rng.standard_normal((2, 2)), rng.standard_normal(2))
        big = gram_accumulate(rng.standard_normal((5, 2)), rng.standard_normal(5))
        with pytest.raises(NumericalError, match="underflow"):
            gram_subtract(small, big)

    def test_subtract_negative_diagonal(self, rng):
        # same row count, but the part is not contained in the parent
        parent = gram_accumulate(rng.standard_normal((5, 2)), rng.standard_normal(5))
        part = gram_accumulate(10.0 * rng.standard_normal((5, 2)), rng.standard_normal(5))
        with pytest.raises(NumericalError, match="negative diagonal"):
            gram_subtract(parent, part)

    def test_subtract_whole_of_no_rows_left_is_exact_zeros(self):
        # a whole minus the merged halves of its own rows: round-off is
        # not left behind in a complement of no rows
        nonzero = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X, y = random_problem(rng, 30, 4)
            whole = gram_accumulate(X, y)
            halves = merged([gram_accumulate(X[:13], y[:13]), gram_accumulate(X[13:], y[13:])])
            raw = whole.xtx - halves.xtx
            nonzero += int(raw.any())
            diff = gram_subtract(whole, halves)
            assert diff.count == 0
            assert not diff.xtx.any() and not diff.xty.any() and diff.yty == 0.0
        assert nonzero > 0  # the raw differences do carry round-off

    def test_dimension_mismatch(self, rng):
        a = zero_gram(2)
        b = zero_gram(3)
        two, three = stack_grams([a, a]), stack_grams([b, b])
        with pytest.raises(ValueError, match="do not match"):
            GramStats(xtx=two.xtx, xty=three.xty, yty=two.yty, count=two.count)
        with pytest.raises(ValueError, match="dimension"):
            gram_subtract(b, a)

    def test_stacked_layout_checked(self, rng):
        stack = stack_grams([gram_accumulate(*random_problem(rng, 8, 3)) for _ in range(4)])
        assert stack.dim == 3
        for yty, count in ((stack.yty[:3], stack.count), (stack.yty, 7)):
            with pytest.raises(ValueError, match="do not match"):
                GramStats(xtx=stack.xtx, xty=stack.xty, yty=yty, count=count)
        with pytest.raises(ValueError, match="nonnegative"):
            GramStats(xtx=stack.xtx, xty=stack.xty, yty=stack.yty, count=np.array([1, 2, -1, 3]))


class TestComplement:
    """The one whole-minus-part against the statements it replaced."""

    @staticmethod
    def _stack(rng, c, m, empty=0):
        grams = [gram_accumulate(*random_problem(rng, int(rng.integers(m, 3 * m)), m))
                 for _ in range(c)]
        grams[:empty] = [zero_gram(m)] * empty
        return stack_grams(grams)

    @staticmethod
    def _derived_bins(whole, sub):
        """The former bin-by-bin subtraction of derived bins."""
        xtx, xty = whole.xtx - sub.xtx, whole.xty - sub.xty
        yty, counts = whole.yty - sub.yty, whole.count - sub.count
        empty = counts == 0
        xtx[empty], xty[empty], yty[empty] = 0.0, 0.0, 0.0
        diag = np.einsum("kii->ki", xtx)
        np.maximum(diag, 0.0, out=diag)
        np.maximum(yty, 0.0, out=yty)
        return xtx, xty, yty, counts

    @staticmethod
    def _right_sides(node, left):
        """The former right sides of the split sweep."""
        xtx_r = np.subtract(node.xtx[None, :, :], left.xtx)
        diag = np.einsum("cii->ci", xtx_r)
        np.maximum(diag, 0.0, out=diag)
        return (xtx_r, node.xty[None, :] - left.xty,
                np.maximum(node.yty - left.yty, 0.0), node.count - left.count)

    @staticmethod
    def _assert_equal(got, want):
        fields = (got.xtx, got.xty, got.yty, got.count)
        for g, w in zip(fields, want, strict=True):
            assert g.shape == np.shape(w) and np.array_equal(g, w)

    def test_matches_derived_bins_with_empty_bins(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 6))
            c = int(rng.integers(2, 9))
            sub = self._stack(rng, c, m, empty=int(rng.integers(0, c)))
            # the whole is the part plus another stack: some bins are the
            # part's alone, so they are left with no rows
            more = self._stack(rng, c, m, empty=int(rng.integers(1, c + 1)))
            whole = GramStats(xtx=sub.xtx + more.xtx, xty=sub.xty + more.xty,
                              yty=sub.yty + more.yty, count=sub.count + more.count)
            want = self._derived_bins(whole, sub)
            assert (want[3] == 0).any()
            self._assert_equal(complement(whole, sub), want)
            out = np.full_like(whole.xtx, np.nan)
            got = complement(whole, sub, out=out)
            assert got.xtx is out
            self._assert_equal(got, want)

    def test_matches_right_sides_of_a_node(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 6))
            X, y = random_problem(rng, 200, m)
            node = gram_accumulate(X, y)
            cuts = np.sort(rng.choice(np.arange(5, 195), size=8, replace=False))
            left = stack_grams([gram_accumulate(X[:k], y[:k]) for k in cuts])
            want = self._right_sides(node, left)
            out = np.full_like(left.xtx, np.nan)
            got = complement(node, left, out=out)
            assert got.xtx is out
            self._assert_equal(got, want)

    def test_matches_former_gram_subtract(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 6))
            X, y = random_problem(rng, 40, m)
            k = int(rng.integers(0, 40))
            parent, part = gram_accumulate(X, y), gram_accumulate(X[:k], y[:k])
            xtx = parent.xtx - part.xtx
            np.fill_diagonal(xtx, np.maximum(np.diagonal(xtx), 0.0))
            got = gram_subtract(parent, part)
            assert np.array_equal(got.xtx, xtx)
            assert np.array_equal(got.xty, parent.xty - part.xty)
            assert got.yty == max(parent.yty - part.yty, 0.0)
            assert got.count == 40 - k


class TestEighSolves:
    """The eigendecomposition route of the batched solver, one block at a time."""

    @staticmethod
    def solve(block, b, lam_values):
        gammas, edfs = _eigh_solves(
            np.asarray(block, dtype=float)[None], np.asarray(b, dtype=float)[None],
            lam_values,
        )
        return gammas[:, 0], edfs[:, 0]

    def test_identity_spectrum(self):
        b = np.array([1.0, -2.0, 3.0, 0.5])
        gammas, edfs = self.solve(np.eye(4), b, (0.0, 1.0))
        assert_allclose(gammas, [b, b / 2])
        assert_allclose(edfs, [5.0, 3.0])

    def test_diagonal_input(self):
        gammas, edfs = self.solve(np.diag([4.0, 1.0]), [2.0, 3.0], (0.0, 1.0))
        assert_allclose(gammas, [[0.5, 3.0], [0.4, 1.5]])
        # full rank: 1 + rank at lambda 0, no null direction left out
        assert_allclose(edfs, [3.0, 1.0 + 4.0 / 5.0 + 1.0 / 2.0])

    def test_random_psd_matches_direct_solve(self, rng):
        A = rng.standard_normal((6, 6))
        A = A @ A.T
        b = rng.standard_normal(6)
        gammas, edfs = self.solve(A, b, (0.0, 0.3))
        assert_allclose(gammas[0], np.linalg.solve(A, b), rtol=1e-8)
        assert_allclose(gammas[1], np.linalg.solve(A + 0.3 * np.eye(6), b), rtol=1e-8)
        w = np.linalg.eigvalsh(A)
        assert_allclose(edfs, [7.0, 1.0 + np.sum(w / (w + 0.3))], rtol=1e-10)

    def test_null_space_flagging(self):
        # rank-1 matrix: one positive eigenvalue, rest null
        v = np.array([1.0, 2.0, 3.0])
        b = np.array([1.0, 0.0, -1.0])
        gammas, edfs = self.solve(np.outer(v, v), b, (0.0, 0.5))
        assert edfs[0] == pytest.approx(2.0)  # rank 1 + intercept
        assert edfs[1] == pytest.approx(1.0 + 14.0 / 14.5)
        assert_allclose(gammas[0], np.linalg.pinv(np.outer(v, v)) @ b, atol=1e-12)

    def test_zero_block_is_all_null(self):
        gammas, edfs = self.solve(np.zeros((2, 2)), [1.0, -1.0], (0.0, 1.0))
        assert_allclose(gammas, [[0.0, 0.0], [1.0, -1.0]])
        assert_allclose(edfs, [1.0, 1.0])

    @staticmethod
    def _per_lambda(block, b, lam_values):
        """One lambda at a time from the same spectrum: the reference loop."""
        w, v = np.linalg.eigh(0.5 * (block + np.swapaxes(block, 1, 2)))
        spectrum, columns = w[:, ::-1], v[:, :, ::-1]
        top = np.max(spectrum, axis=1, initial=0.0)
        null = (spectrum < gram_mod.NULL_SPACE_RTOL * top[:, None]) | (top <= 0.0)[:, None]
        d = np.maximum(spectrum, 0.0)
        proj = np.matmul(np.swapaxes(columns, 1, 2), b[:, :, None])
        gammas, edfs = [], []
        for lam in lam_values:
            if lam == 0.0:
                recip = np.where(null, 0.0, np.divide(1.0, d, out=np.ones_like(d), where=d > 0))
            else:
                recip = 1.0 / (d + lam)
            gammas.append(np.matmul(columns, recip[:, :, None] * proj)[:, :, 0])
            shrink = np.divide(d, d + lam, out=np.zeros_like(d), where=(d + lam) > 0)
            edfs.append(1.0 + np.sum(np.where(null, 0.0, shrink), axis=1))
        return np.stack(gammas), np.stack(edfs)

    def test_grid_equals_per_lambda_loop(self, rng):
        # the whole grid in one broadcast gives the loop's bits, with null
        # directions from collinear and zero columns, and lambda = 0 in the grid
        grids = [(0.0,), (1e-3,), (0.0, 0.1, 1.0), (1e-3, 0.05, 2.0),
                 tuple(np.geomspace(1e-4, 10.0, 13))]
        for trial in range(100):
            c, p = int(rng.integers(1, 5)), int(rng.integers(1, 30))
            x = rng.standard_normal((c, 3 * p, p))
            if trial % 3 == 1 and p > 2:
                x[:, :, 1] = x[:, :, 0]
            if trial % 4 == 2:
                x[:, :, -1] = 0.0
            block = np.matmul(np.swapaxes(x, 1, 2), x) / x.shape[1]
            b = rng.standard_normal((c, p))
            grid = grids[trial % len(grids)]
            gammas, edfs = _eigh_solves(block, b, grid)
            want_gammas, want_edfs = self._per_lambda(block, b, grid)
            assert np.array_equal(gammas, want_gammas) and np.array_equal(edfs, want_edfs)


class TestRidgeSolve:
    def test_interpolating_line(self):
        x = np.arange(10.0)
        X = np.column_stack([np.ones(10), x])
        g = gram_accumulate(X, 2.0 + 3.0 * x)
        model = fit_node(g, 0.0)
        assert_allclose(model.coefficients, [2.0, 3.0], atol=1e-10)
        assert model.sse == pytest.approx(0.0, abs=1e-9)
        assert model.r2 == 1.0

    def test_infinite_shrinkage_limit(self, rng):
        X, y = random_problem(rng, 60, 4)
        g = gram_accumulate(X, y)
        model = fit_node(g, 1e12)
        assert np.max(np.abs(model.coefficients[1:])) <= 1e-6
        assert model.coefficients[0] == pytest.approx(y.mean(), abs=1e-6)

    def test_matches_direct_penalized_solve(self, rng):
        X, y = random_problem(rng, 50, 4)
        lam = 0.5
        g = gram_accumulate(X, y)
        model = fit_node(g, lam)
        # direct solve of (X'X + lam * S) beta = X'y with S carrying the
        # per-column population variances (intercept unpenalized)
        S = np.zeros((4, 4))
        S[1:, 1:] = np.diag(np.var(X[:, 1:], axis=0))
        beta = np.linalg.solve(X.T @ X + lam * S, X.T @ y)
        assert_allclose(model.coefficients, beta, rtol=1e-8, atol=1e-10)

    def test_lambda_zero_reproduces_ols(self, rng):
        X, y = random_problem(rng, 40, 5)
        model = fit_node(gram_accumulate(X, y), 0.0)
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        assert_allclose(model.coefficients, beta, rtol=1e-8, atol=1e-8)
        assert model.effective_df == pytest.approx(5.0)

    def test_collinear_design_stays_defined(self, rng):
        # two duplicated columns: lambda 0 must still produce a finite fit
        z = rng.standard_normal(30)
        X = np.column_stack([np.ones(30), z, z, rng.standard_normal(30)])
        y = 1.0 + 2.0 * z + 0.1 * rng.standard_normal(30)
        model = fit_node(gram_accumulate(X, y), 0.0)
        assert np.all(np.isfinite(model.coefficients))
        fitted_sse = float(np.sum((y - X @ model.coefficients) ** 2))
        assert model.sse == pytest.approx(fitted_sse, rel=1e-8, abs=1e-9)
        assert model.effective_df == pytest.approx(3.0)  # rank 2 block + intercept

    def test_negative_lambda_rejected(self, rng):
        X, y = random_problem(rng, 20, 3)
        g = gram_accumulate(X, y)
        for lam in (-1.0, (0.1, -1.0), np.nan, (0.1, np.nan)):
            with pytest.raises(ValueError, match="nonnegative"):
                fit_node(g, lam)
        for lam_values in ((-1.0,), (np.nan,), (0.1, np.nan)):
            with pytest.raises(ValueError, match="nonnegative"):
                ridge_batch(stack_grams([g]), lam_values, cholesky=True)

    def test_infinite_lambda_rejected(self, rng):
        # an infinite weight would fit an intercept-only model with df 1
        X, y = random_problem(rng, 50, 4)
        g = gram_accumulate(X, y)
        for lam in (np.inf, (0.1, np.inf)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                fit_node(g, lam)
        for cholesky in (False, True):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                ridge_batch(stack_grams([g]), (np.inf,), cholesky=cholesky)

    def test_effective_df_decreasing_in_lambda(self, rng):
        X, y = random_problem(rng, 50, 5)
        g = gram_accumulate(X, y)
        grid = (0.0, 0.5, 5.0, 50.0)
        dfs = [fit_node(g, lam).effective_df for lam in grid]
        assert all(a > b for a, b in zip(dfs, dfs[1:]))
        assert np.array_equal(ridge_batch(stack_grams([g]), grid)[2][:, 0], dfs)

    def test_lambda_grid_selects_by_gcv(self, rng):
        X, y = random_problem(rng, 50, 4)
        g = gram_accumulate(X, y)
        grid = (0.0, 0.3, 3.0)
        chosen = fit_node(g, grid)
        scores = []
        for lam in grid:
            m = fit_node(g, lam)
            scores.append(gcv_loss(m.sse, m.count, m.effective_df))
        assert chosen.lam == grid[int(np.argmin(scores))]

    @staticmethod
    def _four_by_four():
        rng = np.random.default_rng(0)
        X = np.column_stack([np.ones(4), rng.standard_normal((4, 3))])
        return gram_accumulate(X, rng.standard_normal(4))

    def test_grid_skips_saturated_value(self):
        # 4 rows, 4 columns: lambda = 0 interpolates (df 4), 0.1 does not
        g = self._four_by_four()
        assert fit_node(g, 0.0).effective_df == pytest.approx(4.0)
        alone = fit_node(g, 0.1)
        assert alone.effective_df == pytest.approx(3.65, abs=0.01)
        for grid in [(0.0, 0.1), (0.1, 0.0)]:
            chosen = fit_node(g, grid)
            assert chosen.lam == 0.1
            assert np.array_equal(chosen.coefficients, alone.coefficients)

    def test_grid_saturated_everywhere_rejected(self):
        with pytest.raises(ValueError, match="saturated"):
            fit_node(self._four_by_four(), (0.0, 0.0))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_node(self._four_by_four(), ())


class TestRidgeBatch:
    """The batched solver against per-candidate direct solves."""

    @staticmethod
    def _problems(rng):
        # one batch: a full-rank design, one with a column that is zero in
        # the node (a hat function outside its range) and one with a
        # column constant in the node
        n = 80
        designs = [np.column_stack([np.ones(n), rng.standard_normal((n, 4))]) for _ in range(3)]
        designs[1][:, 2] = 0.0
        designs[2][:, 3] = 2.5
        return [(X, X @ rng.standard_normal(5) + 0.3 * rng.standard_normal(n)) for X in designs]

    @staticmethod
    def _penalty(X):
        # the solver penalizes standardized coefficients: in the original
        # scale a column carries its population variance, and a constant
        # column, which keeps scale 1, carries 1
        var = X[:, 1:].var(axis=0)
        return np.diag(np.r_[0.0, np.where(var > 1e-12, var, 1.0)])

    @pytest.mark.parametrize("cholesky", [False, True])
    def test_matches_direct_solve(self, rng, cholesky):
        problems = self._problems(rng)
        grams = [gram_accumulate(X, y) for X, y in problems]
        lam_values = (0.05, 2.0) if cholesky else (0.0, 0.05, 2.0)
        coefs, sse, edf = ridge_batch(stack_grams(grams), lam_values, cholesky=cholesky)
        for i, (X, y) in enumerate(problems):
            for k, lam in enumerate(lam_values):
                beta = coefs[k, i]
                if lam == 0.0:
                    ref, *_ = np.linalg.lstsq(X, y, rcond=None)
                    assert_allclose(X @ beta, X @ ref, rtol=1e-8, atol=1e-8)
                    if i < 2:  # the minimum-norm solution spreads a constant
                        assert_allclose(beta, ref, rtol=1e-8, atol=1e-10)
                    want_edf = np.linalg.matrix_rank(X)
                else:
                    A = X.T @ X + lam * self._penalty(X)
                    assert_allclose(beta, np.linalg.solve(A, X.T @ y), rtol=1e-8, atol=1e-10)
                    want_edf = np.trace(X @ np.linalg.solve(A, X.T))
                assert sse[k, i] == pytest.approx(np.sum((y - X @ beta) ** 2), rel=1e-9)
                assert edf[k, i] == pytest.approx(want_edf, rel=1e-9)

    def test_cholesky_route_calls_no_numpy_blas(self, rng, monkeypatch):
        # numpy's BLAS thread pool, woken between scipy's LAPACK calls,
        # contends with scipy's own pool, so the Cholesky loop keeps out of it
        stacked = stack_grams([gram_accumulate(X, y) for X, y in self._problems(rng)])
        want = ridge_batch(stacked, (0.05, 2.0), cholesky=True)

        def refuse(*args, **kwargs):
            raise AssertionError("numpy BLAS routine called")

        for name in ("vdot", "dot"):
            monkeypatch.setattr(np, name, refuse)
        # no eigh either: every system must take the Cholesky route, which
        # factors the uncentered gram and standardizes nothing
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(gram_mod, "_standardized_block", refuse)
        got = ridge_batch(stacked, (0.05, 2.0), cholesky=True)
        assert not np.isnan(got[2]).any()
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_fit_node_calls_eigh_once_by_attribute(self, rng, monkeypatch):
        # the benchmark's tracer times the node fit's factorization by
        # rebinding numpy.linalg.eigh
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        X, y = random_problem(rng, 40, 4)
        fit_node(gram_accumulate(X, y), (0.0, 0.1, 1.0))
        assert calls == [(1, 3, 3)]

    @pytest.mark.parametrize("lam", [1e-3, 0.0, (0.0, 0.05, 2.0)])
    def test_fit_node_is_a_batch_of_one(self, rng, lam):
        grams = [gram_accumulate(X, y) for X, y in self._problems(rng)]
        lam_values = (lam,) if np.isscalar(lam) else lam
        coefs, sse, edf = ridge_batch(stack_grams(grams), lam_values)
        for i, g in enumerate(grams):
            model = fit_node(g, lam)
            k = lam_values.index(model.lam)
            assert np.array_equal(model.coefficients, coefs[k, i])
            assert model.sse == sse[k, i] and model.effective_df == edf[k, i]

    @staticmethod
    def _with_singular(rng):
        # a duplicated +-1 column standardizes to [[16, 16], [16, 16]]
        # exactly, so a 1e-20 ridge weight leaves its factorization failing
        x = np.tile([1.0, -1.0], 8)
        grams = [gram_accumulate(np.column_stack([np.ones(40), rng.standard_normal((40, 2))]),
                                 rng.standard_normal(40)) for _ in range(4)]
        grams.insert(2, gram_accumulate(np.column_stack([np.ones(16), x, x]),
                                        np.repeat(np.arange(8.0), 2)))
        return stack_grams(grams)

    @pytest.mark.parametrize("cholesky", [False, True])
    @pytest.mark.parametrize("chunk", [1, 2, 5])
    def test_chunks_solve_alike(self, rng, monkeypatch, cholesky, chunk):
        # one loop standardizes and solves the systems chunk by chunk: any
        # chunk size gives the bits of the whole stack as one chunk, failed
        # factorizations included
        stacked = self._with_singular(rng)
        lam_values = (1e-20, 0.5)
        want = ridge_batch(stacked, lam_values, cholesky=cholesky)
        assert stacked.count.size <= gram_mod._STANDARDIZE_CHUNK_BYTES // (8 * 2 * 2)
        monkeypatch.setattr(gram_mod, "_STANDARDIZE_CHUNK_BYTES", chunk * 8 * 2 * 2)
        got = ridge_batch(stacked, lam_values, cholesky=cholesky)
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)

    def test_failed_factorization_is_standardized_once(self, rng, monkeypatch):
        # the Cholesky route factors the uncentered grams and standardizes
        # nothing; the eigendecomposition solves a failed system from its
        # standardized block, made once
        stacked = self._with_singular(rng)
        standardized, solved = [], []
        block_of = gram_mod._standardized_block
        eigh_of = gram_mod._eigh_solves

        def spy_block(xtx, *args, **kwargs):
            standardized.append(len(xtx))
            return block_of(xtx, *args, **kwargs)

        def spy_eigh(block, b, lam_values):
            solved.append(block.copy())
            return eigh_of(block, b, lam_values)

        monkeypatch.setattr(gram_mod, "_standardized_block", spy_block)
        monkeypatch.setattr(gram_mod, "_eigh_solves", spy_eigh)
        coefs, sse, edf = ridge_batch(stacked, (1e-20,), cholesky=True, want_edf=False)
        assert standardized == [1]
        assert len(solved) == 1 and solved[0].shape == (1, 2, 2)
        assert np.array_equal(solved[0][0], np.full((2, 2), 16.0))
        # the fallen-back system has its df, the others skipped it
        assert np.isnan(edf[0]).tolist() == [True, True, False, True, True]


class TestBorderedRoute:
    """The Cholesky route's bordered solve against the eigendecomposition and a direct solve.

    The Cholesky route factors each system's uncentered X'X, bordered by
    the intercept, with lambda scale_j^2 on the non-intercept diagonal; the
    reference standardizes it and eigendecomposes the block.  Both solve
    the same penalized problem, which the direct solve states on the
    centered rows themselves.
    """

    GRIDS = [(1e-3,), (1e-3, 0.05, 2.0), tuple(np.geomspace(1e-3, 5.0, 12))]

    @staticmethod
    def _direct(X, y, lam, scale):
        """Coefficients, SSE and df of the penalized fit, from centered rows."""
        mean = X[:, 1:].mean(axis=0)
        Xc = X[:, 1:] - mean
        A = Xc.T @ Xc + lam * np.diag(scale**2)
        beta = np.linalg.solve(A, Xc.T @ (y - y.mean()))
        beta = np.r_[y.mean() - mean @ beta, beta]
        return beta, np.sum((y - X @ beta) ** 2), 1.0 + np.trace(Xc @ np.linalg.solve(A, Xc.T))

    @staticmethod
    def _hat_design(rng, n):
        # two hat-function blocks, each summing to the intercept column, a
        # linear column and a one-hot column
        cols = [np.ones(n)]
        for _ in range(2):
            x = rng.uniform(-1.0, 1.0, n)
            cols.append(basis.spline_rows(x, basis.quantile_knots(x, 5)))
        cols.append(rng.standard_normal(n))
        cols.append((rng.random(n) < 0.3).astype(float))
        return np.column_stack(cols)

    def _problems(self, rng, kind):
        problems = []
        for trial in range(6):
            n = int(rng.integers(30, 400))
            if kind == "hats":
                X = self._hat_design(rng, n)
            else:
                X = np.column_stack([np.ones(n), rng.standard_normal((n, 6))])
            beta = rng.standard_normal(X.shape[1])
            if kind == "constant":
                X[:, 2] = 0.0  # a hat function outside the node
                X[:, 3] = 2.5  # constant within the node
                X[:, 4] = 1000.1  # far from zero, and not summed exactly
                beta[2:5] = 0.0
            y = X @ beta + 0.3 * rng.standard_normal(n)
            problems.append((X, y))
        return problems

    def _compare(self, problems, lam_values, rtol):
        """Both routes' largest errors against the direct solve.

        Slope errors are relative to the largest slope, SSE and df errors
        relative to the direct solve's.  The bordered route's must be within
        ``rtol``.  Returns the errors (2, 3), bordered first, and the two
        routes' results.
        """
        stats = stack_grams([gram_accumulate(X, y) for X, y in problems])
        scale = gram_mod._moments(stats)[2]
        routes = [ridge_batch(stats, lam_values, cholesky=c) for c in (True, False)]
        errors = np.zeros((2, 3))
        for i, (X, y) in enumerate(problems):
            for k, lam in enumerate(lam_values):
                beta, sse, df = self._direct(X, y, lam, scale[i])
                size = np.max(np.abs(beta[1:]))
                for r, (coefs, sses, edfs) in enumerate(routes):
                    errors[r] = np.maximum(errors[r], [
                        np.max(np.abs(coefs[k, i, 1:] - beta[1:])) / size,
                        abs(sses[k, i] / sse - 1.0),
                        abs(edfs[k, i] / df - 1.0),
                    ])
        assert np.all(errors[0] <= rtol), errors[0]
        return errors, routes

    @pytest.mark.parametrize("grid", GRIDS, ids=["one", "three", "twelve"])
    @pytest.mark.parametrize("kind", ["random", "hats", "constant"])
    def test_matches_eigh_and_direct(self, rng, kind, grid):
        # the hat blocks' exact null direction leaves the largest df error:
        # the trace identity counts its rounding, w / (w + lambda), as the
        # standardized Cholesky route did
        errors, (bordered, reference) = self._compare(
            self._problems(rng, kind), grid, rtol=[1e-8, 1e-10, 1e-9]
        )
        assert_allclose(bordered[1], reference[1], rtol=1e-10)
        if kind == "constant":
            # the reference solves the rounding left in the 1000.1 column's
            # centered entries (a slope near 1e-4, df up to 4e-4); the
            # bordered route zeroes the column as centering would exactly
            assert errors[0][0] < errors[1][0] and errors[0][2] < errors[1][2]
        else:
            assert_allclose(bordered[2], reference[2], rtol=1e-9)

    @pytest.mark.parametrize("offset, rtol", [(1e3, [1e-8, 1e-7, 1e-10]),
                                              (1e6, [1e-2, 1e-1, 1e-4])])
    @pytest.mark.parametrize("grid", GRIDS, ids=["one", "three", "twelve"])
    def test_offset_linear_columns(self, rng, grid, offset, rtol):
        # a linear column far from zero loses digits in X'X itself, which
        # both routes center alike: the bordered route keeps the accuracy
        # the standardized one has
        problems = []
        for _ in range(30):
            n = int(rng.integers(50, 400))
            X = np.column_stack([np.ones(n), rng.standard_normal((n, 4))])
            X[:, 2] = 3.0 * X[:, 2] + offset
            X[:, 4] = 3.0 * X[:, 4] - offset
            problems.append((X, X[:, 1:] @ rng.standard_normal(4) + rng.standard_normal(n)))
        (bordered, reference), _ = self._compare(problems, grid, rtol)
        assert np.all(bordered <= 2.0 * reference + 1e-12), (bordered, reference)

    def test_failed_factorization_falls_back(self, rng):
        # the duplicated +-1 column of TestRidgeBatch: its bordered gram
        # plus a 1e-20 ridge weight stays exactly singular, so that system
        # alone is solved by the eigendecomposition, as with cholesky off
        stacked = TestRidgeBatch._with_singular(rng)
        got = ridge_batch(stacked, (1e-20, 0.5), cholesky=True)
        want = ridge_batch(stacked, (1e-20, 0.5))
        for a, b in zip(got, want):
            assert np.array_equal(a[:, 2], b[:, 2])
            assert not np.array_equal(a[:, [0, 1, 3, 4]], b[:, [0, 1, 3, 4]])
            assert_allclose(a, b, rtol=1e-9, atol=1e-12)


class TestLapackBinding:
    """The ctypes LAPACK calls against scipy's f2py wrappers, bit for bit.

    Both call the same library symbols, so the factor, the solution and the
    inverse must carry the same bits, and so must every result of the
    Cholesky route.  The f2py reference of that route is the loop it
    replaced, kept here.
    """

    @staticmethod
    def _spd(rng, m):
        X = np.column_stack([np.ones(3 * m + 2), rng.standard_normal((3 * m + 2, m - 1))])
        return X.T @ X + 1e-3 * np.diag(np.r_[0.0, np.ones(m - 1)])

    @staticmethod
    def _bound(a):
        """``a`` in a work matrix, which LAPACK reads transposed, and its arguments."""
        args = gram_mod._LapackArgs(len(a))
        np.copyto(args.work, a)
        return args.work.T, args

    @pytest.mark.parametrize("m", [1, 2, 29, 151])
    def test_factor_solve_inverse_match_f2py(self, rng, m):
        for _ in range(8 if m < 151 else 3):
            a, b = self._spd(rng, m), rng.standard_normal(m)
            want, info = lapack.dpotrf(a.T.copy(order="F"), lower=1)
            chol, args = self._bound(a)
            assert gram_mod.dpotrf(chol, args) == info == 0
            assert np.array_equal(np.tril(chol), want)
            # the strict upper triangle is left as it was
            assert np.array_equal(np.triu(chol, 1), np.triu(a.T, 1))
            x = b.copy()
            gram_mod.dpotrs(chol, args, x.ctypes.data)
            assert np.array_equal(x, lapack.dpotrs(want, b, lower=1)[0])
            inverse, info = lapack.dtrtri(want, lower=1)
            assert gram_mod.dtrtri(chol, args) == info == 0
            assert np.array_equal(np.tril(chol), inverse)

    @pytest.mark.parametrize("m, bad", [(1, 0), (2, 1), (29, 7), (151, 100)])
    def test_failed_factorization_reports_the_same_info(self, rng, m, bad):
        a = self._spd(rng, m)
        a[bad, bad] = -1.0  # the leading minor of order bad + 1 is not positive
        want = lapack.dpotrf(a.T.copy(order="F"), lower=1)[1]
        chol, args = self._bound(a)
        assert gram_mod.dpotrf(chol, args) == want == bad + 1

    @staticmethod
    def _f2py_cholesky_solves(stats, scale, offset, lam_values, coefficients, edfs):
        """``gram._cholesky_solves`` through scipy's f2py wrappers."""
        m = stats.dim
        work = np.empty((m, m))
        diagonal = np.einsum("ii->i", work)[1:]
        shifts = (scale * scale)[:, None, :] * np.asarray(lam_values)[None, :, None]
        failed = []
        for i, (xtx, xty, weight) in enumerate(zip(stats.xtx, stats.xty, scale * scale)):
            columns = np.flatnonzero(offset[i]) + 1
            xty = xty.copy()
            xty[columns] = 0.0
            for k, lam in enumerate(lam_values):
                np.copyto(work, xtx)
                work[columns], work[:, columns] = 0.0, 0.0
                np.add(diagonal, shifts[i, k], out=diagonal)
                chol, info = lapack.dpotrf(work.T, lower=1, overwrite_a=1)
                if info != 0:
                    failed.append(i)
                    break
                coefficients[k, i], _ = lapack.dpotrs(chol, xty, lower=1)
                if edfs is not None:
                    inv, _ = lapack.dtrtri(chol, lower=1, overwrite_c=1)
                    norms = np.einsum("ij,ij->j", inv, inv)
                    edfs[k, i] = m - lam * np.einsum("j,j->", norms[1:], weight)
        return np.array(failed, dtype=np.intp)

    @pytest.mark.parametrize("grid", TestBorderedRoute.GRIDS, ids=["one", "three", "twelve"])
    @pytest.mark.parametrize("kind", ["random", "hats", "constant"])
    @pytest.mark.parametrize("want_edf", [True, False])
    def test_ridge_batch_matches_f2py(self, rng, monkeypatch, kind, grid, want_edf):
        stats = stack_grams([gram_accumulate(X, y)
                             for X, y in TestBorderedRoute()._problems(rng, kind)])
        got = ridge_batch(stats, grid, cholesky=True, want_edf=want_edf)
        monkeypatch.setattr(gram_mod, "_cholesky_solves", self._f2py_cholesky_solves)
        want = ridge_batch(stats, grid, cholesky=True, want_edf=want_edf)
        assert np.isnan(got[2]).any() != want_edf
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)

    def test_failed_systems_match_f2py(self, rng, monkeypatch):
        stacked = TestRidgeBatch._with_singular(rng)
        got = ridge_batch(stacked, (1e-20, 0.5), cholesky=True)
        monkeypatch.setattr(gram_mod, "_cholesky_solves", self._f2py_cholesky_solves)
        want = ridge_batch(stacked, (1e-20, 0.5), cholesky=True)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def sse_of(g, beta):
    """``_sse`` of one set of coefficients against one set of statistics."""
    beta = np.asarray(beta, dtype=np.float64)
    return float(_sse(stack_grams([g]), beta[None])[0])


class TestSseFromGram:
    def test_perfect_fit_zero(self):
        x = np.linspace(0, 1, 8)
        X = np.column_stack([np.ones(8), x])
        g = gram_accumulate(X, 1.0 + 2.0 * x)
        assert sse_of(g, [1.0, 2.0]) == pytest.approx(0.0, abs=1e-10)
        assert fit_node(g, 0.0).sse == pytest.approx(0.0, abs=1e-10)

    def test_null_coefficients_give_yty(self, rng):
        X, y = random_problem(rng, 20, 3)
        g = gram_accumulate(X, y)
        assert sse_of(g, np.zeros(3)) == pytest.approx(g.yty)

    def test_matches_residual_oracle(self, rng):
        X, y = random_problem(rng, 35, 4)
        g = gram_accumulate(X, y)
        beta = rng.standard_normal(4)
        direct = float(np.sum((y - X @ beta) ** 2))
        assert sse_of(g, beta) == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("lam", [1e-3, 0.5, (0.0, 0.05, 2.0)])
    def test_fit_node_sse_matches_residual_oracle(self, rng, lam):
        X, y = random_problem(rng, 35, 4)
        model = fit_node(gram_accumulate(X, y), lam)
        direct = float(np.sum((y - X @ model.coefficients) ** 2))
        assert model.sse == pytest.approx(direct, rel=1e-9)


class TestGcvLoss:
    def test_reference_value(self):
        assert gcv_loss(10.0, 100, 5.0) == pytest.approx(10 / (100 * 0.95**2))
        assert gcv_loss(10.0, 100, 5.0) == pytest.approx(0.110803, abs=5e-7)

    def test_zero_df_is_mean_squared_error(self):
        assert gcv_loss(12.0, 24, 0.0) == pytest.approx(0.5)

    def test_zero_sse(self):
        assert gcv_loss(0.0, 50, 3.0) == 0.0

    def test_saturated_model_rejected(self):
        with pytest.raises(ValueError, match="saturated"):
            gcv_loss(1.0, 10, 10.0)


@settings(max_examples=50, deadline=None)
@given(hst.integers(min_value=0, max_value=2**32 - 1))
def test_cauchy_schwarz_bound(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 30)), int(rng.integers(1, 6))
    X = rng.standard_normal((n, m))
    y = rng.standard_normal(n)
    g = gram_accumulate(X, y)
    beta = rng.standard_normal(m)
    lhs = float(g.xty @ beta) ** 2
    rhs = float(beta @ g.xtx @ beta) * g.yty
    assert lhs <= rhs * (1 + 1e-9) + 1e-9
