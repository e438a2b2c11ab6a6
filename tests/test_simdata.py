"""Benchmark function values against independently computed constants."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splinetree import f1, f2, simulate, to_dataset

# frozen from a 30-digit mpmath evaluation of the term-by-term formulas
F1_AT_HALF = 2.2766607426377641
F2_AT_HALF = 8.1050878673839542
F1_AT_MINUS_03 = 3.6049896313080726
F2_AT_MINUS_03 = 4.2049896313080726


class TestF1:
    def test_origin_value(self):
        # 0 + 0 - 0 + 1 + 0.5 + 0 + 0 + 0 + 0 + 2
        assert f1(np.zeros(10)) == pytest.approx(3.5, abs=1e-15)

    def test_all_half(self):
        assert f1(np.full(10, 0.5)) == pytest.approx(F1_AT_HALF, rel=1e-14)

    def test_all_minus_03(self):
        assert f1(np.full(10, -0.3)) == pytest.approx(F1_AT_MINUS_03, rel=1e-14)

    def test_noise_coordinates_inert(self, rng):
        x = rng.uniform(-1, 1, size=(50, 10))
        base = f1(x)
        x2 = x.copy()
        x2[:, 8:] = rng.uniform(-1, 1, size=(50, 2))
        assert_allclose(f1(x2), base, rtol=0, atol=0)

    def test_continuity_at_x6_zero(self):
        x = np.zeros(10)
        eps = 1e-8
        lo, hi = x.copy(), x.copy()
        lo[5], hi[5] = -eps, eps
        assert abs(f1(lo) - f1(x)) < 1e-6
        assert abs(f1(hi) - f1(x)) < 1e-6

    def test_continuity_at_x7_zero(self):
        x = np.zeros(10)
        eps = 1e-10
        lo, hi = x.copy(), x.copy()
        lo[6], hi[6] = -eps, eps
        # sqrt term is continuous (though not differentiable) at 0
        assert abs(f1(lo) - f1(x)) < 1e-4
        assert abs(f1(hi) - f1(x)) < 1e-4


class TestF2:
    def test_origin_equals_f1(self):
        assert f2(np.zeros(10)) == pytest.approx(3.5, abs=1e-15)

    def test_all_half(self):
        # adds 1 + 1 + 4*sqrt(0.5) + 1 on top of f1
        assert f2(np.full(10, 0.5)) == pytest.approx(F2_AT_HALF, rel=1e-14)

    def test_all_minus_03(self):
        assert f2(np.full(10, -0.3)) == pytest.approx(F2_AT_MINUS_03, rel=1e-14)

    def test_indicator_off_when_x1_nonpositive(self, rng):
        x = rng.uniform(-1, 1, size=(100, 10))
        x[:, 0] = -np.abs(x[:, 0])  # x1 <= 0
        diff = f2(x) - f1(x)
        x_alt = x.copy()
        x_alt[:, 2] = rng.uniform(-1, 1, 100)  # x3 enters only via indicators
        x_alt[:, 3] = rng.uniform(-1, 1, 100)  # same for the x4 main term
        diff_alt = f2(x_alt) - f1(x_alt)
        assert_allclose(diff, diff_alt, atol=1e-12)

    def test_agreement_region(self, rng):
        # x1 <= 0, x5 <= 0, x7 + x8 = 0 makes every added term vanish
        x = rng.uniform(-1, 1, size=(60, 10))
        x[:, 0] = -np.abs(x[:, 0])
        x[:, 4] = -np.abs(x[:, 4])
        x[:, 7] = -x[:, 6]
        assert_allclose(f2(x), f1(x), atol=1e-12)

    def test_power_term_at_x6_zero(self):
        x = np.zeros(10)
        x[4] = 0.7  # x5 > 0 with |x6| = 0 gives 4 * 0.7**0 = 4
        assert f2(x) - f1(x) == pytest.approx(4.0, abs=1e-12)

    def test_power_term_zero_for_negative_x5(self):
        x = np.zeros(10)
        x[4] = -0.7
        assert f2(x) == pytest.approx(f1(x), abs=1e-15)


class TestSimulate:
    def test_noiseless_sigma(self):
        sim = simulate("f1", 500, 0.0, seed=11)
        assert_allclose(sim.y, sim.f, rtol=0, atol=0)

    def test_same_seed_bit_identical(self):
        a = simulate("f2", 300, 0.5, seed=4)
        b = simulate("f2", 300, 0.5, seed=4)
        assert (a.x == b.x).all() and (a.y == b.y).all()
        assert (a.train_idx == b.train_idx).all()

    def test_coordinates_in_unit_cube(self):
        sim = simulate("f1", 2000, 0.5, seed=9)
        assert sim.x.min() >= -1.0 and sim.x.max() <= 1.0

    def test_split_sizes(self):
        sim = simulate("f1", 999, 0.5, seed=1)
        assert sim.train_idx.size == 666 and sim.test_idx.size == 333
        together = np.sort(np.concatenate([sim.train_idx, sim.test_idx]))
        assert (together == np.arange(999)).all()

    def test_noise_moment(self):
        # chi-square concentration: mean of (y-f)^2 within 3 SE of 0.25
        n, sigma = 30_000, 0.5
        sim = simulate("f1", n, sigma, seed=123)
        second_moment = float(np.mean((sim.y - sim.f) ** 2))
        se = np.sqrt(2 * sigma**4 / n)
        assert abs(second_moment - sigma**2) < 3 * se

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate("nope", 10, 0.5, 0)
        with pytest.raises(ValueError):
            simulate("f1", 0, 0.5, 0)
        with pytest.raises(ValueError):
            simulate("f1", 10, -0.5, 0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and nonnegative"):
            simulate("f2", 10, sigma, 0)


class TestToDataset:
    def test_noiseless_surrogate_keeps_original(self):
        sim = simulate("f1", 100, 0.5, seed=2)
        ds = to_dataset(sim, rows=sim.train_idx)
        assert_allclose(ds.response, sim.f[sim.train_idx])
        assert_allclose(ds.original, sim.y[sim.train_idx])
        assert ds.features[0].name == "x1" and len(ds.features) == 10

    def test_noisy_surrogate_option(self):
        sim = simulate("f1", 50, 0.5, seed=2)
        ds = to_dataset(sim, surrogate="y")
        assert_allclose(ds.response, sim.y)
