import numpy as np
import pytest

from coptrans import (
    InvalidParameter,
    distance_correlation,
    empirical_copula_from_data,
    gen_discontinuity,
    gen_gaussian_pair,
    gen_noisy_parabola,
    gen_power_pattern,
    pearson,
    reference_copula,
    spearman,
)
from coptrans.synth import POWER_PATTERNS, generate


class TestDiscontinuity:
    def test_a_one_is_identity(self):
        x, y = gen_discontinuity(1.0, 1000, 7)
        assert np.array_equal(x, y)

    def test_a_zero_x_is_pure_noise(self):
        T = 20000
        x, y = gen_discontinuity(0.0, T, 7)
        # x is an independent uniform draw: correlation with y at noise level
        assert abs(pearson(x, y)) < 3.0 / np.sqrt(T)

    def test_shared_fraction_matches_a(self):
        T = 5000
        for a in (0.25, 0.5, 0.75):
            x, y = gen_discontinuity(a, T, 11)
            frac = np.mean(x == y)
            sigma = np.sqrt(a * (1 - a) / T)
            assert abs(frac - a) < 3 * sigma + 1e-9

    def test_half_mass_rides_the_shared_segment(self):
        # Margin oracle: P(X <= z) = min(z, a) + (1-a) z and
        # P(Y <= z) = min(z, a + 1/4) + (3/4 - a) z, so a shared point (z, z)
        # with z < a maps to (u, v) = (z (2-a), z (2-a-1/4)): a straight
        # sub-diagonal segment of slope (2-a-1/4)/(2-a), carrying mass ~ a.
        a, m = 0.5, 20
        x, y = gen_discontinuity(a, 5000, 13)
        c = empirical_copula_from_data(x, y, m)
        slope = (2 - a - 0.25) / (2 - a)
        centers = (np.arange(m) + 0.5) / m
        band = 0.0
        for p in range(m):
            q = int(np.ceil(slope * centers[p] * m - 1e-9)) - 1
            band += c.mass[p, max(q - 1, 0):q + 2].sum()
        assert band >= 0.45

    def test_domain_check(self):
        with pytest.raises(InvalidParameter):
            gen_discontinuity(1.5, 100, 0)


class TestNoisyParabola:
    def test_x_margin_uniform(self):
        x, _ = gen_noisy_parabola(0.1, 20000, 3)
        hist, _ = np.histogram(x, bins=10, range=(0, 1))
        assert np.abs(hist / 20000 - 0.1).max() < 0.02

    def test_zero_offset_copula_is_v_shaped(self):
        x, y = gen_noisy_parabola(0.0, 5000, 3)
        c = empirical_copula_from_data(x, y, 20)
        # rasterized clean curve: v = 2|u - 1/2| at the cell centers
        centers = (np.arange(20) + 0.5) / 20
        qstar = np.clip(np.ceil(2 * np.abs(centers - 0.5) * 20 - 1e-9).astype(int) - 1, 0, 19)
        on_curve = sum(c.mass[p, max(qstar[p] - 1, 0):qstar[p] + 2].sum() for p in range(20))
        assert on_curve > 0.95

    def test_offsets_shift_the_vertex(self):
        # vertex of the V sits at u = 1/2 - offset
        for off in (-0.1, 0.1):
            x, y = gen_noisy_parabola(off, 20000, 5)
            vertex_u = x[np.argmin(y)]
            assert abs(vertex_u - (0.5 - off)) < 0.02

    def test_distinct_offsets_distinct_copulas(self):
        a = empirical_copula_from_data(*gen_noisy_parabola(0.03, 5000, 9), 20)
        b = empirical_copula_from_data(*gen_noisy_parabola(0.10, 5000, 9), 20)
        assert np.abs(a.mass - b.mass).sum() > 0.1

    def test_offset_must_be_finite(self):
        for off in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidParameter):
                gen_noisy_parabola(off, 100, 0)


class TestPowerPatterns:
    def test_linear_noise_free_is_perfectly_monotone(self):
        x, y = gen_power_pattern("linear", 0.0, 500, 1)
        assert spearman(x, y) == 1.0

    def test_circle_invisible_to_pearson_but_not_dcor(self):
        x, y = gen_power_pattern("circle", 0.0, 500, 2)
        assert abs(pearson(x, y)) < 0.1
        # seeded simulation puts the clean-circle value near 0.16 (it tops out
        # around 0.157 even at T=5000); well above the null scale ~0.06
        assert 0.1 < distance_correlation(x, y) < 0.25

    def test_deterministic_given_seed(self):
        for pattern in POWER_PATTERNS:
            x1, y1 = gen_power_pattern(pattern, 0.7, 300, 42)
            x2, y2 = gen_power_pattern(pattern, 0.7, 300, 42)
            assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_noise_scales_with_pattern_range(self):
        _, clean = gen_power_pattern("cubic", 0.0, 4000, 3)
        _, noisy = gen_power_pattern("cubic", 1.0, 4000, 3)
        spread = np.std(noisy - clean)
        rng_len = clean.max() - clean.min()
        assert 0.8 * rng_len < spread < 1.2 * rng_len

    def test_unknown_pattern(self):
        with pytest.raises(InvalidParameter):
            gen_power_pattern("spiral", 0.0, 100, 0)

    def test_noise_level_must_be_finite_and_non_negative(self):
        for level in (np.nan, np.inf, -0.5):
            with pytest.raises(InvalidParameter):
                gen_power_pattern("linear", level, 100, 0)
            with pytest.raises(InvalidParameter):
                generate("power_pattern", 100, 0, noise_level=level)


class TestGaussianPair:
    def test_independent_case(self):
        T = 100_000
        x, y = gen_gaussian_pair(0.0, T, 5)
        assert abs(pearson(x, y)) < 3.0 / np.sqrt(T)

    def test_near_degenerate_rho(self):
        x, y = gen_gaussian_pair(1.0 - 1e-9, 1000, 5)
        assert np.all(np.isfinite(y))
        assert pearson(x, y) > 0.999

    def test_empirical_matches_analytic_gaussian_grid(self):
        x, y = gen_gaussian_pair(0.7, 100_000, 5)
        emp = empirical_copula_from_data(x, y, 20)
        ana = reference_copula("gaussian", 20, rho=0.7)
        tv = 0.5 * np.abs(emp.mass - ana.mass).sum()
        assert tv <= 0.05

    def test_domain_check(self):
        with pytest.raises(InvalidParameter):
            gen_gaussian_pair(1.5, 100, 0)


class TestGenerate:
    def test_dispatch_matches_direct_calls(self):
        x1, y1 = generate("power_pattern", 100, 4, pattern="step", noise_level=0.2)
        x2, y2 = gen_power_pattern("step", 0.2, 100, 4)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            generate("discontinuity", 1, 0)
        with pytest.raises(InvalidParameter):
            generate("nope", 10, 0)
