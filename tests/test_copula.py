import numpy as np
import pytest
from scipy.special import ndtri

from conftest import random_copula_grid
from coptrans import (
    CopulaHistogram,
    DegenerateColumn,
    InfeasibleProjection,
    InvalidData,
    InvalidParameter,
    empirical_copula,
    empirical_copula_from_data,
    normal_inverse_cdf,
    project_uniform_margins,
    rank_transform,
    reference_copula,
    spearman_from_copula,
)
from coptrans.copula import ObservationTable, RankColumn


class TestRankTransform:
    def test_sorted_values(self):
        assert np.allclose(rank_transform([10, 20, 30]).u, [1 / 3, 2 / 3, 1.0])

    def test_permuted_values(self):
        assert np.allclose(rank_transform([3, 1, 2]).u, [1.0, 1 / 3, 2 / 3])

    def test_average_tie_rule(self):
        # values 5, 5 share ranks 2 and 3 -> 2.5 each, over T=3
        assert np.allclose(rank_transform([5, 5, 1]).u, [5 / 6, 5 / 6, 1 / 3])

    def test_monotone_invariance_bitwise(self, rng):
        x = rng.standard_normal(500)
        assert np.array_equal(rank_transform(x).u, rank_transform(np.exp(x)).u)
        assert np.array_equal(rank_transform(x).u, rank_transform(3.0 * x - 7.0).u)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidData):
            rank_transform([1.0, np.nan, 2.0])

    def test_rejects_constant(self):
        with pytest.raises(DegenerateColumn):
            rank_transform([4.0, 4.0, 4.0])

    def test_matches_scipy_rankdata_bitwise(self, rng):
        # scipy's rankdata stays the reference here; the package ranks without it
        from scipy.stats import rankdata

        cases = [
            np.array([2.0, 1.0]),
            np.array([-0.0, 0.0, 1.0, -0.0, -1.0]),
            rng.choice([-0.0, 0.0, 1.0], size=200),
            rng.integers(0, 2, size=50).astype(float),
            np.concatenate([np.full(150, 3.0), rng.standard_normal(150)]),
            rng.standard_normal(100_000),
            rng.integers(0, 1000, size=100_000).astype(float),
        ]
        for _ in range(100):
            T = int(rng.integers(2, 3000))
            x = rng.standard_normal(T)
            cases += [x, np.round(x, 1), rng.integers(0, 7, size=T).astype(float)]
        for x in cases:
            if x.min() == x.max():
                continue
            expected = rankdata(x, method="average") / x.size
            assert rank_transform(x).u.tobytes() == expected.tobytes()


def add_at_histogram(u, v, m):
    """Reference binning: np.add.at of 1 per point on the half-open bins
    (p/m, (p+1)/m], then / T."""
    def bins(w):
        return np.clip(np.ceil(w * m - 1e-9).astype(np.int64) - 1, 0, m - 1)

    counts = np.zeros((m, m))
    np.add.at(counts, (bins(u), bins(v)), 1.0)
    return counts / u.size


class TestEmpiricalCopula:
    def test_matches_add_at_reference_bitwise(self, rng):
        # T a multiple of m puts ranks exactly on bin edges; integer columns
        # tie, and their average ranks fall on half-integers; m=2 and m=T
        # are the extreme grids
        cases = []
        for T, m in ((240, 2), (240, 8), (240, 12), (240, 240), (1001, 12), (2, 2), (7, 7)):
            cases.append((rng.standard_normal(T), rng.standard_normal(T), m))
            cases.append((rng.integers(0, 5, size=T).astype(float),
                          rng.integers(0, 3, size=T).astype(float), m))
        cases.append((np.array([1.0, 1.0, 2.0, 2.0]), np.array([0.0, -0.0, 5.0, 4.0]), 4))
        for x, y, m in cases:
            if x.min() == x.max() or y.min() == y.max():
                continue
            u, v = rank_transform(x), rank_transform(y)
            got = empirical_copula(u, v, m).mass
            assert got.tobytes() == add_at_histogram(u.u, v.u, m).tobytes()

    def test_comonotonic_two_bins(self):
        u = RankColumn(np.array([0.25, 0.5, 0.75, 1.0]))
        c = empirical_copula(u, u, 2)
        assert np.allclose(c.mass, [[0.5, 0.0], [0.0, 0.5]])

    def test_countermonotonic_two_bins(self):
        x = RankColumn(np.array([0.25, 0.5, 0.75, 1.0]))
        y = RankColumn(np.array([1.0, 0.75, 0.5, 0.25]))
        c = empirical_copula(x, y, 2)
        assert np.allclose(c.mass, [[0.0, 0.5], [0.5, 0.0]])

    def test_independent_large_sample_near_uniform(self):
        rng = np.random.default_rng(7)
        c = empirical_copula_from_data(rng.uniform(size=10000), rng.uniform(size=10000), 10)
        # cell count is Binomial(10^4, 10^-2): 3 sigma ~ 0.003, well under 0.01
        assert np.abs(c.mass - 0.01).max() < 0.01

    def test_uniform_margins_when_T_multiple_of_m(self, rng):
        c = empirical_copula_from_data(rng.standard_normal(400), rng.standard_normal(400), 20)
        assert np.abs(c.mass.sum(axis=0) - 0.05).max() < 1e-9
        assert np.abs(c.mass.sum(axis=1) - 0.05).max() < 1e-9

    def test_monotone_invariance_bit_identical(self, rng):
        x = rng.standard_normal(300)
        y = rng.standard_normal(300)
        base = empirical_copula_from_data(x, y, 15)
        transformed = empirical_copula_from_data(np.exp(x), y**3, 15)
        assert base.same_bits(transformed)

    def test_length_mismatch(self):
        with pytest.raises(InvalidData):
            empirical_copula(RankColumn(np.array([0.5, 1.0])),
                             RankColumn(np.array([1 / 3, 2 / 3, 1.0])), 2)

    def test_frechet_cdf_ordering(self, rng):
        # cumulative sums of W <= C <= M cellwise, within quadrature slack 1/m
        m = 16
        c = empirical_copula_from_data(rng.standard_normal(800), rng.standard_normal(800), m)
        upper = reference_copula("frechet_upper", m)
        lower = reference_copula("frechet_lower", m)

        def cdf(h):
            return h.mass.cumsum(axis=0).cumsum(axis=1)

        assert np.all(cdf(c) <= cdf(upper) + 1.0 / m)
        assert np.all(cdf(lower) <= cdf(c) + 1.0 / m)


class TestReferenceCopula:
    def test_independence_uniform(self):
        c = reference_copula("independence", 4)
        assert np.allclose(c.mass, 1 / 16)

    def test_frechet_upper_diagonal(self):
        c = reference_copula("frechet_upper", 4)
        expected = np.zeros((4, 4))
        np.fill_diagonal(expected, 0.25)
        assert np.array_equal(c.mass, expected)

    def test_gaussian_rho_zero_equals_independence(self):
        g = reference_copula("gaussian", 8, rho=0.0)
        pi = reference_copula("independence", 8)
        assert np.abs(g.mass - pi.mass).max() < 1e-9

    def test_gaussian_margins_uniform(self):
        g = reference_copula("gaussian", 20, rho=0.7)
        assert np.abs(g.mass.sum(axis=0) - 0.05).max() < 1e-9
        assert np.abs(g.mass.sum(axis=1) - 0.05).max() < 1e-9
        # positive dependence concentrates mass on the diagonal corners
        assert g.mass[0, 0] > g.mass[0, 19]

    def test_gaussian_rho_validation(self):
        with pytest.raises(InvalidParameter):
            reference_copula("gaussian", 8, rho=1.0)

    def test_patch_margins_and_weight_validation(self):
        c = reference_copula("patch", 10, patches=(((0.0, 0.5, 0.0, 0.5), 2.0),))
        assert np.abs(c.mass.sum(axis=0) - 0.1).max() < 1e-9
        # IPF preserves the block odds ratio 9, so the corner holds exactly
        # 3/8 (independence baseline would be 1/4)
        assert abs(c.mass[:5, :5].sum() - 0.375) < 1e-9
        with pytest.raises(InvalidParameter):
            reference_copula("patch", 10, patches=(((0.0, 0.5, 0.0, 0.5), 0.0),))
        with pytest.raises(InvalidParameter):
            reference_copula("patch", 10, patches=(((0.7, 0.2, 0.0, 0.5), 1.0),))


class TestProjectUniformMargins:
    def test_fixed_point_unchanged(self):
        m = 5
        grid = np.full((m, m), 1.0 / (m * m))
        out = project_uniform_margins(grid)
        assert np.abs(out.mass - grid).max() < 1e-12

    def test_two_by_two_closed_form(self):
        # IPF preserves the odds ratio: a^2 / (1/2 - a)^2 = (2*2)/(1*1)
        # so a / (1/2 - a) = 2 and a = 1/3.
        out = project_uniform_margins(np.array([[2.0, 1.0], [1.0, 2.0]]), tol=1e-12)
        assert np.abs(out.mass - np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])).max() < 1e-9
        assert np.abs(out.mass.sum(axis=0) - 0.5).max() < 1e-9

    def test_all_ones_symmetry(self):
        out = project_uniform_margins(np.ones((3, 3)))
        assert np.allclose(out.mass, 1 / 9)

    def test_idempotent(self, rng):
        first = project_uniform_margins(rng.gamma(0.5, size=(8, 8)) + 1e-9, tol=1e-10)
        second = project_uniform_margins(first.mass, tol=1e-10)
        assert np.abs(first.mass - second.mass).max() < 1e-9

    def test_zero_row_infeasible(self):
        grid = np.ones((3, 3))
        grid[1] = 0.0
        with pytest.raises(InfeasibleProjection):
            project_uniform_margins(grid)


class TestSpearmanFromCopula:
    def test_independence_zero(self):
        assert abs(spearman_from_copula(reference_copula("independence", 12))) < 1e-9

    def test_comonotone_quadrature_value(self):
        # direct quadrature oracle: 12/m * sum((p+1/2)^2/m^2) - 3 = 1 - 1/m^2
        m = 16
        centers = (np.arange(m) + 0.5) / m
        oracle = 12.0 * np.sum(centers * centers) / m - 3.0
        value = spearman_from_copula(reference_copula("frechet_upper", m))
        assert abs(value - oracle) < 1e-12
        assert abs(oracle - (1.0 - 1.0 / m**2)) < 1e-12
        assert value >= 0.99

    def test_countermonotone_is_negated(self):
        m = 16
        up = spearman_from_copula(reference_copula("frechet_upper", m))
        dn = spearman_from_copula(reference_copula("frechet_lower", m))
        assert abs(up + dn) < 1e-12

    def test_mass_conservation_all_constructors(self, rng):
        hists = [
            reference_copula("independence", 9),
            reference_copula("frechet_upper", 9),
            reference_copula("frechet_lower", 9),
            reference_copula("gaussian", 9, rho=-0.4),
            empirical_copula_from_data(rng.uniform(size=100), rng.uniform(size=100), 9),
            random_copula_grid(rng, 9),
        ]
        for h in hists:
            assert abs(h.mass.sum() - 1.0) < 1e-9


class TestNormalInverseCdf:
    def test_against_scipy(self):
        p = np.concatenate([
            np.linspace(1e-6, 1 - 1e-6, 2001),
            [1e-12, 1e-9, 0.5, 1 - 1e-9, 1 - 1e-12],
        ])
        assert np.abs(normal_inverse_cdf(p) - ndtri(p)).max() < 1e-9

    def test_domain_check(self):
        with pytest.raises(InvalidParameter):
            normal_inverse_cdf(np.array([0.0, 0.5]))


class TestObservationTable:
    def test_constant_column_flagged(self):
        with pytest.raises(DegenerateColumn):
            ObservationTable(names=("a", "b"), data=np.array([[1.0, 2.0], [1.0, 3.0]]))

    def test_shape_and_names(self):
        t = ObservationTable(names=("a", "b"), data=np.array([[1.0, 2.0], [2.0, 3.0]]))
        assert t.T == 2 and t.N == 2

    def test_histogram_rejects_negative_and_unnormalized(self):
        with pytest.raises(InvalidData):
            CopulaHistogram(np.array([[0.5, -0.1], [0.3, 0.3]]))
        with pytest.raises(InvalidData):
            CopulaHistogram(np.full((2, 2), 0.3))
