import numpy as np
import pytest

from coptrans import (
    CopulaHistogram,
    DegenerateColumn,
    InvalidParameter,
    dependence,
    empirical_copula_from_data,
    estimate_power,
    make_tfdc_coefficient,
    power,
    tfdc,
    tfdc_power_targets,
)
from coptrans.power import COEFFICIENTS, power_target_copulas


class TestEstimatePower:
    def test_noise_free_linear_spearman_is_one(self):
        res = estimate_power("linear", 0.0, "spearman", n_sims=50, sample_size=100, seed=1)
        assert res.power == 1.0
        assert res.coefficient == "spearman"

    def test_null_vs_null_calibration(self):
        res = estimate_power("linear", 0.5, "pearson", n_sims=200, sample_size=100,
                             seed=2, null_vs_null=True)
        # size should equal the 5% level within ~2 binomial sigmas
        sigma = np.sqrt(0.05 * 0.95 / 200)
        assert abs(res.power - 0.05) <= 2 * sigma + 1e-9

    def test_power_decreases_with_noise(self):
        powers = [
            estimate_power("linear", noise, "spearman", n_sims=50, sample_size=100, seed=3).power
            for noise in (0.0, 0.5, 2.0)
        ]
        assert powers[0] >= powers[1] - 0.05
        assert powers[1] >= powers[2] - 0.05

    def test_failing_coefficient_counts_as_non_rejection(self):
        def broken(x, y):
            # the noise-free linear alternative has y == x; a null replicate permutes y
            if np.array_equal(x, y):
                raise DegenerateColumn("no value")
            return 0.0

        broken.__name__ = "broken"
        res = estimate_power("linear", 0.0, broken, n_sims=20, sample_size=50, seed=4)
        assert res.power == 0.0

    def test_coefficient_without_any_value_is_rejected(self):
        def broken(x, y):
            raise DegenerateColumn("no value")

        broken.__name__ = "broken"
        with pytest.raises(InvalidParameter, match=r"'broken'.*sample_size=50.*no value"):
            estimate_power("linear", 0.0, broken, n_sims=20, sample_size=50, seed=4)

    def test_coefficient_bug_propagates(self):
        def buggy(x, y):
            raise TypeError("not a library error")

        with pytest.raises(TypeError, match="not a library error"):
            estimate_power("linear", 0.0, buggy, n_sims=20, sample_size=50, seed=4)

    def test_deterministic_bit_for_bit(self):
        a = estimate_power("quadratic", 1.0, "dcor", n_sims=30, sample_size=80, seed=5)
        b = estimate_power("quadratic", 1.0, "dcor", n_sims=30, sample_size=80, seed=5)
        assert a == b

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            estimate_power("linear", 0.0, "spearman", n_sims=5, sample_size=50, seed=0)
        with pytest.raises(InvalidParameter):
            estimate_power("linear", 0.0, "nope", n_sims=20, sample_size=50, seed=0)
        # one point gives no coefficient: every replicate would score as a
        # non-rejection, reporting power 0 for a noiseless pattern
        with pytest.raises(InvalidParameter):
            estimate_power("linear", 0.0, "pearson", n_sims=20, sample_size=1, seed=0)
        # a NaN noise level used to give noise-free data labelled nan
        with pytest.raises(InvalidParameter):
            estimate_power("linear", np.nan, "pearson", n_sims=20, sample_size=50, seed=0)

    def test_registry_contents(self):
        assert set(COEFFICIENTS) == {"pearson", "spearman", "dcor", "rdc"}


class TestTfdcPowerTargets:
    def test_counts_and_validity(self):
        # A pattern is a target once the grid has four bins per period, and
        # fourth_root is dropped as bit-identical to linear.
        resolved = ("linear", "quadratic", "cubic", "sin4pi", "circle", "step")
        for m, names in ((8, resolved), (12, resolved),
                         (32, resolved[:4] + ("sin16pi",) + resolved[4:])):
            assert tuple(power_target_copulas(m=m, T_ref=2000, seed=0)) == names
            spec = tfdc_power_targets(m=m, T_ref=2000, seed=0)
            assert len(spec.targets) == len(names)
            assert len(spec.forgets) == 1
            for i, t in enumerate(spec.targets):
                assert abs(t.mass.sum() - 1.0) < 1e-9
                assert t.mass.min() >= 0.0
                assert not any(t.same_bits(u) for u in spec.targets[:i])

    def test_targets_match_a_rankdata_and_add_at_rebuild(self, monkeypatch):
        # every copula rebuilt with scipy's average ranks and np.add.at; the
        # step pattern's y ties in two large runs
        from scipy.stats import rankdata

        def rebuilt(x, y, m):
            counts = np.zeros((m, m))
            bins = [np.clip(np.ceil(rankdata(w) / w.size * m - 1e-9).astype(np.int64) - 1,
                            0, m - 1) for w in (x, y)]
            np.add.at(counts, tuple(bins), 1.0)
            return CopulaHistogram(counts / x.size)

        settings = [(m, t_ref, seed) for m in (5, 8, 12, 20) for t_ref in (3000, 2999)
                    for seed in (0, 1)]
        built = [tfdc_power_targets(m=m, T_ref=t_ref, seed=seed) for m, t_ref, seed in settings]
        monkeypatch.setattr(power, "empirical_copula_from_data", rebuilt)
        for (m, t_ref, seed), spec in zip(settings, built):
            again = tfdc_power_targets(m=m, T_ref=t_ref, seed=seed)
            assert len(again.targets) == len(spec.targets)
            assert all(a.mass.tobytes() == b.mass.tobytes()
                       for a, b in zip(again.targets, spec.targets))

    def test_targets_stable_across_seeds(self):
        # Two independent large reference draws agree in total variation.
        # The diffuse high-frequency patterns sit near 0.04 at this T_ref
        # (TV shrinks like 1/sqrt(T_ref)). The step pattern is excluded: its
        # y has two rank atoms whose average rank straddles a bin edge, so
        # the occupied column flips between draws by construction.
        a = power_target_copulas(m=20, T_ref=100_000, seed=0)
        b = power_target_copulas(m=20, T_ref=100_000, seed=1)
        assert a.keys() == b.keys()
        spec = tfdc_power_targets(m=20, T_ref=100_000, seed=0)
        assert len(spec.targets) == len(a)
        assert all(t.same_bits(u) for t, u in zip(spec.targets, a.values()))
        for name in a:
            ta, tb = a[name], b[name]
            if name == "step":
                # structural stability instead: mass lives in two v-columns
                assert (ta.mass.sum(axis=0) > 1e-12).sum() == 2
                continue
            tv = 0.5 * np.abs(ta.mass - tb.mass).sum()
            assert tv <= 0.05

    def test_tfdc_coefficient_perfect_on_clean_linear(self):
        spec = tfdc_power_targets(m=8, T_ref=8000, seed=0)
        coeff = make_tfdc_coefficient(spec)
        rng = np.random.default_rng(6)
        x = rng.uniform(size=200)
        assert coeff(x, x) == 1.0  # clean linear copula is bit-equal to its target
        assert coeff.__name__ == "tfdc"

    def test_debiased_coefficient_solves_reference_self_distances_once(self, monkeypatch):
        # K references: the first evaluation solves 2K + 1 problems (the
        # copula against each reference, the references' self-distances,
        # which the spec keeps, and the copula's own), later ones K + 1
        spec = tfdc_power_targets(m=12, T_ref=4000, seed=0, debias=True)
        k = len(spec.forgets) + len(spec.targets)
        solve = dependence.sinkhorn_values_batch
        problems = []

        def counting(rs, cs, cost, cfg):
            problems.append(len(rs))
            return solve(rs, cs, cost, cfg)

        monkeypatch.setattr(dependence, "sinkhorn_values_batch", counting)
        coeff = make_tfdc_coefficient(spec)
        rng = np.random.default_rng(8)
        samples = [(x, x**2 + rng.standard_normal(200)) for x in rng.uniform(size=(3, 200))]
        scores = [coeff(x, y) for x, y in samples]
        assert k == 7 and problems == [2 * k + 1] + [k + 1] * 2
        monkeypatch.undo()
        fresh = tfdc_power_targets(m=12, T_ref=4000, seed=0, debias=True)
        assert scores == [tfdc([empirical_copula_from_data(x, y, 12)], fresh)[0]
                          for x, y in samples]
