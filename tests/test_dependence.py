import numpy as np
import pytest

from conftest import random_sample_copula
from coptrans import (
    AmbiguousSpec,
    ConvergenceFailure,
    CopulaHistogram,
    DegenerateColumn,
    GroundCost,
    InvalidData,
    SinkhornConfig,
    TFDCSpec,
    default_lambda,
    distance_correlation,
    empirical_copula_from_data,
    exact_ot,
    pearson,
    rdc,
    reference_copula,
    spearman,
    spearman_from_copula,
    tfdc,
)
from coptrans import dependence, transport
from coptrans.power import tfdc_power_targets
from coptrans.synth import gen_power_pattern
from coptrans.transport import sinkhorn_values_batch, sinkhorn_values_screened


def standard_spec(m=20, debias=False, **cfg_kw):
    """Forget = independence, targets = the two extreme-dependence grids."""
    up = reference_copula("frechet_upper", m)
    dn = reference_copula("frechet_lower", m)
    pi = reference_copula("independence", m)
    return TFDCSpec(targets=(up, dn), forgets=(pi,), cost=GroundCost(m),
                    cfg=SinkhornConfig(lam=default_lambda(m), **cfg_kw), debias=debias)


class TestTfdc:
    def test_forget_member_is_exactly_zero(self):
        spec = standard_spec(m=8)
        assert tfdc([reference_copula("independence", 8)], spec)[0] == 0.0

    def test_target_member_is_exactly_one(self):
        spec = standard_spec(m=8)
        assert tfdc([reference_copula("frechet_upper", 8)], spec)[0] == 1.0
        assert tfdc([reference_copula("frechet_lower", 8)], spec)[0] == 1.0

    def test_member_of_both_sets_is_ambiguous(self):
        pi = reference_copula("independence", 8)
        up = reference_copula("frechet_upper", 8)
        spec = TFDCSpec(targets=(pi, up), forgets=(pi,), cost=GroundCost(8),
                        cfg=SinkhornConfig(lam=default_lambda(8)))
        with pytest.raises(AmbiguousSpec):
            tfdc([pi], spec)[0]

    def test_resolution_mismatch(self):
        spec = standard_spec(m=8)
        with pytest.raises(InvalidData):
            tfdc([reference_copula("independence", 10)], spec)[0]

    def test_standard_instantiation_on_data(self):
        # forget={independence}, targets={extremes}: strong dependence scores
        # high, independence scores low (T=5000, m=20 defaults)
        spec = standard_spec()
        rng = np.random.default_rng(123)
        z = rng.standard_normal(5000)
        como = empirical_copula_from_data(z, z, 20)
        counter = empirical_copula_from_data(z, -z, 20)
        indep = empirical_copula_from_data(rng.standard_normal(5000),
                                           rng.standard_normal(5000), 20)
        assert tfdc([como], spec)[0] >= 0.9
        assert tfdc([counter], spec)[0] >= 0.9
        assert tfdc([indep], spec)[0] <= 0.15

    def test_ordering_agrees_with_exact_transport_oracle(self):
        # same comparison at m=8 with exact LP distances
        rng = np.random.default_rng(123)
        z = rng.standard_normal(5000)
        noisy = empirical_copula_from_data(z, z + 0.4 * rng.standard_normal(5000), 8)
        indep = empirical_copula_from_data(rng.standard_normal(5000),
                                           rng.standard_normal(5000), 8)
        spec = standard_spec(m=8)

        def exact_ratio(c):
            d_forget = exact_ot(spec.forgets[0], c, spec.cost)[0]
            d_target = min(exact_ot(c, t, spec.cost)[0] for t in spec.targets)
            return d_forget / (d_forget + d_target)

        assert tfdc([noisy], spec)[0] > tfdc([indep], spec)[0]
        assert exact_ratio(noisy) > exact_ratio(indep)
        assert abs(tfdc([noisy], spec)[0] - exact_ratio(noisy)) < 0.05

    def test_monotone_transform_invariance_bitwise(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(1000)
        y = x**3 + rng.standard_normal(1000)
        spec = standard_spec()
        base = tfdc([empirical_copula_from_data(x, y, 20)], spec)[0]
        moved = tfdc([empirical_copula_from_data(np.exp(x), 5 * y - 2, 20)], spec)[0]
        assert base == moved

    def test_debias_keeps_boundaries_and_range(self):
        spec = standard_spec(m=10, debias=True)
        pi = reference_copula("independence", 10)
        up = reference_copula("frechet_upper", 10)
        assert tfdc([pi], spec)[0] == 0.0
        assert tfdc([up], spec)[0] == 1.0
        rng = np.random.default_rng(9)
        c = empirical_copula_from_data(rng.uniform(size=500), rng.uniform(size=500), 10)
        assert 0.0 <= tfdc([c], spec)[0] <= 1.0

    @pytest.mark.parametrize("debias", [False, True])
    def test_batch_equals_one_copula_calls_bitwise(self, rng, debias):
        # 22 copulas against 3 references are 66 problems (91 debiased), so
        # the batch crosses the 64-problem chunk boundary; the forget and
        # target members mixed in score exactly 0 and 1
        spec = standard_spec(m=8, debias=debias)
        copulas = [random_sample_copula(rng, 8, T=40) for _ in range(22)]
        copulas[3:3] = [spec.forgets[0]]
        copulas[10:10] = [spec.targets[0]]
        copulas.append(spec.targets[1])
        scores = tfdc(copulas, spec)
        assert np.array_equal(scores, [tfdc([c], spec)[0] for c in copulas])
        assert (scores[3], scores[10], scores[-1]) == (0.0, 1.0, 1.0)

    def test_debiased_scores_follow_the_formula_bitwise(self, rng):
        # S(x, c) = d(x, c) - (d(x, x) + d(c, c)) / 2, clipped at 0, from
        # one-problem solves
        spec = standard_spec(m=8, debias=True)
        refs = [*spec.forgets, *spec.targets]
        copulas = [random_sample_copula(rng, 8, T=40) for _ in range(4)]

        def d(a, b):
            return sinkhorn_values_batch([a], [b], spec.cost, spec.cfg)[0]

        expected = []
        for c in copulas:
            s = [max(d(x, c) - 0.5 * (d(x, x) + d(c, c)), 0.0) for x in refs]
            expected.append(s[0] / (s[0] + min(s[1:])))
        assert np.array_equal(tfdc(copulas, spec), expected)

    @pytest.mark.parametrize("debias", [False, True])
    def test_failure_names_copula_and_reference(self, rng, debias):
        # a budget of 5 ends in a warm-up stage, so every solve fails; the
        # target member at index 1 is settled without a solve
        spec = standard_spec(m=8, debias=debias, max_iter=5, tol=1e-9)
        copulas = [random_sample_copula(rng, 8, T=40), spec.targets[0],
                   random_sample_copula(rng, 8, T=40)]
        with pytest.raises(ConvergenceFailure) as err:
            tfdc(copulas, spec)
        expected = [(i, r) for i in (0, 2) for r in range(3)]
        if debias:
            expected += [(None, 0), (None, 1), (None, 2), (0, None), (2, None)]
        assert err.value.pair == tuple(expected)
        assert spec.ref_self is None  # a failed batch keeps nothing

    def test_spec_keeps_reference_self_distances(self, rng, monkeypatch):
        # the first debiased call solves the 3 references' self-distances
        # with its batch and keeps them; later calls on the spec do not
        spec = standard_spec(m=8, debias=True)
        refs = [*spec.forgets, *spec.targets]
        copulas = [random_sample_copula(rng, 8, T=40) for _ in range(5)]
        solve = dependence.sinkhorn_values_batch
        problems = []

        def counting(rs, cs, cost, cfg):
            problems.append(len(rs))
            return solve(rs, cs, cost, cfg)

        monkeypatch.setattr(dependence, "sinkhorn_values_batch", counting)
        first = tfdc(copulas, spec)
        kept = spec.ref_self
        second = tfdc(copulas[:2], spec)
        assert problems == [5 * 3 + 3 + 5, 2 * 3 + 2]
        assert spec.ref_self is kept and not kept.flags.writeable
        assert np.array_equal(kept, sinkhorn_values_batch(refs, refs, spec.cost, spec.cfg))
        assert np.array_equal(second, first[:2])
        assert np.array_equal(first, tfdc(copulas, standard_spec(m=8, debias=True)))

    def test_spec_validation(self):
        up = reference_copula("frechet_upper", 8)
        with pytest.raises(InvalidData):
            TFDCSpec(targets=(), forgets=(up,), cost=GroundCost(8),
                     cfg=SinkhornConfig(lam=1.0))
        with pytest.raises(InvalidData):
            TFDCSpec(targets=(up,), forgets=(up,), cost=GroundCost(10),
                     cfg=SinkhornConfig(lam=1.0))


def power_copulas(n, m=12, seed=3):
    """n power-study copulas at n=200: noisy patterns, every other one permuted."""
    rng = np.random.default_rng(seed)
    copulas = []
    for i in range(n):
        pattern = ("circle", "sin4pi", "quadratic", "linear")[i % 4]
        x, y = gen_power_pattern(pattern, 0.5, 200, int(rng.integers(2**31)))
        copulas.append(empirical_copula_from_data(x, rng.permutation(y) if i % 2 else y, m))
    return copulas


def problems(copulas, spec):
    """tfdc's copula-reference problems, with its non-debiased groups."""
    refs = [*spec.forgets, *spec.targets]
    where = [(i, r) for i in range(len(copulas)) for r in range(len(refs))]
    groups = [2 * i + (r >= len(spec.forgets)) for i, r in where]
    return [refs[r] for _, r in where], [copulas[i] for i, _ in where], groups


def fully_closed_tfdc(copulas, spec):
    """TFDC from `sinkhorn_values_batch`, which closes every deficit."""
    rs, cs, _ = problems(copulas, spec)
    k = len(spec.forgets) + len(spec.targets)
    d = sinkhorn_values_batch(rs, cs, spec.cost, spec.cfg).reshape(len(copulas), k)
    if spec.debias:
        refs = [*spec.forgets, *spec.targets]
        ref_self = sinkhorn_values_batch(refs, refs, spec.cost, spec.cfg)
        own = sinkhorn_values_batch(copulas, copulas, spec.cost, spec.cfg)
        d = np.maximum(d - 0.5 * (ref_self + own[:, None]), 0.0)
    d_forget = d[:, :len(spec.forgets)].min(axis=1)
    d_target = d[:, len(spec.forgets):].min(axis=1)
    return d_forget / (d_forget + d_target)


class TestTfdcScreen:
    """tfdc closes a deficit only where its distance can be a minimum."""

    @pytest.mark.parametrize("debias", [False, True])
    def test_scores_match_fully_closed_distances(self, debias):
        # 10 copulas x 7 references: 70 problems in two engine chunks
        spec = tfdc_power_targets(m=12, T_ref=4000, seed=0, debias=debias)
        copulas = power_copulas(10)
        assert len(spec.forgets) + len(spec.targets) == 7
        assert np.array_equal(tfdc(copulas, spec), fully_closed_tfdc(copulas, spec))

    def test_group_straddling_chunks_keeps_its_minimum(self):
        # 13 copulas x 5 references: the last copula's target group holds
        # positions 61-64, across the 64-problem chunk boundary
        full = tfdc_power_targets(m=12, T_ref=4000, seed=0)
        spec = TFDCSpec(targets=full.targets[:4], forgets=full.forgets, cost=full.cost,
                        cfg=full.cfg)
        copulas = power_copulas(13, seed=4)
        rs, cs, groups = problems(copulas, spec)
        assert groups[63] == groups[64] and len(rs) == 65
        assert np.array_equal(tfdc(copulas, spec), fully_closed_tfdc(copulas, spec))
        screened = sinkhorn_values_screened(rs, cs, spec.cost, spec.cfg, groups=groups)
        batch = sinkhorn_values_batch(rs, cs, spec.cost, spec.cfg)
        kept = np.isfinite(screened)
        assert np.array_equal(screened[kept], batch[kept])
        for g in set(groups):
            members = [b for b in range(len(rs)) if groups[b] == g]
            assert screened[members].min() == batch[members].min()

    def test_tied_targets_are_both_closed(self):
        # two bit-identical targets tie on their pre-closure cost; where
        # they hold the target minimum, both keep their full values
        full = tfdc_power_targets(m=12, T_ref=4000, seed=0)
        twin = CopulaHistogram(full.targets[1].mass.copy())
        spec = TFDCSpec(targets=(full.targets[1], twin, full.targets[4]),
                        forgets=full.forgets, cost=full.cost, cfg=full.cfg)
        copulas = power_copulas(6, seed=5)
        assert np.array_equal(tfdc(copulas, spec), fully_closed_tfdc(copulas, spec))
        rs, cs, groups = problems(copulas, spec)
        screened = sinkhorn_values_screened(rs, cs, spec.cost, spec.cfg, groups=groups)
        batch = sinkhorn_values_batch(rs, cs, spec.cost, spec.cfg)
        screened, batch = screened.reshape(6, 4), batch.reshape(6, 4)
        nearest = batch[:, 1] == batch[:, 1:].min(axis=1)
        assert nearest.any()
        assert np.array_equal(screened[nearest, 1:3], batch[nearest, 1:3])
        assert np.array_equal(screened[nearest, 1], screened[nearest, 2])

    def test_nearest_target_need_not_have_the_lowest_pre_closure_cost(self, monkeypatch):
        # In this draw some copula's target of lowest pre-closure cost is not
        # its nearest target once closed, so only the second wave finds it
        rng = np.random.default_rng(1)
        copulas = []
        for i in range(8):
            pattern = ("circle", "sin4pi", "quadratic", "linear", "cubic", "step")[i % 6]
            noise = float(rng.choice([0.25, 0.5, 1.0]))
            x, y = gen_power_pattern(pattern, noise, 200, int(rng.integers(2**31)))
            copulas.append(empirical_copula_from_data(x, rng.permutation(y) if i % 2 else y, 12))
        spec = tfdc_power_targets(m=12, T_ref=4000, seed=0)
        rs, cs, _ = problems(copulas, spec)
        closed = sinkhorn_values_batch(rs, cs, spec.cost, spec.cfg).reshape(8, 7)[:, 1:]
        monkeypatch.setattr(transport, "_close_deficits",
                            lambda er, ec, m: [(0.0, None, None)] * len(er))
        unclosed = sinkhorn_values_batch(rs, cs, spec.cost, spec.cfg).reshape(8, 7)[:, 1:]
        monkeypatch.undo()
        assert np.any(unclosed.argmin(axis=1) != closed.argmin(axis=1))
        assert np.array_equal(tfdc(copulas, spec), fully_closed_tfdc(copulas, spec))

    def test_closes_fewer_deficits(self, monkeypatch):
        # A power-spec batch skips closure LPs. `sinkhorn_values_batch`, one
        # group per problem, closes every deficit that the rule sends to an
        # LP: not at noise level, and a pruned support within the limit.
        spec = tfdc_power_targets(m=12, T_ref=4000, seed=0)
        copulas = power_copulas(8, seed=6)
        rs, cs, _ = problems(copulas, spec)
        solve_lp = transport._lp_closure
        calls = []

        def counting(*args):
            calls.append(1)
            return solve_lp(*args)

        monkeypatch.setattr(transport, "_lp_closure", counting)
        tfdc(copulas, spec)
        screened = len(calls)
        calls.clear()
        sinkhorn_values_batch(rs, cs, spec.cost, spec.cfg)
        full = len(calls)
        out = transport._sinkhorn_many(
            np.stack([h.mass for h in rs]), np.stack([h.mass for h in cs]), spec.cost, spec.cfg)
        to_lp = 0
        for er, ec in zip(out.err_r, out.err_c):
            s_r, s_c = er.sum(), ec.sum()
            if s_r > 1e-12 and s_c > 1e-12:
                support = np.count_nonzero(er > 1e-9 * s_r) * np.count_nonzero(ec > 1e-9 * s_c)
                to_lp += support <= transport._CLOSURE_LP_LIMIT
        assert 0 < screened < full == to_lp

    def test_failed_lp_of_a_skipped_problem_fails_nothing(self, monkeypatch):
        # An LP that would fail never runs for a problem that cannot be its
        # group's minimum. Closed one by one, the same LPs fail the batch,
        # which names them and gives NaN at them only.
        spec = tfdc_power_targets(m=12, T_ref=4000, seed=0)
        copulas = power_copulas(8, seed=7)
        rs, cs, groups = problems(copulas, spec)
        solve_lp = transport._lp_closure
        solved = []

        def recording(err_r, err_c, s_r, *args):
            solved.append(s_r)
            return solve_lp(err_r, err_c, s_r, *args)

        monkeypatch.setattr(transport, "_lp_closure", recording)
        full = sinkhorn_values_batch(rs, cs, spec.cost, spec.cfg)
        closed_all = set(solved)
        solved.clear()
        screened = sinkhorn_values_screened(rs, cs, spec.cost, spec.cfg, groups=groups)
        skipped = closed_all - set(solved)
        assert skipped
        scores = tfdc(copulas, spec)

        def failing(err_r, err_c, s_r, *args):
            if s_r in skipped:
                raise ConvergenceFailure("transport LP failed: stub")
            return solve_lp(err_r, err_c, s_r, *args)

        monkeypatch.setattr(transport, "_lp_closure", failing)
        again = sinkhorn_values_screened(rs, cs, spec.cost, spec.cfg, groups=groups)
        assert np.array_equal(again, screened)
        assert np.array_equal(tfdc(copulas, spec), scores)
        with pytest.raises(ConvergenceFailure, match="transport LP failed") as err:
            sinkhorn_values_batch(rs, cs, spec.cost, spec.cfg)
        failed = list(err.value.pair)
        assert failed == sorted(failed) and len(failed) == len(skipped)
        assert np.all(np.isinf(screened[failed]))
        value = np.asarray(err.value.value)
        assert np.array_equal(np.flatnonzero(np.isnan(value)), failed)
        ok = ~np.isnan(value)
        assert np.array_equal(value[ok], full[ok])


class TestPearson:
    def test_perfect_correlation(self, rng):
        x = rng.standard_normal(100)
        assert pearson(x, x) == 1.0
        assert pearson(x, -x) == -1.0

    def test_bivariate_normal_half(self):
        rng = np.random.default_rng(77)
        z = rng.standard_normal((100_000, 2))
        y = 0.5 * z[:, 0] + np.sqrt(1 - 0.25) * z[:, 1]
        # sampling sd of r is about (1 - rho^2)/sqrt(T) = 0.0024; 3 sigma < 0.01
        assert abs(pearson(z[:, 0], y) - 0.5) < 0.01

    def test_constant_degenerate(self):
        with pytest.raises(DegenerateColumn):
            pearson(np.ones(10), np.arange(10.0))


class TestSpearman:
    def test_monotone_invariance(self, rng):
        x = rng.standard_normal(200)
        assert spearman(x, np.exp(x)) == 1.0
        assert spearman(x, -x) == -1.0

    def test_agrees_with_copula_quadrature(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(1000)
        y = 0.6 * x + 0.8 * rng.standard_normal(1000)
        via_copula = spearman_from_copula(empirical_copula_from_data(x, y, 32))
        assert abs(via_copula - spearman(x, y)) < 0.05


class TestDistanceCorrelation:
    def test_identity(self, rng):
        x = rng.standard_normal(200)
        assert abs(distance_correlation(x, x) - 1.0) < 1e-12

    def test_null_small(self):
        rng = np.random.default_rng(15)
        val = distance_correlation(rng.standard_normal(500), rng.standard_normal(500))
        assert val < 0.15

    def test_detects_even_dependence(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, size=500)
        assert distance_correlation(x, x**2) > 0.1
        assert abs(pearson(x, x**2)) < 0.1  # invisible to linear correlation

    def test_preconditions(self):
        with pytest.raises(InvalidData):
            distance_correlation(np.arange(3.0), np.arange(3.0))
        with pytest.raises(DegenerateColumn):
            distance_correlation(np.ones(10), np.arange(10.0))


class TestRdc:
    def test_identical_inputs_share_features(self, rng):
        x = rng.standard_normal(300)
        assert rdc(x, x, seed=3) >= 0.99

    def test_null_moderate(self):
        rng = np.random.default_rng(21)
        assert rdc(rng.standard_normal(500), rng.standard_normal(500), seed=4) < 0.3

    def test_monotone_transform_bit_equal(self, rng):
        x = rng.standard_normal(300)
        y = rng.standard_normal(300)
        assert rdc(x, y, seed=5) == rdc(np.exp(x), y**3, seed=5)

    def test_symmetry(self, rng):
        x = rng.standard_normal(300)
        y = x + rng.standard_normal(300)
        # shared projection matrix: only SVD rounding distinguishes the orders
        assert abs(rdc(x, y, seed=6) - rdc(y, x, seed=6)) < 1e-12

    def test_needs_more_samples_than_features(self):
        with pytest.raises(InvalidData):
            rdc(np.arange(10.0), np.arange(10.0), k=20)
