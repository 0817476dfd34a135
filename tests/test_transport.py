import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.special import logsumexp

from conftest import dense_cost, random_histogram, random_sample_copula
from coptrans import (
    ConvergenceFailure,
    CopulaHistogram,
    GroundCost,
    InvalidData,
    InvalidParameter,
    OracleTooLarge,
    SinkhornConfig,
    default_lambda,
    empirical_copula_from_data,
    exact_ot,
    pairwise_distance_matrix,
    reference_copula,
    sinkhorn_distance,
    wasserstein_barycenter,
)
from coptrans import transport
from coptrans.transport import (
    _close_deficits,
    _kernel,
    _lex_swap_mask,
    _log_kernel_apply,
    _support_cost,
    _transport_lp,
    diagonal_lower_bound,
    sinkhorn_values_batch,
    sinkhorn_values_screened,
)


def point_mass(m, i, j):
    g = np.zeros((m, m))
    g[i, j] = 1.0
    return CopulaHistogram(g)


def dense_plan(plan):
    """Materialize a stored TransportPlan as its m^2-by-m^2 matrix (small grids only)."""
    m = plan.m
    if m > 40:
        raise InvalidParameter(f"dense plan for m={m} would need m^4 entries")
    lk = -plan.lam * GroundCost(m).axis_cost
    four = (plan.log_u[:, :, None, None] + lk[:, None, :, None]
            + lk[None, :, None, :] + plan.log_v[None, None, :, :])
    dense = np.exp(four).reshape(m * m, m * m)
    s = plan.err_r.sum()
    if s > 0.0:
        if plan.correction is None:
            dense = dense + np.outer(plan.err_r.ravel(), plan.err_c.ravel()) / s
        else:
            idx_r, idx_c, small = plan.correction
            dense[np.ix_(idx_r, idx_c)] += small
    return dense


def mixed_convergence_pairs():
    """Twelve m=8 (source, destination) pairs and a config at which, solved
    alone, pairs 5 and 6 converge and every other pair fails: six pairs of
    sample copulas with y = x + noise, then six of random histograms."""
    rng = np.random.default_rng(5)
    m = 8

    def sample_copula():
        x = rng.uniform(size=200)
        return empirical_copula_from_data(x, x + 0.3 * rng.standard_normal(200), m)

    pairs = ([(sample_copula(), sample_copula()) for _ in range(6)]
             + [(random_histogram(rng, m), random_histogram(rng, m)) for _ in range(6)])
    return pairs, GroundCost(m), SinkhornConfig(lam=default_lambda(m), max_iter=200, tol=1e-6)


def as_bytes(result):
    """Every array of a nested result as (dtype, shape, bytes), so that two
    results compare equal only when they are equal bit for bit."""
    if isinstance(result, (tuple, list)):
        return [as_bytes(part) for part in result]
    if result is None or isinstance(result, int):
        return result
    a = np.asarray(result)
    return a.dtype.str, a.shape, a.tobytes()


def dual_potentials(plan, int_cost):
    """Potentials u, v with u_i + v_j <= int_cost[i, j], equal where plan > 0.

    Bellman-Ford on the residual graph: row i -> column j at int_cost[i, j],
    and column j -> row i at -int_cost[i, j] where the plan moves mass.
    Integer costs keep the sums exact. Returns None when the plan's support
    holds a negative cycle, i.e. when no such potentials exist.
    """
    dr, dc = np.zeros(plan.shape[0]), np.zeros(plan.shape[1])
    for _ in range(sum(plan.shape) + 1):
        ndc = np.minimum(dc, (dr[:, None] + int_cost).min(axis=0))
        ndr = np.minimum(dr, np.where(plan > 0, ndc[None, :] - int_cost, np.inf).min(axis=1))
        if np.array_equal(ndc, dc) and np.array_equal(ndr, dr):
            return -dr, dc
        dr, dc = ndr, ndc
    return None


def reference_log_kernel_apply(lk, lw, lk_first=None):
    """The separable log-kernel application as the solver first wrote it.

    exp(lk) on every contraction, no flushing of subnormal kernel entries and
    an unclamped exact log-sum-exp where the shifted product underflowed.
    The package's faster version must return the same bits.
    """
    def lse(a):
        amax = np.max(a, axis=-1, keepdims=True)
        amax_safe = np.where(np.isfinite(amax), amax, 0.0)
        with np.errstate(divide="ignore"):
            out = np.log(np.sum(np.exp(a - amax_safe), axis=-1))
        return out + np.squeeze(amax_safe, axis=-1)

    def contract(lk, lw):
        s = np.max(lw, axis=-1, keepdims=True)
        finite = np.isfinite(s)
        s = np.where(finite, s, 0.0)
        prod = np.exp(lw - s) @ np.exp(lk)
        with np.errstate(divide="ignore"):
            out = np.log(prod) + s
        redo = np.nonzero((prod < 1e-250) & finite)
        if redo[0].size:
            out[redo] = lse(lw[redo[:-1]] + lk[redo[-1]])
        return out

    inner = contract(lk, np.ascontiguousarray(lw))
    outer = contract(lk if lk_first is None else lk_first,
                     np.ascontiguousarray(np.swapaxes(inner, -1, -2)))
    return np.ascontiguousarray(np.swapaxes(outer, -1, -2))


def w2_squared_1d(pos_r, w_r, pos_c, w_c):
    """Exact 1-D squared-W2 by quantile matching over merged CDF breakpoints."""
    cr = np.cumsum(w_r)
    cc = np.cumsum(w_c)
    qs = np.unique(np.concatenate([[0.0], cr, cc]))
    mids = (qs[:-1] + qs[1:]) / 2.0
    ir = np.searchsorted(cr, mids)
    ic = np.searchsorted(cc, mids)
    return float(np.sum((qs[1:] - qs[:-1]) * (pos_r[ir] - pos_c[ic]) ** 2))


class TestGroundCost:
    def test_exact_entries(self):
        m = 4
        M = dense_cost(m)
        # flat index (p, q) -> p*m + q
        assert M[0, 0] == 0.0
        assert M[0, 1] == 1.0 / 16.0          # (0,0) -> (0,1)
        assert M[0, m] == 1.0 / 16.0          # (0,0) -> (1,0)
        assert M[0, m * m - 1] == 2 * 9 / 16  # (0,0) -> (3,3)
        assert np.array_equal(M, M.T)
        assert np.all(np.diag(M) == 0.0)

    def test_sqrt_cost_is_metric(self):
        E = np.sqrt(dense_cost(3))
        n = E.shape[0]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert E[i, k] <= E[i, j] + E[j, k] + 1e-12

    def test_separable_kernel_matches_dense(self, rng):
        m = 6
        cost = GroundCost(m)
        lam = 37.0
        k1 = np.exp(-lam * cost.axis_cost)
        k_dense = np.exp(-lam * dense_cost(m))
        for _ in range(5):
            w = rng.uniform(size=(m, m))
            sep = k1 @ w @ k1
            dense = (k_dense @ w.ravel()).reshape(m, m)
            assert np.abs(sep - dense).max() < 1e-10

    def test_log_kernel_apply_matches_dense(self, rng):
        m = 5
        cost = GroundCost(m)
        lam = 800.0
        lk = -lam * cost.axis_cost
        lw = rng.standard_normal((m, m))
        lw[0, :] = -np.inf
        dense = np.log(np.exp(-lam * dense_cost(m)) @ np.exp(lw).ravel()).reshape(m, m)
        assert np.abs(_log_kernel_apply(_kernel(lk), lw) - dense).max() < 1e-10

        # At the default sharpness the kernel underflows a few cells away, so
        # point-mass-like weights leave entries for the exact fallback.
        m = 12
        cost = GroundCost(m)
        lk = -default_lambda(m) * cost.axis_cost
        lws = np.log(rng.gamma(0.5, size=(5, m, m)))
        lws[0] = -700.0 + rng.standard_normal((m, m))
        lws[0, 2, 9] = 0.0
        lws[1] = -np.inf
        lws[1, 11, 0] = 0.0
        lws[2, 4, :] = -np.inf
        lws[2, :, 7] = -np.inf
        lws[3] = -np.inf
        k = _kernel(lk)
        out = _log_kernel_apply(k, lws)
        for lw, got in zip(lws, out):
            dense = logsumexp(-default_lambda(m) * dense_cost(m) + lw.ravel(), axis=1)
            dense = dense.reshape(m, m)
            assert np.array_equal(np.isfinite(got), np.isfinite(dense))
            fin = np.isfinite(dense)
            scale = np.maximum(1.0, np.abs(dense[fin]))
            assert np.all(np.abs(got[fin] - dense[fin]) <= 1e-12 * scale)
        assert np.any(np.isfinite(out[0]) & (out[0] < np.log(1e-250)))
        assert np.all(out[3] == -np.inf)
        # each slice's bits are those of the slice solved on its own
        for b in range(len(lws)):
            assert np.array_equal(out[b], _log_kernel_apply(k, lws[b]))
            assert np.array_equal(out[b:b + 1], _log_kernel_apply(k, lws[b:b + 1]))

    def test_log_kernel_apply_matches_reference_bitwise(self, rng):
        def weights(m):
            lws = np.log(rng.gamma(0.5, size=(8, m, m)))
            lws[1][rng.uniform(size=(m, m)) < 0.4] = -np.inf   # empty cells
            lws[2, 3, :] = -np.inf                             # an empty row
            lws[2, :, m - 2] = -np.inf                         # an empty column
            lws[3] = -np.inf                                   # an empty slice
            lws[4] = -np.inf                                   # a corner point mass
            lws[4, 0, 0] = 0.0
            lws[5] = rng.uniform(size=(m, m))                  # each row's mass in one cell,
            lws[5, :, 0] = 720.0                               # the rest far below it
            lws[6] = -40.0 * rng.uniform(size=(m, m))
            lws[6, :, :m // 2] = -np.inf                       # half the grid empty
            return lws

        cases = []
        m = 24
        # the anneal's middle stage at m=24: exp(lk) is subnormal 17 steps out
        lk = -2.5 * m * m * GroundCost(m).axis_cost
        assert np.any((np.exp(lk) > 0.0) & (np.exp(lk) < np.finfo(float).tiny))
        cases.append((lk, weights(m)))
        for m in (10, 12, 24):
            cases.append((-default_lambda(m) * GroundCost(m).axis_cost, weights(m)))
        deep = False
        for lk, lws in cases:
            m = lk.shape[0]
            with np.errstate(divide="ignore"):
                lkc = lk + np.log(GroundCost(m).axis_cost)  # -inf on the diagonal
            for lk1, lk2 in ((lk, None), (lkc, lk), (lk, lkc)):
                expected = reference_log_kernel_apply(lk1, lws, lk2)
                k1, k2 = _kernel(lk1), None if lk2 is None else _kernel(lk2)
                assert np.array_equal(_log_kernel_apply(k1, lws, k2), expected)
                for b in range(len(lws)):
                    assert np.array_equal(_log_kernel_apply(k1, lws[b], k2), expected[b])
                deep |= bool(np.any(np.isfinite(expected) & (expected < np.log(1e-250))))
        assert deep  # the exact fallback ran


class TestSinkhornDistance:
    def test_identical_marginals(self, rng):
        h = random_histogram(rng, 8)
        cost = GroundCost(8)
        cfg = SinkhornConfig(lam=default_lambda(8))
        value, plan, _ = sinkhorn_distance(h, h, cost, cfg)
        dense = dense_plan(plan)
        assert np.abs(dense.sum(axis=1) - h.mass.ravel()).max() < 1e-9
        assert np.abs(dense.sum(axis=0) - h.mass.ravel()).max() < 1e-9
        assert value >= 0.0
        # self-value is minimal against a handful of other targets
        for _ in range(5):
            other = random_histogram(rng, 8)
            v_other, _, _ = sinkhorn_distance(h, other, cost, cfg)
            assert value <= v_other + 1e-12

    def test_extreme_grids_two_bins(self):
        m = 2
        up = reference_copula("frechet_upper", m)
        dn = reference_copula("frechet_lower", m)
        # every unit of mass moves exactly one grid step of squared length
        # (1/2)^2, so any feasible plan costs 0.25: value is exact
        value, _, _ = sinkhorn_distance(up, dn, GroundCost(m), SinkhornConfig(lam=2000.0))
        assert abs(value - 0.25) < 0.25 * 0.02

    def test_point_masses_unique_plan(self):
        m = 7
        a = point_mass(m, 0, 0)
        b = point_mass(m, m - 1, m - 1)
        value, plan, _ = sinkhorn_distance(a, b, GroundCost(m), SinkhornConfig(lam=5.0))
        assert abs(value - 2 * (m - 1) ** 2 / m**2) < 1e-9
        dense = dense_plan(plan)
        assert abs(dense[0, m * m - 1] - 1.0) < 1e-9

    def test_value_upper_bounds_exact(self, rng):
        cost = GroundCost(8)
        for _ in range(5):
            a = random_histogram(rng, 8)
            b = random_histogram(rng, 8)
            v, _, _ = sinkhorn_distance(a, b, cost, SinkhornConfig(lam=default_lambda(8)))
            ev, _ = exact_ot(a, b, cost)
            assert v >= ev - 1e-12

    def test_plan_value_consistent_with_dense(self, rng):
        m = 6
        a = random_histogram(rng, m)
        b = random_histogram(rng, m)
        cost = GroundCost(m)
        value, plan, _ = sinkhorn_distance(a, b, cost, SinkhornConfig(lam=default_lambda(m)))
        dense = dense_plan(plan)
        assert abs(float(np.sum(dense * dense_cost(m))) - value) < 1e-10
        assert abs(dense.sum() - 1.0) < 1e-9

    def test_plan_value_consistent_with_dense_where_kernel_underflows(self, rng):
        # At m=12 and the default sharpness the kernel's tails underflow, so
        # the plan value runs through the exact fallback of the contraction.
        m = 12
        cost = GroundCost(m)
        cfg = SinkhornConfig(lam=default_lambda(m))
        pool = [point_mass(m, 0, 0), point_mass(m, 11, 4), point_mass(m, 5, 6),
                random_sample_copula(rng, m, T=60), random_sample_copula(rng, m, T=60),
                random_histogram(rng, m), random_histogram(rng, m)]
        for i, a in enumerate(pool):
            for b in pool[i + 1:]:
                for r, c in ((a, b), (b, a)):
                    value, plan, _ = sinkhorn_distance(r, c, cost, cfg)
                    dense = float(np.sum(dense_plan(plan) * dense_cost(m)))
                    assert abs(value - dense) <= 1e-11 * dense

    def test_plain_path_matches_log_path(self, rng):
        # The plain path is textbook dense Sinkhorn, u = a / (K v) and
        # v = b / (K^T u), run here to a far tighter residual than the solver.
        m = 6
        a = random_histogram(rng, m, concentration=2.0)
        b = random_histogram(rng, m, concentration=2.0)
        cost = GroundCost(m)
        lam = 100.0
        v_log, _, _ = sinkhorn_distance(a, b, cost, SinkhornConfig(lam=lam, tol=1e-8))
        K = np.exp(-lam * dense_cost(m))
        ra, rb = a.mass.ravel(), b.mass.ravel()
        v = np.ones(m * m)
        for _ in range(100000):
            u = ra / (K @ v)
            v = rb / (K.T @ u)
            if np.abs(u * (K @ v) - ra).max() < 1e-14:
                break
        else:
            pytest.fail("dense Sinkhorn did not converge")
        v_plain = float(np.sum(u[:, None] * K * v[None, :] * dense_cost(m)))
        assert abs(v_log - v_plain) < 1e-6

    def test_convergence_failure_carries_diagnostics(self, rng):
        a = random_histogram(rng, 10)
        b = random_histogram(rng, 10)
        with pytest.raises(ConvergenceFailure) as err:
            sinkhorn_distance(a, b, GroundCost(10),
                              SinkhornConfig(lam=default_lambda(10), max_iter=3, tol=1e-12))
        assert err.value.residual is not None
        assert err.value.value is not None

    def test_resolution_mismatch(self, rng):
        with pytest.raises(InvalidData):
            sinkhorn_distance(random_histogram(rng, 4), random_histogram(rng, 5),
                              GroundCost(4), SinkhornConfig(lam=10.0))

    def test_config_rejects_lam_outside_positive_finite(self):
        # an infinite lam used to pass and then grow the anneal schedule
        # without bound
        for lam in (np.inf, np.nan, 0.0, -1.0):
            with pytest.raises(InvalidParameter):
                SinkhornConfig(lam=lam)


class TestBatchedValues:
    def test_batch_mates_order_and_chunking_change_no_bit(self, rng):
        # m=4: 78 problems, so the batch crosses the 64-problem chunk
        # boundary. m=12: problems freeze at different iterations, so the
        # batch shrinks as it runs, and the point masses drive the kernel's
        # underflow fallback. m=24: the anneal passes lam=1440, where the
        # kernel's subnormal entries are flushed, and corner point masses
        # drive the fallback there.
        pools = {
            4: ([random_histogram(rng, 4) for _ in range(6)]
                + [random_sample_copula(rng, 4, T=24) for _ in range(4)]
                + [point_mass(4, 0, 0), point_mass(4, 3, 1)]),
            12: ([random_histogram(rng, 12) for _ in range(2)]
                 + [random_sample_copula(rng, 12, T=60) for _ in range(3)]
                 + [point_mass(12, 0, 0), point_mass(12, 7, 10)]),
            24: ([random_sample_copula(rng, 24, T=200) for _ in range(2)]
                 + [point_mass(24, 0, 0), point_mass(24, 23, 23), point_mass(24, 0, 23)]),
        }
        for m, pool in pools.items():
            cost = GroundCost(m)
            cfg = SinkhornConfig(lam=default_lambda(m))
            rs = [pool[i] for i in range(len(pool)) for j in range(i, len(pool))]
            cs = [pool[j] for i in range(len(pool)) for j in range(i, len(pool))]
            batched = sinkhorn_values_batch(rs, cs, cost, cfg)
            swapped = sinkhorn_values_batch(cs, rs, cost, cfg)
            single = [sinkhorn_distance(r, c, cost, cfg)[0] for r, c in zip(rs, cs)]
            assert np.array_equal(batched, swapped)
            assert np.array_equal(batched, single)

    def test_failure_names_failing_problems_of_every_chunk(self, rng):
        # 70 problems are two chunks. A point mass against itself converges
        # within this budget, and a random pair reaches the last anneal stage
        # but does not converge there, so both chunks fail.
        m = 6
        cost = GroundCost(m)
        cfg = SinkhornConfig(lam=default_lambda(m), max_iter=100, tol=1e-8)
        a = point_mass(m, 2, 3)
        rs, cs = [a] * 70, [a] * 70
        for b in (5, 66):
            rs[b], cs[b] = random_histogram(rng, m), random_histogram(rng, m)
        with pytest.raises(ConvergenceFailure) as err:
            sinkhorn_values_batch(rs, cs, cost, cfg)
        assert err.value.pair == (5, 66)
        value = err.value.value
        assert value.shape == (70,) and np.all(np.isnan(value[[5, 66]]))
        converged = [b for b in range(70) if b not in (5, 66)]
        assert np.array_equal(value[converged], sinkhorn_values_batch(
            [rs[b] for b in converged], [cs[b] for b in converged], cost, cfg))
        for b in (5, 66):
            with pytest.raises(ConvergenceFailure) as alone:
                sinkhorn_values_batch([rs[b]], [cs[b]], cost, cfg)
            assert np.isnan(alone.value.value[0])
            assert alone.value.residual <= err.value.residual

    def test_failed_problem_leaves_converged_mates_their_bits(self):
        # A chunk with a failed problem used to stop before rounding, which
        # gave its converged mates the costs of their unrounded plans: below
        # the exact optimum, so the cost of no feasible plan.
        pairs, cost, cfg = mixed_convergence_pairs()
        rs, cs = zip(*(pairs[b] for b in (5, 6, 0)))
        with pytest.raises(ConvergenceFailure) as err:
            sinkhorn_values_batch(rs, cs, cost, cfg)
        assert err.value.pair == (2,)
        value = err.value.value
        assert np.array_equal(value[:2], sinkhorn_values_batch(rs[:2], cs[:2], cost, cfg))
        for v, r, c in zip(value[:2], rs, cs):
            assert v >= exact_ot(r, c, cost)[0]
        assert np.isnan(value[2])

    def test_slow_batch_mate_leaves_last_stage_budget_alone(self):
        # Alone, p runs 50 warm-up iterations and then 140 of the 150 left to
        # it, and q runs 70 warm-up iterations. Charging q's warm-up to p's
        # budget would leave p 130 and fail it.
        rng = np.random.default_rng(10)
        p = [random_histogram(rng, 8, 2.0) for _ in range(2)]
        q = [random_histogram(rng, 8, 0.05) for _ in range(2)]
        cost = GroundCost(8)
        cfg = SinkhornConfig(lam=default_lambda(8), tol=1e-6, max_iter=200)
        alone = [sinkhorn_distance(r, c, cost, cfg)[0] for r, c in (p, q)]
        assert np.array_equal(sinkhorn_values_batch([p[0], q[0]], [p[1], q[1]], cost, cfg),
                              alone)

    @pytest.mark.parametrize("max_iter", [30, 45])
    def test_max_iter_bounds_iterations_over_all_stages(self, max_iter):
        # Alone, p runs 20 iterations in its first warm-up stage and then
        # spends the rest of its budget in the second, so it never runs at
        # cfg.lam. Each warm-up stage used to get min(1000, max_iter) and the
        # last at least one: 51 iterations for both budgets.
        rng = np.random.default_rng(10)
        p = [random_histogram(rng, 8, 2.0) for _ in range(2)]
        cfg = SinkhornConfig(lam=default_lambda(8), tol=1e-6, max_iter=max_iter)
        with pytest.raises(ConvergenceFailure, match=f"after {max_iter} iterations") as err:
            sinkhorn_distance(p[0], p[1], GroundCost(8), cfg)
        assert err.value.residual == np.inf

    def test_budget_spent_before_the_last_stage_gives_no_value(self):
        # p, as above, never runs at cfg.lam, so its entry is NaN and not the
        # near-zero cost of warm-up potentials under the last kernel; a
        # point mass against itself converges beside it and keeps its value
        rng = np.random.default_rng(10)
        p = [random_histogram(rng, 8, 2.0) for _ in range(2)]
        a = point_mass(8, 2, 3)
        cost = GroundCost(8)
        cfg = SinkhornConfig(lam=default_lambda(8), tol=1e-6, max_iter=45)
        with pytest.raises(ConvergenceFailure) as err:
            sinkhorn_values_batch([p[0], a], [p[1], a], cost, cfg)
        assert err.value.pair == (0,) and err.value.residual == np.inf
        assert np.isnan(err.value.value[0])
        assert err.value.value[1] == sinkhorn_values_batch([a], [a], cost, cfg)[0]

    def test_scaling_loop_checks_each_problem_at_its_own_cap(self, rng):
        # a cap off the every-10 schedule is checked for its own problem only
        m = 6
        R = np.stack([random_histogram(rng, m).mass for _ in range(2)])
        C = np.stack([random_sample_copula(rng, m, T=30).mass for _ in range(2)])
        lr, lc = transport._safe_log(R), transport._safe_log(C)
        k = _kernel(-default_lambda(m) * GroundCost(m).axis_cost)
        budget = np.array([37, 500])
        both = transport._scaling_loop(k, lr, lc, R, C, 1e-9, budget, np.zeros_like(R),
                                       np.zeros_like(C))
        assert both[3][0] == 37 < both[3][1]
        for b in range(2):
            alone = transport._scaling_loop(k, lr[b:b + 1], lc[b:b + 1], R[b:b + 1],
                                            C[b:b + 1], 1e-9, budget[b], np.zeros_like(R[:1]),
                                            np.zeros_like(C[:1]))
            assert as_bytes([a[b:b + 1] for a in both]) == as_bytes(alone)

    def test_scaling_loop_exits_match_lone_solves(self, rng):
        # one batch through every exit: a zero budget, an off-schedule cap,
        # a convergence and three stalls, each frozen at its own iteration
        m = 6
        R = np.stack([random_histogram(rng, m).mass for _ in range(6)])
        C = np.stack([random_sample_copula(rng, m, T=30).mass for _ in range(6)])
        lr, lc = transport._safe_log(R), transport._safe_log(C)
        k = _kernel(-default_lambda(m) * GroundCost(m).axis_cost)
        budget = np.array([0, 37, 3000, 3000, 3000, 3000])

        def solve(rows):
            return transport._scaling_loop(k, lr[rows], lc[rows], R[rows], C[rows], 1e-13,
                                           budget[rows], np.zeros_like(R[rows]),
                                           np.zeros_like(C[rows]))

        *_, residuals, iters, stalled = solve(np.arange(6))
        assert list(iters) == [0, 37, 120, 1250, 130, 210]
        assert list(stalled) == [False, False, True, False, True, True]
        assert residuals[3] < 1e-13 < residuals[[1, 2, 4, 5]].min()
        alone = [as_bytes(solve([b])) for b in range(6)]
        # reversed, each freeze drops a different position of the open rows
        for order in (np.arange(6), np.arange(6)[::-1]):
            batch = solve(order)
            for j, b in enumerate(order):
                assert as_bytes([a[j:j + 1] for a in batch]) == alone[b]

    def test_scaling_loop_runs_nothing_for_a_problem_without_budget(self, rng):
        # a zero cap keeps the problem as it came, whatever its batch mate runs
        m = 6
        R = np.stack([random_histogram(rng, m).mass for _ in range(2)])
        C = np.stack([random_sample_copula(rng, m, T=30).mass for _ in range(2)])
        lr, lc = transport._safe_log(R), transport._safe_log(C)
        k = _kernel(-default_lambda(m) * GroundCost(m).axis_cost)
        # one problem without budget, then both
        for budget, ran in ((np.array([0, 500]), [False, True]), (0, [False, False])):
            lu, lv, residuals, iters, stalled = transport._scaling_loop(
                k, lr, lc, R, C, 1e-6, budget, np.zeros_like(R), np.zeros_like(C))
            assert list(iters > 0) == ran and not stalled[0]
            for b in np.flatnonzero(np.logical_not(ran)):
                assert not lu[b].any() and not lv[b].any() and residuals[b] == np.inf

    def test_nan_residual_names_failing_problem(self, rng, monkeypatch):
        # A NaN residual must fail its problem, not pass as converged. No
        # known input drives the solver to one, so a wrapped loop plants it
        # in the second chunk; a real NaN never stalls.
        real_loop = transport._scaling_loop

        def nan_loop(*args):
            lu, lv, residuals, it, stalled = real_loop(*args)
            if len(residuals) == 6:
                residuals[2] = np.nan
                stalled[2] = False
            return lu, lv, residuals, it, stalled

        monkeypatch.setattr(transport, "_scaling_loop", nan_loop)
        m = 4
        cost, cfg = GroundCost(m), SinkhornConfig(lam=default_lambda(m))
        rs = [random_histogram(rng, m) for _ in range(70)]
        cs = [random_histogram(rng, m) for _ in range(70)]
        with pytest.raises(ConvergenceFailure) as err:
            sinkhorn_values_batch(rs, cs, cost, cfg)
        assert err.value.pair == (66,)

    def test_scaling_loop_reuses_kernel_applications(self, rng, monkeypatch):
        # one application before the loop, then one per half-step; the
        # residual checks apply the kernel no further
        m = 6
        cost = GroundCost(m)
        R = np.stack([random_histogram(rng, m).mass for _ in range(4)])
        C = np.stack([random_sample_copula(rng, m, T=30).mass for _ in range(4)])
        calls = 0

        def counting_kernel(k, lw):
            nonlocal calls
            calls += 1
            return _log_kernel_apply(k, lw)

        monkeypatch.setattr(transport, "_log_kernel_apply", counting_kernel)
        lr, lc = transport._safe_log(R), transport._safe_log(C)
        k = _kernel(-default_lambda(m) * cost.axis_cost)
        *_, iters, _ = transport._scaling_loop(k, lr, lc, R, C, 1e-6, 500, np.zeros_like(R),
                                               np.zeros_like(C))
        it = iters.max()
        assert it > transport._CHECK_EVERY
        assert calls == 1 + 2 * it

    def test_concurrent_solves_match_serial(self, rng):
        # two threads keep batches at m=10 and m=24, so two different
        # kernels, in flight at once
        jobs = []
        for m in (10, 24):
            R = np.stack([random_sample_copula(rng, m, T=60).mass for _ in range(4)])
            C = np.stack([random_histogram(rng, m).mass for _ in range(4)])
            jobs.append((R, C, GroundCost(m), SinkhornConfig(lam=default_lambda(m))))
        serial = [transport._sinkhorn_many(*job) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(transport._sinkhorn_many, *job) for job in jobs * 3]
                results = [f.result(timeout=300) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for i, got in enumerate(results):
            want = serial[i % 2]
            for field in ("values", "log_u", "log_v", "err_r", "err_c", "iters", "residuals"):
                assert np.array_equal(getattr(got, field), getattr(want, field))
            assert as_bytes(got.corrections) == as_bytes(want.corrections)
            assert list(got.reasons) == list(want.reasons)

    def test_lex_swap_mask_matches_loop(self, rng):
        R = rng.integers(0, 3, size=(40, 3, 3)).astype(float)
        C = rng.integers(0, 3, size=(40, 3, 3)).astype(float)
        C[::5] = R[::5]                 # equal grids never swap
        expected = []
        for r, c in zip(R.reshape(40, -1), C.reshape(40, -1)):
            diff = np.flatnonzero(r != c)
            expected.append(bool(diff.size) and r[diff[0]] > c[diff[0]])
        assert _lex_swap_mask(R, C).tolist() == expected

    def test_convergence_failure_names_failing_problems(self, rng):
        m = 6
        cost = GroundCost(m)
        cfg = SinkhornConfig(lam=default_lambda(m), max_iter=40, tol=1e-8)
        # a point mass against itself converges within this budget, 40
        # iterations over its 3 stages, so only the random pair at position
        # 66 (in the second chunk) fails
        rs = [point_mass(m, 2, 3)] * 70
        cs = list(rs)
        rs[66], cs[66] = random_histogram(rng, m), random_histogram(rng, m)
        with pytest.raises(ConvergenceFailure) as err:
            sinkhorn_values_batch(rs, cs, cost, cfg)
        assert err.value.pair == (66,)


def tiny_mass_instance(seed, m=10):
    """Closure-LP supports on an m-by-m grid with normalized masses down to ~1e-10."""
    rng = np.random.default_rng(seed)
    nr, nc = rng.integers(20, 50), rng.integers(40, 90)
    sup_r = np.sort(rng.choice(m * m, nr, replace=False))
    sup_c = np.sort(rng.choice(m * m, nc, replace=False))
    masses = []
    for n in (nr, nc):
        w = rng.gamma(0.3, size=n)
        idx = rng.choice(n, 3, replace=False)
        w[idx] = 10 ** rng.uniform(-9, -7.5, 3)
        masses.append(w / w.sum())
    return sup_r, sup_c, masses[0], masses[1]


def linprog_transport_lp(sub_cost, r_sup, c_sup, tight):
    """`_transport_lp` through linprog, with the options it mirrors."""
    n_r, n_c = sub_cost.shape
    a_eq = np.zeros((n_r + n_c - 1, n_r, n_c))
    for i in range(n_r):
        a_eq[i, i, :] = 1.0
    for j in range(n_c - 1):
        a_eq[n_r + j, :, j] = 1.0
    options = {
        "primal_feasibility_tolerance": 1e-10,
        "dual_feasibility_tolerance": 1e-10,
    } if tight else {"presolve": False}
    res = linprog(sub_cost.ravel(), A_eq=a_eq.reshape(n_r + n_c - 1, -1),
                  b_eq=np.concatenate([r_sup, c_sup[:-1]]), bounds=(0, None),
                  method="highs", options=options)
    assert res.success, res.message
    return res.fun, res.x.reshape(n_r, n_c)


class TestDeficitClosure:
    def test_transport_lp_matches_linprog_bitwise(self, monkeypatch):
        # _transport_lp calls HiGHS through scipy's private binding with the
        # model and options linprog would pass; a scipy or HiGHS update that
        # moves that binding shows here first.
        m = 10
        instances = []
        for seed in (485, 902):
            sup_r, sup_c, r, c = tiny_mass_instance(seed, m)
            instances.append((_support_cost(sup_r, sup_c, m), r, c))
        # a 64-by-64 support, the largest the closure sends to the LP
        rng = np.random.default_rng(64)
        sup_r, sup_c = (np.sort(rng.choice(m * m, 64, replace=False)) for _ in range(2))
        assert sup_r.size * sup_c.size == transport._CLOSURE_LP_LIMIT
        r, c = (w / w.sum() for w in rng.gamma(0.5, size=(2, 64)))
        instances.append((_support_cost(sup_r, sup_c, m), r, c))
        # the closure LPs of seeded sample-copula solves
        solve_lp = transport._transport_lp
        closures = []

        def recording_lp(sub, a, b, tight=True):
            closures.append((sub, a, b))
            return solve_lp(sub, a, b, tight)

        monkeypatch.setattr(transport, "_transport_lp", recording_lp)
        for m, n_pairs in ((10, 4), (12, 3)):
            pairs = [(random_sample_copula(rng, m), random_sample_copula(rng, m))
                     for _ in range(n_pairs)]
            sinkhorn_values_batch(*zip(*pairs), GroundCost(m),
                                  SinkhornConfig(lam=default_lambda(m)))
        monkeypatch.undo()
        assert len(closures) >= 5
        for sub, a, b in instances + closures:
            for tight in (False, True):
                value, plan = _transport_lp(sub, a, b, tight=tight)
                oracle_value, oracle_plan = linprog_transport_lp(sub, a, b, tight)
                assert value == oracle_value
                assert np.array_equal(plan, oracle_plan)

    @pytest.mark.parametrize("tight", [False, True])
    def test_infeasible_lp_raises(self, tight):
        # a negative source mass: no nonnegative plan has these marginals
        with pytest.raises(ConvergenceFailure, match="transport LP failed"):
            _transport_lp(np.ones((2, 2)), np.array([1.5, -0.5]), np.array([0.5, 0.5]),
                          tight=tight)

    def test_lp_with_tiny_masses_rejected_by_presolve(self):
        # A 47-by-67 support: HiGHS presolve calls this LP infeasible, though
        # equal totals make any such LP feasible.
        m = 10
        sup_r, sup_c, r, c = tiny_mass_instance(485, m)
        sub = _support_cost(sup_r, sup_c, m)
        value, plan = _transport_lp(sub, r, c, tight=False)
        # The tight LP is no oracle at these masses (its presolve reads entries
        # near 1e-10 as zero), so optimality is checked by duality instead:
        # potentials that are dual feasible and tight on the plan's support
        # bound the optimum from below by r.u + c.v.
        potentials = dual_potentials(plan, np.rint(sub * m * m))
        assert potentials is not None
        u, v = potentials[0] / (m * m), potentials[1] / (m * m)
        assert abs(value - (r @ u + c @ v)) <= 1e-9 * value
        assert plan.min() > -1e-12
        assert np.abs(plan.sum(axis=1) - r).max() < 1e-9
        assert np.abs(plan.sum(axis=0) - c).max() < 1e-9

    def test_closure_plan_is_exactly_feasible(self):
        # HiGHS meets this instance's marginals only to its 1e-7 feasibility
        # tolerance (its plan is 7.4e-8 short of unit mass); the closure must
        # still return the cost of an exactly feasible plan.
        m, mass = 10, 3e-3
        sup_r, sup_c, r, c = tiny_mass_instance(902, m)
        err_r, err_c = np.zeros(m * m), np.zeros(m * m)
        err_r[sup_r], err_c[sup_c] = mass * r, mass * c
        s = err_r.sum()
        [(cost, (idx_r, idx_c, plan), _)] = _close_deficits(err_r.reshape(1, m, m),
                                                            err_c.reshape(1, m, m), m)
        # cells under a billionth of the deficit are pruned; the kept ones
        # carry the whole deficit mass
        a = err_r[idx_r] / err_r[idx_r].sum()
        b = err_c[idx_c] / err_c[idx_c].sum()
        sub = _support_cost(idx_r, idx_c, m)
        value, lp_plan = _transport_lp(sub, a, b, tight=False)
        assert np.abs(lp_plan.sum(axis=1) - a).max() > 1e-8
        assert plan.min() >= 0.0
        assert np.abs(plan.sum(axis=1) - s * a).max() <= 1e-15 * s
        assert np.abs(plan.sum(axis=0) - s * b).max() <= 1e-15 * s
        assert cost == np.sum(plan * sub)
        assert cost >= value * s

    def test_lp_closed_plans_have_exact_marginals_in_both_orders(self, rng):
        # A plan solved in the swapped orientation stores its LP closure
        # transposed; its dense plan must still describe the caller's
        # direction. At m=16 the deficit supports exceed _CLOSURE_LP_LIMIT,
        # so those plans are closed rank-one.
        closed = set()
        for m, T, n_pairs in ((8, 64, 8), (16, 400, 4)):
            cost = GroundCost(m)
            pairs = [(random_sample_copula(rng, m, T=T), random_sample_copula(rng, m, T=T))
                     for _ in range(n_pairs)]
            cfg = SinkhornConfig(lam=default_lambda(m))
            for a, b in pairs:
                for r, c in ((a, b), (b, a)):
                    value, plan, _ = sinkhorn_distance(r, c, cost, cfg)
                    if plan.correction is not None:
                        closure = "lp"
                    elif plan.err_r.sum() > 1e-12:
                        closure = "rank-one"
                    else:
                        continue
                    closed.add((closure, bool(_lex_swap_mask(r.mass[None], c.mass[None])[0])))
                    dense = dense_plan(plan)
                    assert np.abs(dense.sum(axis=1) - r.mass.ravel()).max() < 1e-11
                    assert np.abs(dense.sum(axis=0) - c.mass.ravel()).max() < 1e-11
                    assert abs(float(np.sum(dense * dense_cost(m))) - value) < 1e-10
        assert set(closed) == {(closure, swapped) for closure in ("lp", "rank-one")
                               for swapped in (False, True)}

    def test_lp_failure_reaches_batched_callers(self, rng, monkeypatch):
        # A failed closure LP names its problem, which batched callers remap
        # to their own positions.
        def failing_lp(*args, **kwargs):
            raise ConvergenceFailure("transport LP failed: stub")

        monkeypatch.setattr(transport, "_transport_lp", failing_lp)
        m = 6
        cost, cfg = GroundCost(m), SinkhornConfig(lam=default_lambda(m))
        # a point mass against itself leaves no deficit to close, so only the
        # random pair at position 66 (in the second chunk) reaches the LP
        a = point_mass(m, 2, 3)
        rs, cs = [a] * 70, [a] * 70
        rs[66], cs[66] = random_histogram(rng, m), random_histogram(rng, m)
        with pytest.raises(ConvergenceFailure, match="transport LP failed") as err:
            sinkhorn_values_batch(rs, cs, cost, cfg)
        assert err.value.pair == (66,)
        # every pair solved with the random histogram fails, its self-distance too
        with pytest.raises(ConvergenceFailure, match="transport LP failed") as err:
            pairwise_distance_matrix([a, a, rs[66], a], cost, cfg)
        assert err.value.pair == ((0, 2), (1, 2), (2, 2), (2, 3))

    def test_closure_failure_beside_a_scaling_failure_is_named(self, monkeypatch):
        # Pair 0 fails its scaling and pair 5 converges, and its deficit
        # goes to the LP. A chunk that failed its scaling used to raise
        # before any closure ran, so the LP failure went unnamed.
        pairs, cost, cfg = mixed_convergence_pairs()
        rs, cs = zip(*(pairs[b] for b in (0, 5)))
        with pytest.raises(ConvergenceFailure) as alone:
            sinkhorn_values_batch(rs[:1], cs[:1], cost, cfg)
        lp_calls = []

        def failing_lp(*args, **kwargs):
            lp_calls.append(1)
            raise ConvergenceFailure("transport LP failed: stub")

        monkeypatch.setattr(transport, "_transport_lp", failing_lp)
        with pytest.raises(ConvergenceFailure) as err:
            sinkhorn_values_batch(rs, cs, cost, cfg)
        assert len(lp_calls) == 1
        assert err.value.pair == (0, 1)
        assert np.all(np.isnan(err.value.value))
        assert err.value.residual == alone.value.residual
        assert str(err.value) == f"{alone.value}; transport LP failed: stub"

    def test_closures_do_not_depend_on_thread_count(self, rng, monkeypatch):
        # With one usable CPU every closure LP runs on the calling thread;
        # with four, helper threads solve some of them. The full return,
        # corrections included, must not move a bit.
        m = 10
        R = np.stack([random_sample_copula(rng, m).mass for _ in range(12)])
        C = np.stack([random_sample_copula(rng, m).mass for _ in range(12)])
        cost, cfg = GroundCost(m), SinkhornConfig(lam=default_lambda(m))
        solve_lp = transport._transport_lp
        solved_on = []

        def recording_lp(*args, **kwargs):
            solved_on.append(threading.current_thread())
            return solve_lp(*args, **kwargs)

        monkeypatch.setattr(transport, "_transport_lp", recording_lp)
        results, threads, lp_calls = {}, {}, {}
        for cpus in (1, 4):
            monkeypatch.setattr(transport, "_usable_cpus", lambda n=cpus: n)
            solved_on.clear()
            out = transport._sinkhorn_many(R, C, cost, cfg)
            results[cpus] = as_bytes(out)
            threads[cpus] = set(solved_on)
            lp_calls[cpus] = len(solved_on)
        assert len(solved_on) >= 8
        assert threads[1] == {threading.current_thread()}
        assert len(threads[4]) > 1
        assert results[1] == results[4]
        # Each LP is solved exactly once: a schedule that hands one LP to two
        # threads, or drops one, changes the count. A deficit goes to the LP
        # unless it is at noise level or its pruned support is too large.
        to_lp = 0
        for er, ec in zip(out.err_r, out.err_c):
            s_r, s_c = er.sum(), ec.sum()
            if s_r > 1e-12 and s_c > 1e-12:
                support = np.count_nonzero(er > 1e-9 * s_r) * np.count_nonzero(ec > 1e-9 * s_c)
                to_lp += support <= transport._CLOSURE_LP_LIMIT
        assert lp_calls[1] == lp_calls[4] == to_lp

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_lowest_failing_closure_is_named(self, rng, monkeypatch, cpus):
        # Two closure LPs of one chunk fail. The calling thread takes LPs
        # from the back and a helper from the front, but whichever thread
        # solved each, the failure names problems 3 and 7, in that order.
        def failing_lp(*args, **kwargs):
            raise ConvergenceFailure("transport LP failed: stub")

        monkeypatch.setattr(transport, "_transport_lp", failing_lp)
        monkeypatch.setattr(transport, "_usable_cpus", lambda: cpus)
        m = 6
        cost, cfg = GroundCost(m), SinkhornConfig(lam=default_lambda(m))
        # a point mass against itself leaves no deficit to close
        rs, cs = [point_mass(m, 2, 3)] * 10, [point_mass(m, 2, 3)] * 10
        for b in (3, 7):
            rs[b], cs[b] = random_histogram(rng, m), random_histogram(rng, m)
        with pytest.raises(ConvergenceFailure, match="transport LP failed") as err:
            sinkhorn_values_batch(rs, cs, cost, cfg)
        assert err.value.pair == (3, 7)

    def test_screen_keeps_a_tie_with_a_deficit_free_minimum(self, rng):
        # a point mass against itself leaves no deficit, so its closed value
        # equals its pre-closure cost; a bit-identical group mate ties with
        # the minimum and keeps its value, while a costlier mate is skipped
        m = 6
        cost, cfg = GroundCost(m), SinkhornConfig(lam=default_lambda(m))
        a, b = point_mass(m, 2, 3), random_histogram(rng, m)
        values = sinkhorn_values_screened([a, a, a], [a, a, b], cost, cfg, groups=[5, 5, 5])
        full = sinkhorn_values_batch([a, a, a], [a, a, b], cost, cfg)
        assert np.array_equal(values[:2], full[:2]) and values[2] == np.inf
        with pytest.raises(InvalidData):
            sinkhorn_values_screened([a, a], [a, a], cost, cfg, groups=[0])

    def test_usable_cpus_without_affinity_mask(self, monkeypatch):
        # where the platform has no affinity mask, the CPU count stands in
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert transport._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert transport._usable_cpus() == 1


class TestExactOt:
    def test_identical_inputs_zero(self, rng):
        h = random_histogram(rng, 6)
        value, plan = exact_ot(h, h, GroundCost(6))
        assert abs(value) < 1e-12
        assert np.abs(plan.sum(axis=1) - h.mass.ravel()).max() < 1e-9

    def test_extreme_grids_quarter(self):
        up = reference_copula("frechet_upper", 2)
        dn = reference_copula("frechet_lower", 2)
        value, _ = exact_ot(up, dn, GroundCost(2))
        assert abs(value - 0.25) < 1e-12

    def test_one_dimensional_row_case_vs_quantile_matching(self, rng):
        # all mass in a single grid row: the problem is 1-D along columns
        m = 9
        row = 4
        w_r = rng.gamma(1.0, size=m); w_r /= w_r.sum()
        w_c = rng.gamma(1.0, size=m); w_c /= w_c.sum()
        a = np.zeros((m, m)); a[row] = w_r
        b = np.zeros((m, m)); b[row] = w_c
        value, _ = exact_ot(CopulaHistogram(a), CopulaHistogram(b), GroundCost(m))
        positions = np.arange(m) / m
        oracle = w2_squared_1d(positions, w_r, positions, w_c)
        assert abs(value - oracle) < 1e-9

    def test_support_limit(self):
        class Fake:
            pass
        big = np.full((80, 80), 1.0 / 6400)
        h = CopulaHistogram(big)
        with pytest.raises(OracleTooLarge):
            exact_ot(h, h, GroundCost(80))

    def test_metric_triangle_inequality(self, rng):
        # with the Euclidean (non-squared) ground metric the optimum is a distance
        m = 5
        cost_sqrt = np.sqrt(dense_cost(m))
        hists = [random_histogram(rng, m) for _ in range(4)]
        d = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                if i < j:
                    d[i, j], _ = exact_ot(hists[i], hists[j], cost_sqrt)
                    d[j, i] = d[i, j]
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    assert d[i, k] <= d[i, j] + d[j, k] + 1e-9


class TestDiagonalLowerBound:
    @staticmethod
    def pool(rng, m):
        return ([random_histogram(rng, m) for _ in range(3)]
                + [random_sample_copula(rng, m, T=40) for _ in range(3)]
                + [point_mass(m, 0, m - 1), point_mass(m, m // 2, 1)]
                + [reference_copula(kind, m)
                   for kind in ("independence", "frechet_upper", "frechet_lower")])

    def test_at_most_the_exact_optimum(self, rng):
        for m in (2, 3, 5, 8):
            cost = GroundCost(m)
            pool = self.pool(rng, m)
            bound = diagonal_lower_bound(pool, pool, cost)
            assert np.all(np.diag(bound) == 0.0)
            for i, a in enumerate(pool):
                for j, b in enumerate(pool):
                    assert bound[i, j] <= exact_ot(a, b, cost)[0] * (1.0 + 1e-9)

    def test_sums_the_two_diagonal_quantile_matchings(self, rng):
        m = 7
        pool = self.pool(rng, m)
        bound = diagonal_lower_bound(pool[:6], pool, GroundCost(m))
        p, q = np.indices((m, m))
        positions = np.arange(2 * m - 1) / (np.sqrt(2.0) * m)
        for i, a in enumerate(pool[:6]):
            for j, b in enumerate(pool):
                expected = 0.0
                for diagonal in (p + q, p - q + m - 1):
                    w_a, w_b = (np.bincount(diagonal.ravel(), h.mass.ravel(), 2 * m - 1)
                                for h in (a, b))
                    expected += w2_squared_1d(positions, w_a / w_a.sum(),
                                              positions, w_b / w_b.sum())
                assert abs(bound[i, j] - expected) < 1e-12


class TestLambdaSweep:
    def test_monotone_and_convergent_to_oracle(self, rng):
        m = 8
        cost = GroundCost(m)
        for _ in range(5):
            a = random_sample_copula(rng, m, T=16)
            b = random_sample_copula(rng, m, T=16)
            ev, _ = exact_ot(a, b, cost)
            vals = []
            for mult in (1, 10, 100, 500):
                v, _, _ = sinkhorn_distance(
                    a, b, cost, SinkhornConfig(lam=mult * m * m, tol=2e-4, max_iter=20000)
                )
                vals.append(v)
            for lo, hi in zip(vals[1:], vals[:-1]):
                assert lo <= hi + 1e-6
            assert abs(vals[-1] - ev) <= 0.02 * ev


class TestBarycenter:
    def test_single_input_returned(self, rng):
        h = random_histogram(rng, 8, concentration=1.0)
        out = wasserstein_barycenter([h], [1.0], GroundCost(8),
                                     SinkhornConfig(lam=default_lambda(8), tol=1e-7))
        assert np.abs(out.mass - h.mass).max() < 1e-4

    def test_duplicate_inputs_returned(self, rng):
        h = random_histogram(rng, 8, concentration=1.0)
        out = wasserstein_barycenter([h, h], [0.5, 0.5], GroundCost(8),
                                     SinkhornConfig(lam=default_lambda(8), tol=1e-7))
        assert np.abs(out.mass - h.mass).max() < 1e-4

    def test_two_point_masses_meet_in_the_middle(self):
        m = 9
        out = wasserstein_barycenter(
            [point_mass(m, 2, 2), point_mass(m, 6, 6)], [0.5, 0.5],
            GroundCost(m), SinkhornConfig(lam=10.0 * m * m, tol=1e-7),
        )
        assert out.mass[3:6, 3:6].sum() >= 0.9

    def test_objective_beats_euclidean_average(self, rng):
        m = 10
        cost = GroundCost(m)
        cfg = SinkhornConfig(lam=default_lambda(m))
        hists = [random_histogram(rng, m) for _ in range(4)]
        weights = np.full(4, 0.25)
        bary = wasserstein_barycenter(hists, weights, cost, cfg)
        naive = CopulaHistogram(np.mean([h.mass for h in hists], axis=0))

        def objective(mu):
            return float(np.sum(sinkhorn_values_batch([mu] * 4, hists, cost, cfg)) / 4.0)

        assert objective(bary) <= objective(naive) + 1e-6
        # and never exceeds the objective at any individual input
        for h in hists:
            assert objective(bary) <= objective(h) + 1e-6

    def test_weight_validation(self, rng):
        h = random_histogram(rng, 6)
        with pytest.raises(InvalidData):
            wasserstein_barycenter([h, h], [0.7, 0.7], GroundCost(6),
                                   SinkhornConfig(lam=10.0))

    def test_iteration_cap_raises_with_residual(self, rng):
        cfg = SinkhornConfig(lam=default_lambda(6), max_iter=1)
        with pytest.raises(ConvergenceFailure, match="iteration cap") as err:
            wasserstein_barycenter([random_histogram(rng, 6), random_histogram(rng, 6)],
                                   [0.5, 0.5], GroundCost(6), cfg)
        assert err.value.residual >= cfg.tol


    def test_logsumexp_matches_scipy_bitwise(self, rng):
        grids = [rng.standard_normal((10, 10)) * rng.uniform(0.1, 50) for _ in range(200)]
        tied = np.round(rng.standard_normal((10, 10)))
        tied[:3, 0] = tied.max()            # the max appears at least 3 times
        sparse = rng.standard_normal((12, 12)) - 40.0
        sparse[rng.random((12, 12)) < 0.4] = -np.inf
        grids += [tied, sparse, np.full((10, 10), 7.5)]
        # non-finite results take scipy's fallback, log(sum(exp(a)))
        big = np.zeros((4, 4))
        big[0, 0] = big[1, 1] = np.inf
        nan = np.zeros((4, 4))
        nan[2, 3] = np.nan
        grids += [np.full((6, 6), -np.inf), big, nan]
        for a in grids:
            got, want = transport._logsumexp(a), logsumexp(a)
            assert type(got) is type(want)
            assert got.tobytes() == want.tobytes()

    def test_barycenter_bits_match_scipy_logsumexp(self, rng, monkeypatch):
        m = 10
        hists = [random_sample_copula(rng, m, T=60) for _ in range(3)]
        args = (hists, [0.2, 0.3, 0.5], GroundCost(m), SinkhornConfig(lam=default_lambda(m)))
        got = wasserstein_barycenter(*args).mass
        monkeypatch.setattr(transport, "_logsumexp", logsumexp)
        assert got.tobytes() == wasserstein_barycenter(*args).mass.tobytes()

class TestPairwiseDistanceMatrix:
    def test_single_histogram(self, rng):
        h = random_histogram(rng, 6)
        out = pairwise_distance_matrix([h], GroundCost(6), SinkhornConfig(lam=360.0))
        assert out.shape == (1, 1) and out[0, 0] >= 0.0

    def test_extreme_grids_off_diagonal(self):
        up = reference_copula("frechet_upper", 2)
        dn = reference_copula("frechet_lower", 2)
        out = pairwise_distance_matrix([up, dn], GroundCost(2), SinkhornConfig(lam=2000.0))
        assert abs(out[0, 1] - 0.25) < 0.25 * 0.02
        assert out[0, 1] == out[1, 0]

    def test_permutation_equivariance(self, rng):
        hists = [random_histogram(rng, 6) for _ in range(5)]
        cost = GroundCost(6)
        cfg = SinkhornConfig(lam=default_lambda(6))
        base = pairwise_distance_matrix(hists, cost, cfg)
        perm = [3, 1, 4, 0, 2]
        permuted = pairwise_distance_matrix([hists[p] for p in perm], cost, cfg)
        assert np.abs(permuted - base[np.ix_(perm, perm)]).max() < 1e-12

    def test_convergence_failure_names_failing_pairs(self, rng):
        m = 6
        a = point_mass(m, 2, 3)
        b = random_histogram(rng, m)
        cfg = SinkhornConfig(lam=default_lambda(m), max_iter=40, tol=1e-8)
        # a point mass against itself converges within this budget (40
        # iterations over 3 stages); every pair that involves the random
        # histogram does not
        with pytest.raises(ConvergenceFailure) as err:
            pairwise_distance_matrix([a, a, b, a], GroundCost(m), cfg)
        assert err.value.pair == ((0, 2), (1, 2), (2, 2), (2, 3))
